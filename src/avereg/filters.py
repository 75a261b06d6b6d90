"""Regularizing filter families and the induced regularizers.

A filter family ``F_alpha`` approximates ``lambda -> 1/lambda`` and induces
the regularizer ``R_alpha = F_alpha(K*K) K*``, which acts coefficientwise as
``x_l = F_alpha(sigma_l^2) sigma_l y_l``.  Four families are provided:
Tikhonov, iterated Tikhonov, truncated SVD and Landweber iteration.  Their
constants (C_R, C_F, qualification) follow from the kind and the order, and
:func:`verify_filter_constants` certifies them numerically on a grid; grid
suprema understate the true suprema, so the check is a testing device rather
than a proof.  Iterated Tikhonov of order p and Landweber with relaxation a
share one power form, free of cancellation and at a cost independent of p:
``1 - lambda F = exp(e)`` and ``F = -expm1(e) / lambda`` with ``e = p log1p(-t)``,
``t = lambda / (alpha + lambda)`` for iterated Tikhonov and ``t = a lambda``,
``p = ceil(1/alpha)`` for Landweber.  Where t underflows below the normal
range, F is taken from the small-t limit ``e = -p t`` of the same form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .spectral import CoefficientVector, SpectralDecomposition, _check_length

KINDS = ("tikhonov", "iterated_tikhonov", "tsvd", "landweber")

_TINY = sys.float_info.min  # 2^-1022, the smallest normal double
_CHUNK = 1 << 15  # elements a kernel forms per chunk of rows: 256 KB of doubles


@dataclass(frozen=True)
class FilterSpec:
    """A filter family; its regularization constants follow from kind and order."""

    kind: str
    order: int = 1
    relaxation: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown filter kind {self.kind!r}")
        # bool is an int subclass but not an order; the power form takes a float
        if (not isinstance(self.order, int) or isinstance(self.order, bool)
                or not 1 <= self.order <= sys.float_info.max):
            raise InputError(f"filter order must be an integer >= 1, not {self.order!r}")
        # a setting the kind ignores would change neither name nor values,
        # only equality
        if self.kind != "iterated_tikhonov" and self.order != 1:
            raise InputError(f"{self.kind} takes no order, got order {self.order!r}")
        if self.kind != "landweber" and self.relaxation is not None:
            raise InputError(f"{self.kind} takes no relaxation, got relaxation "
                             f"{self.relaxation!r}")
        if self.kind == "landweber" and (self.relaxation is None or not self.relaxation > 0):
            raise InputError("landweber needs a positive relaxation")

    #: C_R with lambda |F_alpha(lambda)| <= C_R, the same for every kind
    c_r = 1.0

    @property
    def c_f(self) -> float:
        """C_F with alpha |F_alpha(lambda)| <= C_F."""
        return {"iterated_tikhonov": float(self.order), "landweber": 2.0}.get(self.kind, 1.0)

    @property
    def qualification(self) -> float:
        """The largest nu with a bias bound C_nu alpha^{nu/2}."""
        return {"tikhonov": 2.0, "iterated_tikhonov": 2.0 * self.order}.get(self.kind, math.inf)

    @classmethod
    def tikhonov(cls) -> "FilterSpec":
        return cls("tikhonov")

    def c_nu(self, nu: float) -> float:
        """Declared qualification constant C_nu for the bias bound C_nu alpha^{nu/2}.

        For Tikhonov-type filters and TSVD the classical value 1 holds up to
        the qualification.  For Landweber with relaxation a and k = ceil(1/alpha)
        iterations the supremum of lambda^{nu/2}(1-a lambda)^k / alpha^{nu/2} is
        bounded by (nu / (2ae))^{nu/2}.  Beyond the qualification no constant
        exists and +inf is returned.
        """
        if not nu > 0:
            raise InputError("nu must be positive")
        if self.kind == "landweber":
            return (nu / (2.0 * self.relaxation * math.e)) ** (nu / 2.0)
        return math.inf if nu > self.qualification else 1.0

    @property
    def name(self) -> str:
        if self.kind == "iterated_tikhonov":
            return f"iterated_tikhonov({self.order})"
        if self.kind == "landweber":
            return f"landweber(a={self.relaxation:g})"
        return self.kind


def _axes(alpha, lam=None):
    """Validated alpha and lambda (if given) arrays; a 1-D alpha becomes a
    column, so results have one row per alpha against the lambda axis."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim > 1 or not np.all(alpha > 0):
        raise InputError("alpha must be positive, a float or a 1-D array")
    if lam is not None:
        lam = np.asarray(lam, dtype=float)
        if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
            raise InputError("lambda must be positive and finite")
    return (alpha[:, None] if alpha.ndim == 1 else alpha), lam


def _power(spec: FilterSpec, alpha, lam):
    """t and p of the power form (see the module docstring)."""
    if spec.kind == "iterated_tikhonov":
        return lam / (alpha + lam), float(spec.order)
    t = spec.relaxation * lam
    if np.any(t > 1.0):
        raise InputError("Landweber relaxation exceeds 1/sigma_1^2: divergent iteration")
    # alpha ~ 1/k: every k = ceil(1/alpha) is a double, so it multiplies
    # exactly as the integer would; below alpha = 2^-1024 it is inf
    with np.errstate(over="ignore"):
        return t, np.ceil(1.0 / alpha)


def _exponent(t, p):
    """The exponent e = p log1p(-t) of the power form."""
    # t = 1 gives log1p(-1) = -inf and a product overflowing at a large p
    # gives -inf too: exp(e) is then the exact 0 and F the exact 1/lambda
    with np.errstate(divide="ignore", over="ignore"):
        return p * np.log1p(-t)


def _factor(spec: FilterSpec, alpha, lam) -> np.ndarray:
    """1 - lambda F_alpha(lambda) of checked axes, such as a spectrum's squares."""
    if spec.kind == "tikhonov":
        return alpha / (alpha + lam)
    if spec.kind == "tsvd":
        return np.where(lam >= alpha, 0.0, 1.0)
    return np.exp(_exponent(*_power(spec, alpha, lam)))


def residual_factor(spec: FilterSpec, alpha, lam) -> np.ndarray:
    """1 - lambda F_alpha(lambda), evaluated without cancellation.

    A 1-D array of alphas gives one row of factors per alpha.
    """
    return _factor(spec, *_axes(alpha, lam))


# F beyond DBL_MAX, at a lambda below about 1/DBL_MAX, is inf: unused at a
# level TSVD discards, else it shows as a solution error that overflows
@np.errstate(over="ignore")
def _filter(spec: FilterSpec, alpha, lam) -> np.ndarray:
    """F_alpha(lambda) of checked axes."""
    if spec.kind == "tikhonov":
        return 1.0 / (alpha + lam)
    if spec.kind == "tsvd":
        return np.where(lam >= alpha, 1.0 / lam, 0.0)
    t, p = _power(spec, alpha, lam)
    value = -np.expm1(_exponent(t, p)) / lam
    # below the normal range t has lost bits or is 0; there e = -pt and
    # F = h(pt) p t/lambda with h(x) = -expm1(-x)/x, which needs few bits
    # of pt, and t/lambda, 1/(alpha + lambda) or a, formed without t
    x = p * t
    h = np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0)
    rate = 1.0 / (alpha + lam) if spec.kind == "iterated_tikhonov" else spec.relaxation
    with np.errstate(invalid="ignore"):  # h p is 0 inf where p is inf, and unused
        return np.where((t < _TINY) & (p < math.inf), h * p * rate, value)


def filter_value(spec: FilterSpec, alpha, lam):
    """F_alpha(lambda), evaluated without cancellation.

    A 1-D array of alphas gives one row of values per alpha; a scalar alpha
    and a scalar lambda give a float.  A value beyond the float range is inf.
    """
    value = _filter(spec, *_axes(alpha, lam))
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class RegularizedSolution:
    """Result of applying R_alpha to data: the solution's coefficients in the
    right singular basis."""

    x: np.ndarray


def _chunks(rows: int, width: int) -> list:
    """Slices of about _CHUNK elements over ``rows`` rows of ``width`` each."""
    step = max(1, _CHUNK // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _stack(op: SpectralDecomposition, rows) -> tuple:
    """Coefficients and squared orthogonal norms of a sequence of vectors, one row each."""
    for row in rows:
        _check_length(op, row, "data vector")
    return (np.array([row.coefficients for row in rows]).reshape(len(rows), op.rank),
            np.array([row.orthogonal_norm**2 for row in rows]))


def apply_regularizer(op: SpectralDecomposition, spec: FilterSpec, alpha, y):
    """Apply R_alpha = F_alpha(K*K) K* to data-side coefficients.

    A CoefficientVector ``y`` with a float alpha gives a RegularizedSolution,
    and a sequence of them with one alpha each a (rows, rank) array of the x.
    """
    if isinstance(y, CoefficientVector):
        return RegularizedSolution(apply_regularizer(op, spec, [alpha], [y])[0])
    x, _ = _stack(op, y)
    alphas = _axes(np.ravel(alpha))[0]
    if len(alphas) != len(x):
        raise InputError(f"got {len(alphas)} alphas for {len(x)} rows, not one per row")
    for chunk in _chunks(len(x), op.rank):
        x[chunk] *= _filter(spec, alphas[chunk], op.squares) * op.singular_values
    return x


def residual_norm(op: SpectralDecomposition, spec: FilterSpec, alpha, rows) -> np.ndarray:
    """||(K R_alpha - Id) y|| of each CoefficientVector y in ``rows``, the
    quantity driven to delta by the discrepancy loop.

    The result is (rows, alphas) for a float or a 1-D block of alphas, shared
    by every row.  Each residual counts y's part outside the range basis,
    bitwise as its alpha and y alone give.
    """
    coefficients, orthogonal_squares = _stack(op, rows)
    factor = _factor(spec, _axes(np.atleast_1d(alpha))[0], op.squares)  # (alphas, rank), once
    residuals = np.empty((len(coefficients), len(factor)))
    for chunk in _chunks(len(coefficients), factor.size):
        product = factor * coefficients[chunk, None]
        np.square(product, out=product)
        residuals[chunk] = np.sqrt(np.sum(product, axis=-1) + orthogonal_squares[chunk, None])
    return residuals


@dataclass(frozen=True)
class FilterConstantsReport:
    """Filter constants observed on the verification grid, and every way they
    break the declared ones of the spec (:attr:`FilterSpec.c_r`,
    :attr:`FilterSpec.c_f`, :meth:`FilterSpec.c_nu`) or the filter axioms."""

    c_r: float
    c_f: float
    c_nu: float
    monotone: bool
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


_REL_TOL = 1e-9
#: points of the verification grid in lambda and in alpha
_N_LAMBDA = 200
_N_ALPHA = 50


def verify_filter_constants(spec: FilterSpec, nu: float) -> FilterConstantsReport:
    """Grid certification of the filter axioms.

    Evaluates F_alpha on a log grid of 200 lambda points in [1e-12, 1] and
    50 alpha points in [1e-8, 1] and reports the observed suprema of
    lambda F_alpha, alpha |F_alpha| and lambda^{nu/2} |1 - lambda F_alpha| /
    alpha^{nu/2} and a monotonicity flag.
    A declared constant exceeded by more than 1e-9 relative, which includes
    the C_nu of a qualification declared too high, and F outside
    [0, 1/lambda] are violations.
    """
    if not nu > 0:
        raise InputError("nu must be positive")
    lam = np.logspace(-12.0, 0.0, _N_LAMBDA)
    alphas = np.logspace(-8, 0, _N_ALPHA)  # ascending

    factor = residual_factor(spec, alphas, lam)  # one row per alpha
    f = filter_value(spec, alphas, lam)
    c_r_obs = float(np.max(lam * f, initial=0.0))
    c_f_obs = float(np.max(alphas[:, None] * np.abs(f), initial=0.0))
    nu_ratios = np.max(lam ** (nu / 2.0) * np.abs(factor), axis=1) / alphas ** (nu / 2.0)
    # alpha ascending: F must be non-increasing in alpha
    monotone = not np.any(f[1:] > f[:-1] * (1.0 + _REL_TOL) + 1e-300)
    c_nu_obs = float(np.max(nu_ratios))

    c_nu_decl = spec.c_nu(nu)
    violations = []
    if c_r_obs > spec.c_r * (1.0 + _REL_TOL):
        violations.append(f"C_R observed {c_r_obs:.6g} exceeds declared {spec.c_r:.6g}")
    if c_f_obs > spec.c_f * (1.0 + _REL_TOL):
        violations.append(f"C_F observed {c_f_obs:.6g} exceeds declared {spec.c_f:.6g}")
    if math.isfinite(c_nu_decl) and c_nu_obs > c_nu_decl * (1.0 + _REL_TOL):
        violations.append(f"C_nu observed {c_nu_obs:.6g} exceeds declared {c_nu_decl:.6g}")
    if not monotone:
        violations.append("filter is not monotone in alpha on the grid")
    if np.any(f < -_REL_TOL) or np.any(f * lam > 1.0 + _REL_TOL):
        violations.append("filter leaves the range [0, 1/lambda]")

    return FilterConstantsReport(
        c_r=c_r_obs,
        c_f=c_f_obs,
        c_nu=c_nu_obs,
        monotone=monotone,
        violations=tuple(violations),
    )
