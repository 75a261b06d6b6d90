"""Regularizing filter families and the induced regularizers.

A filter family ``F_alpha`` approximates ``lambda -> 1/lambda`` and induces
the regularizer ``R_alpha = F_alpha(K*K) K*``, which acts coefficientwise as
``x_l = F_alpha(sigma_l^2) sigma_l y_l``.  Four families are provided:
Tikhonov, iterated Tikhonov, truncated SVD and Landweber iteration.  Each
carries declared constants (C_R, C_F, qualification) that
:func:`verify_filter_constants` certifies numerically on a grid; grid suprema
understate the true suprema, so the check is a testing device rather than a
proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .spectral import CoefficientVector, SpectralDecomposition, _check_length

KINDS = ("tikhonov", "iterated_tikhonov", "tsvd", "landweber")


@dataclass(frozen=True)
class FilterSpec:
    """A filter family together with its declared regularization constants."""

    kind: str
    order: int = 1
    relaxation: float | None = None
    c_r: float | None = None
    c_f: float | None = None
    qualification: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown filter kind {self.kind!r}")
        if self.kind == "iterated_tikhonov" and self.order < 1:
            raise InputError("iterated Tikhonov order must be >= 1")
        if self.kind == "landweber":
            if self.relaxation is None or not self.relaxation > 0:
                raise InputError("landweber needs a positive relaxation")
        defaults = self._default_constants()
        for name, value in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)

    def _default_constants(self) -> dict:
        if self.kind == "tikhonov":
            return {"c_r": 1.0, "c_f": 1.0, "qualification": 2.0}
        if self.kind == "iterated_tikhonov":
            return {"c_r": 1.0, "c_f": float(self.order), "qualification": 2.0 * self.order}
        if self.kind == "tsvd":
            return {"c_r": 1.0, "c_f": 1.0, "qualification": math.inf}
        return {"c_r": 1.0, "c_f": 2.0, "qualification": math.inf}

    @classmethod
    def tikhonov(cls) -> "FilterSpec":
        return cls("tikhonov")

    @classmethod
    def iterated_tikhonov(cls, order: int) -> "FilterSpec":
        return cls("iterated_tikhonov", order=order)

    @classmethod
    def tsvd(cls) -> "FilterSpec":
        return cls("tsvd")

    @classmethod
    def landweber(cls, relaxation: float = 0.9) -> "FilterSpec":
        return cls("landweber", relaxation=relaxation)

    def c_nu(self, nu: float) -> float:
        """Declared qualification constant C_nu for the bias bound C_nu alpha^{nu/2}.

        For Tikhonov-type filters and TSVD the classical value 1 holds up to
        the qualification.  For Landweber with relaxation a and k = ceil(1/alpha)
        iterations the supremum of lambda^{nu/2}(1-a lambda)^k / alpha^{nu/2} is
        bounded by (nu / (2ae))^{nu/2}.  Beyond the qualification no constant
        exists and +inf is returned.
        """
        if nu <= 0:
            raise InputError("nu must be positive")
        if self.kind == "landweber":
            return (nu / (2.0 * self.relaxation * math.e)) ** (nu / 2.0)
        if nu > self.qualification:
            return math.inf
        return 1.0

    @property
    def name(self) -> str:
        if self.kind == "iterated_tikhonov":
            return f"iterated_tikhonov({self.order})"
        if self.kind == "landweber":
            return f"landweber(a={self.relaxation:g})"
        return self.kind


def _landweber_steps(alpha):
    """alpha ~ 1/k identification: k(alpha) = ceil(1/alpha), as a float.

    Every such k is a double, so it multiplies exactly as the integer would;
    below alpha = 2^-1024 it is inf, which drives the factor to 0.
    """
    with np.errstate(over="ignore"):
        return np.ceil(1.0 / alpha)


def _validate(alpha, lam: np.ndarray):
    if not np.all(alpha > 0):
        raise InputError("alpha must be positive")
    if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
        raise InputError("lambda must be positive and finite")


def residual_factor(spec: FilterSpec, alpha, lam) -> np.ndarray:
    """1 - lambda F_alpha(lambda), evaluated without cancellation.

    A 1-D array of alphas gives one row of factors per alpha.
    """
    lam = np.asarray(lam, dtype=float)
    _validate(alpha, lam)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim == 1:
        alpha = alpha[:, None]  # one row per alpha against the lambda axis
    if spec.kind == "tikhonov":
        return alpha / (alpha + lam)
    if spec.kind == "iterated_tikhonov":
        # log1p(-1) = -inf once alpha < eps * lambda; exp then gives the exact 0
        with np.errstate(divide="ignore"):
            return np.exp(spec.order * np.log1p(-lam / (alpha + lam)))
    if spec.kind == "tsvd":
        return np.where(lam >= alpha, 0.0, 1.0)
    a = spec.relaxation
    if np.any(a * lam > 1.0):
        raise ConfigurationError("Landweber relaxation exceeds 1/sigma_1^2: divergent iteration")
    steps = _landweber_steps(alpha)
    # at tiny alpha, steps * log1p(-a lambda) overflows to -inf and exp gives 0
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(steps * np.log1p(-a * lam))


def _filter_direct(spec: FilterSpec, alpha: float, lam: np.ndarray) -> np.ndarray:
    """F_alpha(lambda) evaluated cancellation-free per kind."""
    _validate(alpha, lam)
    if spec.kind == "tikhonov":
        return 1.0 / (alpha + lam)
    if spec.kind == "iterated_tikhonov":
        # 1 - r^p = (1 - r) sum r^j with r = alpha/(alpha+lam)
        r = alpha / (alpha + lam)
        powers = sum(r**j for j in range(spec.order))
        return powers / (alpha + lam)
    if spec.kind == "tsvd":
        return np.where(lam >= alpha, 1.0 / lam, 0.0)
    a = spec.relaxation
    if np.any(a * lam > 1.0):
        raise ConfigurationError("Landweber relaxation exceeds 1/sigma_1^2: divergent iteration")
    steps = _landweber_steps(alpha)
    # a * lam = 1 gives log1p(-1) = -inf and the exact value 1/lam; so does
    # an overflowing steps * log1p(-a lam) at tiny alpha
    with np.errstate(divide="ignore", over="ignore"):
        return -np.expm1(steps * np.log1p(-a * lam)) / lam


def filter_value(spec: FilterSpec, alpha: float, lam) -> np.ndarray:
    """Evaluate F_alpha(lambda) for a scalar or array of spectral values."""
    lam_arr = np.asarray(lam, dtype=float)
    value = _filter_direct(spec, alpha, lam_arr)
    if np.isscalar(lam) or np.ndim(lam) == 0:
        return float(value)
    return value


@dataclass(frozen=True)
class RegularizedSolution:
    """Result of applying R_alpha to data: solution, residual and operator norm."""

    alpha: float
    x: CoefficientVector
    residual: float
    operator_norm: float


def apply_regularizer(
    op: SpectralDecomposition, spec: FilterSpec, alpha: float, y: CoefficientVector
) -> RegularizedSolution:
    """Apply R_alpha = F_alpha(K*K) K* to data-side coefficients.

    The residual is ||(K R_alpha - Id) y|| including any component of y
    orthogonal to the range basis.
    """
    _check_length(op, y, "data vector")
    lam = op.singular_values**2
    factor = residual_factor(spec, alpha, lam)
    f = _filter_direct(spec, alpha, lam)
    x = CoefficientVector(f * op.singular_values * y.coefficients, 0.0)
    residual = float(
        np.sqrt(np.sum((factor * y.coefficients) ** 2) + y.orthogonal_norm**2)
    )
    operator_norm = float(np.max(op.singular_values * f, initial=0.0))
    return RegularizedSolution(alpha, x, residual, operator_norm)


def residual_norm(
    op: SpectralDecomposition, spec: FilterSpec, alpha, y: CoefficientVector
):
    """||(K R_alpha - Id) y||; the quantity driven to delta by the discrepancy loop.

    A float alpha gives a float; a 1-D array of alphas gives an array with
    one residual per alpha, each bitwise the one its float would give (each
    row is summed in the same pairwise order as a single vector).
    """
    _check_length(op, y, "data vector")
    factor = residual_factor(spec, alpha, op.singular_values**2)
    squares = np.sum((factor * y.coefficients) ** 2, axis=-1)
    residual = np.sqrt(squares + y.orthogonal_norm**2)
    return residual if np.ndim(alpha) == 1 else float(residual)


@dataclass(frozen=True)
class FilterConstantsReport:
    """Observed filter constants on the verification grid."""

    kind: str
    nu: float
    c_r_declared: float
    c_r_observed: float
    c_f_declared: float
    c_f_observed: float
    c_nu_declared: float
    c_nu_observed: float
    monotone: bool
    range_ok: bool
    qualification_exceeded: bool
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


_REL_TOL = 1e-9


def verify_filter_constants(
    spec: FilterSpec,
    sigma_max: float,
    nu: float,
    n_lambda: int = 200,
    n_alpha: int = 50,
) -> FilterConstantsReport:
    """Grid certification of the filter axioms.

    Evaluates F_alpha on a log grid of at least 200 lambda points in
    (1e-12 sigma_max^2, sigma_max^2] and 50 alpha points in (1e-8, 1] and
    reports the observed suprema of lambda F_alpha, alpha |F_alpha| and
    lambda^{nu/2} |1 - lambda F_alpha| / alpha^{nu/2}, a monotonicity flag and
    the 0 <= F <= 1/lambda range check.  A declared constant is violated when
    the observed value exceeds it by more than 1e-9 relative.
    """
    if sigma_max <= 0 or nu <= 0:
        raise InputError("sigma_max and nu must be positive")
    if n_lambda < 2 or n_alpha < 2:
        raise InputError("grids need at least two points")
    lam_hi = sigma_max**2
    lam = np.logspace(math.log10(lam_hi) - 12, math.log10(lam_hi), n_lambda)
    alphas = np.logspace(-8, 0, n_alpha)  # ascending

    c_r_obs = 0.0
    c_f_obs = 0.0
    nu_ratios = np.empty(n_alpha)
    monotone = True
    range_ok = True
    prev_f = None
    for i, alpha in enumerate(alphas):
        factor = residual_factor(spec, float(alpha), lam)
        f = _filter_direct(spec, float(alpha), lam)
        c_r_obs = max(c_r_obs, float(np.max(lam * f)))
        c_f_obs = max(c_f_obs, float(alpha * np.max(np.abs(f))))
        nu_ratios[i] = float(np.max(lam ** (nu / 2.0) * np.abs(factor)) / alpha ** (nu / 2.0))
        if np.any(f < -_REL_TOL) or np.any(f * lam > 1.0 + _REL_TOL):
            range_ok = False
        if prev_f is not None and np.any(f > prev_f * (1.0 + _REL_TOL) + 1e-300):
            # alpha ascending: F must be non-increasing in alpha
            monotone = False
        prev_f = f
    c_nu_obs = float(np.max(nu_ratios))
    # beyond the qualification the per-alpha ratio keeps growing as alpha -> 0
    # (within it, the ratio saturates); compare across the two smallest decades
    step = math.log10(alphas[1] / alphas[0])
    idx = min(n_alpha - 1, max(1, round(2.0 / step)))
    qualification_exceeded = bool(nu_ratios[0] > 10.0 * nu_ratios[idx])

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
    if not range_ok:
        violations.append("filter leaves the range [0, 1/lambda]")

    return FilterConstantsReport(
        kind=spec.name,
        nu=nu,
        c_r_declared=spec.c_r,
        c_r_observed=c_r_obs,
        c_f_declared=spec.c_f,
        c_f_observed=c_f_obs,
        c_nu_declared=c_nu_decl,
        c_nu_observed=c_nu_obs,
        monotone=monotone,
        range_ok=range_ok,
        qualification_exceeded=qualification_exceeded,
        violations=tuple(violations),
    )
