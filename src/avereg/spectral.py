"""Spectral representation of compact linear operators.

Operators are carried around as their singular system ``(sigma_l, u_l, v_l)``
with ``K v_l = sigma_l u_l`` and ``K* u_l = sigma_l v_l``.  Dense matrices
enter only through :func:`svd` (LAPACK gesdd).  Vectors are plain float
arrays, which are coefficients for a diagonal operator and ambient
coordinates otherwise.  Only a projection onto a singular basis is a
:class:`CoefficientVector`, which also carries the norm of the part outside
the basis; the regularizer and the discrepancy residual read projected data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

#: relative threshold below which singular values are truncated by svd()
SV_TRUNCATION = 1e-14


@dataclass(frozen=True, slots=True)
class CoefficientVector:
    """A vector projected onto a singular basis by :func:`project_data` or
    :func:`project_solution`.

    ``coefficients[l]`` is the inner product with ``u_l`` (data side) or
    ``v_l`` (solution side); ``orthogonal_norm`` is the Euclidean norm of the
    remainder outside the spanned basis (0 for a diagonal operator), which
    the discrepancy residual of projected data counts.
    """

    coefficients: np.ndarray
    orthogonal_norm: float = 0.0

    def __post_init__(self):
        coef = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if coef.ndim != 1:
            raise InputError("coefficients must be one-dimensional")
        if not np.all(np.isfinite(coef)):
            raise InputError("coefficients must be finite")
        if not math.isfinite(self.orthogonal_norm) or self.orthogonal_norm < 0:
            raise InputError("orthogonal_norm must be finite and nonnegative")
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "orthogonal_norm", float(self.orthogonal_norm))

    def __len__(self) -> int:
        return self.coefficients.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Singular system of a compact operator.

    ``left_basis`` / ``right_basis`` hold the vectors u_l / v_l as matrix
    columns; ``None`` means the standard basis (diagonal operators), which
    keeps large synthetic operators cheap.  ``squares`` holds the sigma_l^2,
    checked once here for the filters.
    """

    singular_values: np.ndarray
    left_basis: np.ndarray | None = None
    right_basis: np.ndarray | None = None
    squares: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = np.atleast_1d(np.asarray(self.singular_values, dtype=float))
        bad = ~(np.isfinite(sigma) & (sigma > 0))
        if np.any(bad):
            level = int(np.argmax(bad)) + 1
            raise InputError(f"singular value {level} of {sigma.size} ({sigma[level - 1]:.3g}) "
                             "must be finite and strictly positive")
        if sigma.size and np.any(np.diff(sigma) > 0):
            raise InputError("singular values must be non-increasing")
        # the filters act on sigma^2, which must stay positive and finite;
        # subnormal is fine
        with np.errstate(over="ignore"):
            squares = sigma**2
        bad = (squares == 0) | (squares == math.inf)
        if np.any(bad):
            level = int(np.argmax(bad)) + 1
            raise InputError(f"singular value {level} of {sigma.size} ({sigma[level - 1]:.3g}) "
                             f"squares to {squares[level - 1]:g} in double precision")
        object.__setattr__(self, "singular_values", sigma)
        object.__setattr__(self, "squares", squares)
        for name in ("left_basis", "right_basis"):
            basis = getattr(self, name)
            if basis is not None:
                basis = np.asarray(basis, dtype=float)
                if basis.ndim != 2 or basis.shape[1] != sigma.size:
                    raise InputError(f"{name} must have one column per singular value")
                object.__setattr__(self, name, basis)

    @property
    def rank(self) -> int:
        return self.singular_values.shape[0]


def _check_length(op: SpectralDecomposition, vec, what: str):
    if len(vec) != op.rank:
        raise InputError(f"{what} has length {len(vec)}, operator rank is {op.rank}")


def counterexample_direction(m: int) -> np.ndarray:
    """Noise direction of the divergence construction: coefficient l is
    1/sqrt(l(l-1)) for l >= 2 and 0 for l = 1, truncated at level m."""
    if m < 2:
        raise InputError("need m >= 2")
    levels = np.arange(1, m + 1, dtype=float)
    coef = np.zeros(m)
    coef[1:] = 1.0 / np.sqrt(levels[1:] * (levels[1:] - 1.0))
    return coef


def counterexample_operator(m: int) -> tuple[SpectralDecomposition, np.ndarray]:
    """Diagonal operator with sigma_l = 10^-l plus its adversarial noise direction.

    The exact data for this scenario is the zero vector.  m is capped so that
    the smallest squared singular value, 10^-2m, stays positive in double
    precision.
    """
    if m < 2:
        raise InputError("need m >= 2")
    if m > 161:
        raise InputError(f"sigma_l^2 = 10^-2l underflows to 0 beyond m = 161, got m = {m}")
    sigma = 10.0 ** (-np.arange(1, m + 1, dtype=float))
    return SpectralDecomposition(sigma), counterexample_direction(m)


def svd(matrix: np.ndarray) -> SpectralDecomposition:
    """Thin SVD of a dense real matrix via LAPACK gesdd (``np.linalg.svd``).

    Singular values below 1e-14 * sigma_1 are truncated.  Each pair
    ``(u_l, v_l)`` is flipped so that the largest-magnitude entry of ``u_l``
    (the first, on ties) is positive; the result then does not depend on the
    LAPACK build's sign choice.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or min(a.shape) < 1:
        raise InputError("matrix must be two-dimensional and non-empty")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix must be finite-valued")
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc

    keep = sigma > SV_TRUNCATION * sigma[0]
    left = u[:, keep]
    right = vt[keep].T
    cols = np.arange(left.shape[1])
    signs = np.copysign(1.0, left[np.argmax(np.abs(left), axis=0), cols])
    return SpectralDecomposition(sigma[keep], left * signs, right * signs)


def _project(basis: np.ndarray | None, rank: int, vector: np.ndarray) -> CoefficientVector:
    """``vector`` in the columns of ``basis`` with the norm of its remainder;
    ``None`` is the standard basis of ``rank`` levels, in which ``vector``
    is its own coefficient list."""
    vector = np.asarray(vector, dtype=float)
    if vector.shape[0] != (rank if basis is None else basis.shape[0]):
        raise InputError("vector dimension mismatch")
    if basis is None:
        return CoefficientVector(vector, 0.0)
    coef = basis.T @ vector
    residual = vector - basis @ coef
    return CoefficientVector(coef, float(np.linalg.norm(residual)))


def project_data(op: SpectralDecomposition, vector: np.ndarray) -> CoefficientVector:
    """Express an ambient data-space vector in the left singular basis."""
    return _project(op.left_basis, op.rank, vector)


def project_solution(op: SpectralDecomposition, vector: np.ndarray) -> CoefficientVector:
    """Express an ambient solution-space vector in the right singular basis."""
    return _project(op.right_basis, op.rank, vector)


def embed_solution(op: SpectralDecomposition, x: np.ndarray) -> np.ndarray:
    """Map coefficients in the right singular basis to the operator's solution
    coordinates: a copy of ``x`` for a diagonal operator."""
    _check_length(op, x, "solution vector")
    if op.right_basis is None:
        return x.copy()
    return op.right_basis @ x


def _load_csv(path, what: str) -> np.ndarray:
    """Read headerless numeric CSV as a 2-D array of finite values.

    Every failure is an InputError naming the file: unreadable or ragged
    input, a file with no data rows, and a non-finite entry, reported with
    its 1-based data row (blank and comment lines are not counted).
    """
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, not by numpy's UserWarning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot parse {what} CSV {path}: {exc}") from exc
    if rows.size == 0:
        raise InputError(f"{what} CSV {path} holds no data")
    bad = np.flatnonzero(~np.all(np.isfinite(rows), axis=1))
    if bad.size:
        raise InputError(f"{what} CSV {path}: row {bad[0] + 1} has a non-finite entry")
    return rows


def load_matrix_csv(path) -> np.ndarray:
    """Read a dense matrix from headerless row-major CSV."""
    return _load_csv(path, "matrix")
