"""Spectral representation of compact linear operators.

Operators are carried around as their singular system ``(sigma_l, u_l, v_l)``
with ``K v_l = sigma_l u_l`` and ``K* u_l = sigma_l v_l``.  Dense matrices
enter only through :func:`svd` (LAPACK gesdd).  All vectors are handled as
coefficient lists with respect to the singular bases plus the norm of any
component orthogonal to the spanned basis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

#: relative threshold below which singular values are truncated by svd()
SV_TRUNCATION = 1e-14


@dataclass(frozen=True)
class CoefficientVector:
    """A vector expressed in one of the singular bases.

    ``coefficients[l]`` is the inner product with ``u_l`` (data side) or
    ``v_l`` (solution side); ``orthogonal_norm`` is the Euclidean norm of the
    component outside the spanned basis (0 for full-rank discretisations).
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

    def norm(self) -> float:
        return float(np.hypot(np.linalg.norm(self.coefficients), self.orthogonal_norm))


@dataclass(frozen=True)
class SourceCondition:
    """Smoothness assumption: the true solution equals (K*K)^{nu/2} w, ||w|| <= rho."""

    nu: float
    rho: float
    w_coefficients: np.ndarray

    def __post_init__(self):
        if self.nu <= 0:
            raise InputError("nu must be positive")
        if self.rho <= 0:
            raise InputError("rho must be positive")
        w = np.atleast_1d(np.asarray(self.w_coefficients, dtype=float))
        if not np.all(np.isfinite(w)):
            raise InputError("w must be finite")
        if np.linalg.norm(w) > self.rho * (1 + 1e-12):
            raise InputError("||w|| exceeds rho")
        object.__setattr__(self, "w_coefficients", w)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Singular system of a compact operator.

    ``left_basis`` / ``right_basis`` hold the vectors u_l / v_l as matrix
    columns; ``None`` means the standard basis (diagonal operators), which
    keeps large synthetic operators cheap.
    """

    singular_values: np.ndarray
    left_basis: np.ndarray | None = None
    right_basis: np.ndarray | None = None

    def __post_init__(self):
        sigma = np.atleast_1d(np.asarray(self.singular_values, dtype=float))
        if sigma.size and (not np.all(np.isfinite(sigma)) or np.any(sigma <= 0)):
            raise InputError("singular values must be finite and strictly positive")
        if sigma.size and np.any(np.diff(sigma) > 0):
            raise InputError("singular values must be non-increasing")
        object.__setattr__(self, "singular_values", sigma)
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

    @property
    def data_dim(self) -> int:
        return self.rank if self.left_basis is None else self.left_basis.shape[0]

    @property
    def solution_dim(self) -> int:
        return self.rank if self.right_basis is None else self.right_basis.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {"singular_values": self.singular_values.tolist(), "rank": self.rank}
        )


def _check_length(op: SpectralDecomposition, vec: CoefficientVector, what: str):
    if len(vec) != op.rank:
        raise InputError(f"{what} has length {len(vec)}, operator rank is {op.rank}")


def apply_forward(op: SpectralDecomposition, x: CoefficientVector) -> CoefficientVector:
    """Apply K coefficientwise: (Kx, u_l) = sigma_l (x, v_l)."""
    _check_length(op, x, "solution vector")
    return CoefficientVector(op.singular_values * x.coefficients, 0.0)


def apply_pseudoinverse(op: SpectralDecomposition, y: CoefficientVector) -> CoefficientVector:
    """Apply the generalized inverse; the orthogonal component is projected away."""
    _check_length(op, y, "data vector")
    return CoefficientVector(y.coefficients / op.singular_values, 0.0)


def synthesize_source(
    op: SpectralDecomposition, sc: SourceCondition
) -> tuple[CoefficientVector, CoefficientVector]:
    """Build the exact solution/data pair from a source condition.

    Returns ``(x_hat, y_hat)`` with ``x_hat_l = sigma_l^nu w_l`` and
    ``y_hat = K x_hat``.
    """
    if sc.w_coefficients.shape[0] != op.rank:
        raise InputError("w length must equal operator rank")
    x_hat = CoefficientVector(op.singular_values**sc.nu * sc.w_coefficients, 0.0)
    return x_hat, apply_forward(op, x_hat)


def counterexample_direction(m: int) -> CoefficientVector:
    """Noise direction of the divergence construction: coefficient l is
    1/sqrt(l(l-1)) for l >= 2 and 0 for l = 1, truncated at level m."""
    if m < 2:
        raise InputError("need m >= 2")
    levels = np.arange(1, m + 1, dtype=float)
    coef = np.zeros(m)
    coef[1:] = 1.0 / np.sqrt(levels[1:] * (levels[1:] - 1.0))
    return CoefficientVector(coef, 0.0)


def counterexample_operator(m: int) -> tuple[SpectralDecomposition, CoefficientVector]:
    """Diagonal operator with sigma_l = 10^-l plus its adversarial noise direction.

    The exact data for this scenario is the zero vector.  m is capped so that
    the smallest singular value stays representable in double precision.
    """
    if m < 2:
        raise InputError("need m >= 2")
    if m > 300:
        raise InputError("sigma_l = 10^-l underflows beyond m = 300")
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


def project_data(op: SpectralDecomposition, vector: np.ndarray) -> CoefficientVector:
    """Express an ambient data-space vector in the left singular basis."""
    vector = np.asarray(vector, dtype=float)
    if op.left_basis is None:
        if vector.shape[0] != op.rank:
            raise InputError("vector dimension mismatch")
        return CoefficientVector(vector, 0.0)
    if vector.shape[0] != op.left_basis.shape[0]:
        raise InputError("vector dimension mismatch")
    coef = op.left_basis.T @ vector
    residual = vector - op.left_basis @ coef
    return CoefficientVector(coef, float(np.linalg.norm(residual)))


def project_solution(op: SpectralDecomposition, vector: np.ndarray) -> CoefficientVector:
    """Express an ambient solution-space vector in the right singular basis."""
    vector = np.asarray(vector, dtype=float)
    if op.right_basis is None:
        if vector.shape[0] != op.rank:
            raise InputError("vector dimension mismatch")
        return CoefficientVector(vector, 0.0)
    if vector.shape[0] != op.right_basis.shape[0]:
        raise InputError("vector dimension mismatch")
    coef = op.right_basis.T @ vector
    residual = vector - op.right_basis @ coef
    return CoefficientVector(coef, float(np.linalg.norm(residual)))


def embed_solution(op: SpectralDecomposition, x: CoefficientVector) -> np.ndarray:
    """Map solution-side coefficients back to ambient coordinates."""
    _check_length(op, x, "solution vector")
    if op.right_basis is None:
        return x.coefficients.copy()
    return op.right_basis @ x.coefficients


def load_matrix_csv(path) -> np.ndarray:
    """Read a dense matrix from headerless row-major CSV."""
    try:
        matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot parse matrix CSV {path}: {exc}") from exc
    return matrix
