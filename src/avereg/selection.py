"""Regularization-parameter choice rules.

The discrepancy principle walks alpha down the geometric grid q^0, q^1, ...
until the residual ||(K R_alpha - Id) Y_bar|| drops below the estimated noise
level.  The optional emergency stop additionally exits as soon as
``alpha <= 1/n``, bounding the regularizer norm by sqrt(C_R C_F n) even when
the noise level is underestimated.  A priori rules pick alpha from the
estimated noise level and the source condition alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonTerminationError
from .filters import FilterSpec, residual_norm
from .spectral import CoefficientVector, SpectralDecomposition


@dataclass(frozen=True)
class ChoiceResult:
    """Outcome of a discrepancy-principle search.

    ``alpha`` equals q^k computed by repeated multiplication (bitwise the
    value the loop actually used).  When ``emergency_triggered`` is set the
    loop exited through the guard ``alpha > 1/n`` with the residual still
    above ``delta_est_used``.
    """

    alpha: float
    k: int
    residual_at_stop: float
    emergency_triggered: bool
    delta_est_used: float
    iterations_evaluated: int

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha,
            "k": self.k,
            "residual_at_stop": self.residual_at_stop,
            "emergency_triggered": self.emergency_triggered,
            "delta_est_used": self.delta_est_used,
            "iterations_evaluated": self.iterations_evaluated,
        })


def discrepancy_principle(
    op: SpectralDecomposition,
    spec: FilterSpec,
    y_bar: CoefficientVector,
    delta_est: float,
    q: float = 0.7,
    emergency_n: int | None = None,
    k_max: int = 10**6,
) -> ChoiceResult:
    """Largest alpha = q^k with residual <= delta_est, optionally floored.

    Starting at k = 0, alpha = 1, the loop runs while the residual exceeds
    ``delta_est`` and (when ``emergency_n`` is set) ``alpha > 1/emergency_n``;
    each pass multiplies alpha by q.  The emergency variant therefore returns
    the first alpha <= 1/n when the residual never drops below the estimate.
    Exhausting ``k_max`` raises: termination is a theorem only when the
    residual can actually fall below ``delta_est``, e.g. it cannot when the
    data has an orthogonal component larger than the estimate.
    """
    if not (delta_est > 0):
        raise InputError("delta_est must be positive")
    if not (0.0 < q < 1.0):
        raise InputError("q must lie in (0, 1)")
    if emergency_n is not None and emergency_n < 1:
        raise InputError("emergency_n must be a positive integer")

    guard = 1.0 / emergency_n if emergency_n is not None else None
    k = 0
    alpha = 1.0
    evaluations = 0
    while True:
        residual = residual_norm(op, spec, alpha, y_bar)
        evaluations += 1
        if residual <= delta_est:
            return ChoiceResult(alpha, k, residual, False, delta_est, evaluations)
        if guard is not None and not alpha > guard:
            return ChoiceResult(alpha, k, residual, True, delta_est, evaluations)
        if k >= k_max:
            raise NonTerminationError(
                f"discrepancy search did not stop within k_max={k_max} steps"
            )
        # in the subnormal range alpha * q can round back to alpha itself
        if alpha * q in (0.0, alpha):
            raise NonTerminationError(
                "alpha underflowed before the residual reached delta_est"
            )
        k += 1
        alpha *= q


@dataclass(frozen=True)
class AprioriRule:
    """alpha from the noise level alone: c (delta/rho)^{2/(nu+1)}, or 1/sqrt(n)."""

    variant: str
    c: float = 1.0
    nu: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if self.variant not in ("scaled_source", "inv_sqrt_n_alpha"):
            raise InputError(f"unknown a priori variant {self.variant!r}")
        if self.c <= 0 or self.nu <= 0 or self.rho <= 0:
            raise InputError("c, nu and rho must be positive")


def apriori_alpha(rule: AprioriRule, delta_est: float, n: int) -> float:
    """Evaluate an a priori rule; the result is clamped into (0, 1]."""
    if rule.variant == "inv_sqrt_n_alpha":
        if n < 1:
            raise InputError("n must be positive")
        return min(1.0, 1.0 / math.sqrt(n))
    if not (delta_est > 0):
        raise InputError("delta_est must be positive")
    alpha = rule.c * (delta_est / rule.rho) ** (2.0 / (rule.nu + 1.0))
    return min(1.0, alpha)


def theoretical_bounds(
    nu: float,
    rho: float,
    delta_est: float,
    delta_true: float,
    c_apriori: float = 1.0,
    l_dp: float = 1.0,
    c_classic: float = 1.0,
) -> dict:
    """Diagnostic error bounds with caller-supplied constants.

    ``apriori_rate`` = C' rho^{1/(nu+1)} delta_est^{nu/(nu+1)};
    ``dp_bound`` = L rho^{1/(nu+1)} max{delta_est^{nu/(nu+1)},
    delta_true^{nu/(nu+1)} (delta_true/delta_est)^{1/(nu+1)}};
    ``classic_bound`` = C rho^{1/(nu+1)} delta_true^{nu/(nu+1)} (the rate of a
    method knowing the true noise level, for comparison).
    """
    if min(nu, rho, delta_est, delta_true) <= 0:
        raise InputError("all bound inputs must be positive")
    rate = nu / (nu + 1.0)
    rho_part = rho ** (1.0 / (nu + 1.0))
    dp = max(
        delta_est**rate,
        delta_true**rate * (delta_true / delta_est) ** (1.0 / (nu + 1.0)),
    )
    return {
        "apriori_rate": c_apriori * rho_part * delta_est**rate,
        "dp_bound": l_dp * rho_part * dp,
        "classic_bound": c_classic * rho_part * delta_true**rate,
    }
