"""Regularization-parameter choice rules.

The discrepancy principle walks alpha down the geometric grid q^0, q^1, ...
until the residual ||(K R_alpha - Id) Y_bar|| drops below the estimated noise
level.  The optional emergency stop additionally exits as soon as
``alpha <= 1/n``, bounding the regularizer norm by sqrt(C_R C_F n) even when
the noise level is underestimated.  A priori rules pick alpha from the
estimated noise level and the source condition alone: ``apriori_alpha``
takes the estimate and the floats c, nu and rho of the formula.

The search runs over rows: data vectors, each with its own noise estimate,
walk one grid together in blocks of consecutive alphas, one
``residual_norm`` call per block for the rows still searching, and a row
stops at the first alpha of a block that meets a stop condition.  The
alphas are built by the same repeated multiplication and each residual is
bitwise the one-at-a-time value, so each row's choice is exactly that of a
search of it alone stepping one alpha at a time; residuals computed past
the stop within a block are discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonTerminationError
from .filters import FilterSpec, residual_norm
from .spectral import CoefficientVector, SpectralDecomposition

#: grid points per residual_norm call in the discrepancy search
_BLOCK = 32
#: the last k a discrepancy search evaluates
_K_MAX = 10**6


@dataclass(frozen=True)
class ChoiceResult:
    """Outcome of a discrepancy-principle search.

    ``alpha`` equals q^k computed by repeated multiplication (bitwise the
    value the loop actually used).  When ``emergency_triggered`` is set the
    loop exited through the guard ``alpha > 1/n`` with the residual still
    above the noise estimate.  An a priori choice is reported with k = -1.
    """

    alpha: float
    k: int
    emergency_triggered: bool


def discrepancy_principle(op: SpectralDecomposition, spec: FilterSpec, y_bar, delta_est,
                          q: float = 0.7, emergency_n: int | None = None):
    """Largest alpha = q^k with residual <= delta_est, optionally floored.

    Starting at k = 0, alpha = 1, the loop runs while the residual exceeds
    ``delta_est`` and (when ``emergency_n`` is set) ``alpha > 1/emergency_n``;
    each pass multiplies alpha by q.  The emergency variant therefore returns
    the first alpha <= 1/n when the residual never drops below the estimate.
    Exhausting ``_K_MAX`` steps raises: termination is a theorem only when the
    residual can actually fall below ``delta_est``.  The residual is never
    below the data's component outside the range, so without the emergency
    stop a search whose ``y_bar.orthogonal_norm`` exceeds ``delta_est`` raises
    before its first evaluation.

    A sequence of CoefficientVectors with one estimate each gives one
    ChoiceResult per row, or the NonTerminationError its vector alone raises.
    """
    if isinstance(y_bar, CoefficientVector):
        [choice] = discrepancy_principle(op, spec, [y_bar], [delta_est], q, emergency_n)
        if isinstance(choice, NonTerminationError):
            raise choice
        return choice
    if not all(delta > 0 for delta in delta_est):
        raise InputError("delta_est must be positive")
    if not (0.0 < q < 1.0):
        raise InputError("q must lie in (0, 1)")
    if emergency_n is not None and emergency_n < 1:
        raise InputError("emergency_n must be a positive integer")

    outside = "the data component outside the operator's range exceeds delta_est"
    results = [NonTerminationError(outside)
               if emergency_n is None and row.orthogonal_norm > delta else None
               for row, delta in zip(y_bar, delta_est)]
    searching = [i for i, result in enumerate(results) if result is None]
    guard = 1.0 / emergency_n if emergency_n is not None else None
    k0, alpha = 0, 1.0
    while searching:
        # grid points k0, k0 + 1, ... up to the block size or the point after
        # which a search that never meets delta_est would raise
        alphas = np.multiply.accumulate([alpha] + [q] * min(_BLOCK - 1, _K_MAX - k0))
        # in the subnormal range alpha * q can round back to alpha itself
        stuck = np.flatnonzero((alphas * q == 0.0) | (alphas * q == alphas))
        alphas = alphas[:stuck[0] + 1] if stuck.size else alphas
        end = "alpha underflowed before the residual reached delta_est" if stuck.size else None
        if k0 + len(alphas) > _K_MAX:  # at the same point the k_max message wins
            end = f"discrepancy search did not stop within k_max={_K_MAX} steps"
        residuals = residual_norm(op, spec, alphas, [y_bar[i] for i in searching])
        met = residuals <= np.array([delta_est[i] for i in searching])[:, None]
        stops = met if guard is None else met | ~(alphas > guard)
        rows = zip(searching, stops.any(axis=1).tolist(), np.argmax(stops, axis=1).tolist())
        for j, (i, stopped, first) in enumerate(rows):
            if stopped:
                results[i] = ChoiceResult(float(alphas[first]), k0 + first, not met[j, first])
            elif end is not None:
                results[i] = NonTerminationError(end)
        searching = [i for i in searching if results[i] is None]
        k0 += _BLOCK
        alpha = alphas[-1] * q
    return results


def apriori_alpha(delta_est: float, c: float = 1.0, nu: float = 1.0, rho: float = 1.0) -> float:
    """``c (delta_est/rho)^{2/(nu+1)}`` clamped into (0, 1]: the
    ``scaled_source`` choice.

    Where the formula overflows or underflows to 0 in floats, it is evaluated
    in logs and clamped into [2^-1074, 1].  At the default floats c = nu =
    rho = 1 it is ``delta_est`` bit for bit: ``solve_rule`` passes none of
    them for ``inv_sqrt_n_alpha`` and pins its estimate to 1/sqrt(n), which
    makes alpha 1/sqrt(n).
    """
    if not (delta_est > 0):
        raise InputError("delta_est must be positive")
    if not (c > 0 and nu > 0 and rho > 0):  # NaN is not positive
        raise InputError("c, nu and rho must be positive")
    power = 2.0 / (nu + 1.0)
    try:
        alpha = c * (delta_est / rho) ** power
    except OverflowError:
        alpha = math.inf
    if not 0.0 < alpha < math.inf:
        log_alpha = math.log(c) + power * (math.log(delta_est) - math.log(rho))
        alpha = max(math.ulp(0.0), math.exp(min(log_alpha, 0.0)))
    return min(1.0, alpha)
