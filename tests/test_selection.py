import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avereg.errors import InputError, NonTerminationError
from avereg.filters import FilterSpec, filter_value, residual_norm
from avereg.selection import (
    AprioriRule,
    apriori_alpha,
    discrepancy_principle,
    theoretical_bounds,
)
from avereg.spectral import (
    CoefficientVector,
    SpectralDecomposition,
    counterexample_operator,
)

KINDS = [
    FilterSpec.tikhonov(),
    FilterSpec.iterated_tikhonov(2),
    FilterSpec.tsvd(),
    FilterSpec.landweber(),
]


def _oracle_residual(op, spec, alpha, y):
    # independent evaluation straight from the definition
    total = y.orthogonal_norm**2
    for sigma, coef in zip(op.singular_values, y.coefficients):
        lam = sigma * sigma
        total += (1.0 - lam * filter_value(spec, alpha, lam)) ** 2 * coef**2
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# discrepancy principle


def test_immediate_stop_at_alpha_one():
    op = SpectralDecomposition([1.0])
    result = discrepancy_principle(op, FilterSpec.tikhonov(),
                                   CoefficientVector([2.0]), delta_est=1.0, q=0.5)
    # residual(alpha) = 2 alpha / (1 + alpha); residual(1) = 1 <= 1
    assert result.k == 0 and result.alpha == 1.0
    assert not result.emergency_triggered
    assert result.residual_at_stop == pytest.approx(1.0)


def test_single_step_matches_closed_form_residual():
    op = SpectralDecomposition([1.0])
    result = discrepancy_principle(op, FilterSpec.tikhonov(),
                                   CoefficientVector([2.0]), delta_est=0.9, q=0.5)
    # residual(1) = 1 > 0.9, residual(0.5) = 2/3 <= 0.9
    assert result.k == 1 and result.alpha == 0.5
    assert result.residual_at_stop == pytest.approx(2.0 / 3.0)
    assert result.iterations_evaluated == 2


def test_counterexample_forced_noise_selects_tiny_alpha():
    # with Y_bar equal to the noise direction and delta = 1/sqrt(4) = 1/2,
    # TSVD must resolve at least 3 levels before the residual drops below 1/2
    op, direction = counterexample_operator(6)
    result = discrepancy_principle(op, FilterSpec.tsvd(), direction,
                                   delta_est=0.5, q=0.5)
    assert result.alpha <= 1e-6
    assert result.alpha > 0.5e-6
    assert result.residual_at_stop <= 0.5


def test_counterexample_forced_noise_with_emergency_stop():
    op, direction = counterexample_operator(6)
    result = discrepancy_principle(op, FilterSpec.tsvd(), direction,
                                   delta_est=0.5, q=0.5, emergency_n=4)
    assert result.emergency_triggered
    assert 1.0 / 8.0 < result.alpha <= 1.0 / 4.0
    assert result.residual_at_stop > 0.5


def test_emergency_not_triggered_when_residual_drops_first():
    op = SpectralDecomposition([1.0])
    result = discrepancy_principle(op, FilterSpec.tikhonov(),
                                   CoefficientVector([2.0]), delta_est=0.9,
                                   q=0.5, emergency_n=100)
    assert not result.emergency_triggered
    assert result.alpha == 0.5


def test_alpha_is_repeated_multiplication():
    op = SpectralDecomposition([1.0])
    result = discrepancy_principle(op, FilterSpec.tikhonov(),
                                   CoefficientVector([2.0]), delta_est=0.05, q=0.7)
    alpha = 1.0
    for _ in range(result.k):
        alpha *= 0.7
    assert result.alpha == alpha  # bitwise


def test_non_termination_is_an_error():
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([0.0], orthogonal_norm=1.0)
    with pytest.raises(NonTerminationError):
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=0.5,
                              q=0.5, k_max=50)


def test_subnormal_alpha_stall_raises_promptly():
    # 0.7 * 5e-324 rounds back to 5e-324, so alpha stops shrinking there
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([1.0], orthogonal_norm=1.0)
    start = time.perf_counter()
    with pytest.raises(NonTerminationError):
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=0.5, q=0.7)
    assert time.perf_counter() - start < 1.0


def test_invalid_arguments():
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([1.0])
    with pytest.raises(InputError):
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=0.0)
    with pytest.raises(InputError):
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=1.0, q=1.0)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    kind=st.integers(0, len(KINDS) - 1),
    q=st.floats(0.3, 0.9),
)
def test_stop_certificate_fuzz(seed, kind, q):
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 15)
    sigma = np.sort(rng.uniform(0.05, 1.0, size=m))[::-1]
    op = SpectralDecomposition(sigma)
    y = CoefficientVector(rng.standard_normal(m))
    spec = KINDS[kind]
    res_at_one = residual_norm(op, spec, 1.0, y)
    if res_at_one == 0.0:
        return
    delta = res_at_one * rng.uniform(0.01, 0.99)
    result = discrepancy_principle(op, spec, y, delta, q=q)
    assert not result.emergency_triggered
    assert _oracle_residual(op, spec, result.alpha, y) <= delta * (1 + 1e-12)
    if result.k >= 1:
        previous = result.alpha / q
        assert _oracle_residual(op, spec, previous, y) > delta


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.integers(0, len(KINDS) - 1))
def test_larger_delta_never_increases_k(seed, kind):
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 10)
    sigma = np.sort(rng.uniform(0.05, 1.0, size=m))[::-1]
    op = SpectralDecomposition(sigma)
    y = CoefficientVector(rng.standard_normal(m))
    spec = KINDS[kind]
    res_at_one = residual_norm(op, spec, 1.0, y)
    if res_at_one == 0.0:
        return
    small = res_at_one * 0.05
    large = res_at_one * 0.5
    k_small = discrepancy_principle(op, spec, y, small).k
    k_large = discrepancy_principle(op, spec, y, large).k
    assert k_large <= k_small


def test_emergency_guard_bounds_alpha():
    # with the guard active, alpha always exceeds q/n
    op, direction = counterexample_operator(10)
    for n in (3, 10, 50):
        result = discrepancy_principle(op, FilterSpec.tsvd(), direction,
                                       delta_est=1e-6, q=0.7, emergency_n=n)
        assert result.alpha > 0.7 / n
        if result.emergency_triggered:
            assert result.alpha <= 1.0 / n


# ---------------------------------------------------------------------------
# a priori rules


def test_apriori_scaled_source_examples():
    rule = AprioriRule("scaled_source", c=1.0, nu=1.0, rho=1.0)
    assert apriori_alpha(rule, 1e-4, n=10) == pytest.approx(1e-4)
    rule = AprioriRule("scaled_source", c=1.0, nu=3.0, rho=2.0)
    assert apriori_alpha(rule, 1e-2, n=10) == pytest.approx(0.005**0.5)
    assert apriori_alpha(rule, 1e-2, n=10) == pytest.approx(0.07071, abs=1e-5)


def test_apriori_inv_sqrt_n():
    rule = AprioriRule("inv_sqrt_n_alpha")
    assert apriori_alpha(rule, 1.0, n=10**4) == pytest.approx(0.01)


def test_apriori_clamped_to_unit_interval():
    rule = AprioriRule("scaled_source", c=100.0, nu=1.0, rho=1.0)
    assert apriori_alpha(rule, 0.5, n=10) == 1.0


def test_apriori_validation():
    with pytest.raises(InputError):
        AprioriRule("bogus")
    with pytest.raises(InputError):
        AprioriRule("scaled_source", c=0.0)
    with pytest.raises(InputError):
        apriori_alpha(AprioriRule("scaled_source"), 0.0, n=10)


# ---------------------------------------------------------------------------
# theoretical bounds


def test_bounds_equal_deltas_attain_max_at_equality():
    bounds = theoretical_bounds(1.0, 1.0, 0.01, 0.01)
    assert bounds["dp_bound"] == pytest.approx(0.01**0.5)
    assert bounds["dp_bound"] == pytest.approx(bounds["classic_bound"])


def test_bounds_underestimation_branch():
    bounds = theoretical_bounds(1.0, 1.0, 0.01, 0.02)
    assert bounds["dp_bound"] == pytest.approx(0.2)
    assert bounds["apriori_rate"] == pytest.approx(0.1)


def test_bounds_exponent_monotone_in_nu():
    # nu/(nu+1) increases towards 1: larger nu gives a smaller bound for delta<1
    values = [theoretical_bounds(nu, 1.0, 0.01, 0.01)["dp_bound"]
              for nu in (1.0, 3.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    with pytest.raises(InputError):
        theoretical_bounds(1.0, 1.0, 0.0, 0.01)


def test_choice_result_json_round_trip():
    import json

    op = SpectralDecomposition([1.0])
    result = discrepancy_principle(op, FilterSpec.tikhonov(),
                                   CoefficientVector([2.0]), delta_est=0.9, q=0.5)
    payload = json.loads(result.to_json())
    assert payload["k"] == 1
    assert payload["alpha"] == 0.5
    assert payload["emergency_triggered"] is False
