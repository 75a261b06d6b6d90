import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avereg import filters, selection
from avereg.errors import AveregError, InputError, NonTerminationError
from avereg.filters import FilterSpec, apply_regularizer, filter_value, residual_norm
from avereg.selection import (
    ChoiceResult,
    apriori_alpha,
    discrepancy_principle,
)
from avereg.spectral import (
    CoefficientVector,
    SpectralDecomposition,
    counterexample_operator,
)
from conftest import row_residual

KINDS = [
    FilterSpec.tikhonov(),
    FilterSpec("iterated_tikhonov", order=2),
    FilterSpec("tsvd"),
    FilterSpec("landweber", relaxation=0.9),
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
    assert row_residual(op, FilterSpec.tikhonov(), result.alpha,
                        CoefficientVector([2.0])) == pytest.approx(1.0)


def test_single_step_matches_closed_form_residual():
    op = SpectralDecomposition([1.0])
    result = discrepancy_principle(op, FilterSpec.tikhonov(),
                                   CoefficientVector([2.0]), delta_est=0.9, q=0.5)
    # residual(1) = 1 > 0.9, residual(0.5) = 2/3 <= 0.9
    assert result.k == 1 and result.alpha == 0.5
    assert row_residual(op, FilterSpec.tikhonov(), result.alpha,
                        CoefficientVector([2.0])) == pytest.approx(2.0 / 3.0)


def test_counterexample_forced_noise_selects_tiny_alpha():
    # with Y_bar equal to the noise direction and delta = 1/sqrt(4) = 1/2,
    # TSVD must resolve at least 3 levels before the residual drops below 1/2
    op, direction = counterexample_operator(6)
    result = discrepancy_principle(op, FilterSpec("tsvd"), CoefficientVector(direction),
                                   delta_est=0.5, q=0.5)
    assert result.alpha <= 1e-6
    assert result.alpha > 0.5e-6
    assert row_residual(op, FilterSpec("tsvd"), result.alpha,
                        CoefficientVector(direction)) <= 0.5


def test_counterexample_forced_noise_with_emergency_stop():
    op, direction = counterexample_operator(6)
    result = discrepancy_principle(op, FilterSpec("tsvd"), CoefficientVector(direction),
                                   delta_est=0.5, q=0.5, emergency_n=4)
    assert result.emergency_triggered
    assert 1.0 / 8.0 < result.alpha <= 1.0 / 4.0
    assert row_residual(op, FilterSpec("tsvd"), result.alpha,
                        CoefficientVector(direction)) > 0.5


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


def test_non_termination_is_an_error(monkeypatch):
    monkeypatch.setattr(selection, "_K_MAX", 50)
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([0.0], orthogonal_norm=1.0)
    with pytest.raises(NonTerminationError):
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=0.5, q=0.5)


def test_subnormal_alpha_stall_raises_promptly():
    # 0.7 * 5e-324 rounds back to 5e-324, so alpha stops shrinking there
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([1.0], orthogonal_norm=1.0)
    start = time.perf_counter()
    with pytest.raises(NonTerminationError):
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=0.5, q=0.7)
    assert time.perf_counter() - start < 1.0


def test_search_that_cannot_stop_raises_before_evaluating(monkeypatch):
    import avereg.selection as selection

    calls = []
    original = selection.residual_norm
    monkeypatch.setattr(selection, "residual_norm",
                        lambda *args: calls.append(1) or original(*args))
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([1.0], orthogonal_norm=1.0)
    with pytest.raises(NonTerminationError, match="outside the operator's range") as excinfo:
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=0.5, q=0.7)
    assert calls == []
    # the emergency stop still ends such a search at alpha <= 1/n
    result = discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=0.5,
                                   q=0.7, emergency_n=4)
    assert result.emergency_triggered and result.alpha <= 0.25


def test_subnormal_alpha_stall_with_a_tiny_singular_value_raises():
    # lambda = 1e-320 keeps the Tikhonov residual factor near 5e-4 at the
    # stalled alpha = 5e-324, far above delta / |y| = 5e-7
    op = SpectralDecomposition([1e-160])
    y = CoefficientVector([1e6])
    with pytest.raises(NonTerminationError, match="underflowed") as excinfo:
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=0.5, q=0.7)


def test_invalid_arguments():
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([1.0])
    with pytest.raises(InputError):
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=0.0)
    with pytest.raises(InputError):
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=1.0, q=1.0)
    with pytest.raises(InputError, match="emergency_n must be a positive integer"):
        discrepancy_principle(op, FilterSpec.tikhonov(), y, delta_est=1.0, emergency_n=0)


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
    res_at_one = row_residual(op, spec, 1.0, y)
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
    res_at_one = row_residual(op, spec, 1.0, y)
    if res_at_one == 0.0:
        return
    small = res_at_one * 0.05
    large = res_at_one * 0.5
    k_small = discrepancy_principle(op, spec, y, small).k
    k_large = discrepancy_principle(op, spec, y, large).k
    assert k_large <= k_small


# ---------------------------------------------------------------------------
# the blocked search against a search that steps one alpha at a time


def _reference_search(op, spec, y, delta_est, q, emergency_n=None):
    """The discrepancy search as a plain loop, one residual_norm call per alpha."""
    k_max = selection._K_MAX
    if emergency_n is None and y.orthogonal_norm > delta_est:
        raise NonTerminationError(
            "the data component outside the operator's range exceeds delta_est")
    guard = None if emergency_n is None else 1.0 / emergency_n
    k, alpha = 0, 1.0
    while True:
        residual = row_residual(op, spec, alpha, y)
        if residual <= delta_est:
            return ChoiceResult(alpha, k, False)
        if guard is not None and not alpha > guard:
            return ChoiceResult(alpha, k, True)
        if k >= k_max:
            raise NonTerminationError(
                f"discrepancy search did not stop within k_max={k_max} steps")
        if alpha * q in (0.0, alpha):
            raise NonTerminationError(
                "alpha underflowed before the residual reached delta_est")
        k += 1
        alpha *= q


def _outcome(search, *args, **kwargs):
    """A search's result or error as a tuple compared bit for bit."""
    try:
        choice = search(*args, **kwargs)
    except AveregError as exc:
        return (type(exc).__name__, str(exc))
    assert type(choice.alpha) is float and type(choice.emergency_triggered) is bool
    return (choice.alpha.hex(), choice.k, choice.emergency_triggered)


def _assert_same_search(*args, **kwargs):
    blocked = _outcome(discrepancy_principle, *args, **kwargs)
    assert blocked == _outcome(_reference_search, *args, **kwargs)
    return blocked


@pytest.mark.parametrize("spec", KINDS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("q", [0.1, 0.5, 0.7, 0.9, 0.97])
def test_blocked_search_matches_one_alpha_at_a_time(spec, q):
    rng = np.random.default_rng(int(q * 100))
    for _ in range(25):
        m = int(rng.integers(1, 120))
        sigma = np.sort(10.0 ** rng.uniform(-rng.uniform(0, 10), 0, size=m))[::-1]
        op = SpectralDecomposition(sigma)
        orthogonal = float(rng.choice([0.0, 1e-4 * rng.uniform()]))
        y = CoefficientVector(rng.standard_normal(m), orthogonal)
        delta = float(np.linalg.norm(y.coefficients) * 10.0 ** rng.uniform(-7, 0.3))
        emergency_n = None if rng.uniform() < 0.5 else int(10.0 ** rng.uniform(0, 7))
        _assert_same_search(op, spec, y, delta, q, emergency_n=emergency_n)


@pytest.mark.parametrize("target", [0, 1, 30, 31, 32, 33, 63, 64, 65, 100])
def test_blocked_search_stops_at_block_edges(target):
    # residual(alpha) = 2 alpha / (alpha + 1) falls strictly, so delta equal
    # to the residual at q^target stops exactly there
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([2.0])
    alpha = 1.0
    for _ in range(target):
        alpha *= 0.7
    delta = row_residual(op, FilterSpec.tikhonov(), alpha, y)
    outcome = _assert_same_search(op, FilterSpec.tikhonov(), y, delta, 0.7)
    assert outcome[1] == target


@pytest.mark.parametrize("n", [1, 2, 1000, 10**6, 10**9])
def test_blocked_search_emergency_guard_inside_a_block(n):
    # the residual never reaches delta: the guard alpha <= 1/n ends the search
    op = SpectralDecomposition([1.0, 0.3])
    y = CoefficientVector([1.0, 1.0], orthogonal_norm=1.0)
    outcome = _assert_same_search(op, FilterSpec.tikhonov(), y, 0.5, 0.7, emergency_n=n)
    assert outcome[2] is True


@pytest.mark.parametrize("k_max", [0, 1, 20, 31, 32, 33, 40, 64])
def test_blocked_search_k_max_inside_a_block(k_max, monkeypatch):
    # delta met never, one step too late, or exactly at k_max
    monkeypatch.setattr(selection, "_K_MAX", k_max)
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([1.0])
    spec = FilterSpec.tikhonov()
    alphas = [1.0]
    for _ in range(k_max + 1):
        alphas.append(alphas[-1] * 0.7)
    late = row_residual(op, spec, alphas[k_max + 1], y)
    for delta in (1e-300, late):
        outcome = _assert_same_search(op, spec, y, delta, 0.7)
        assert outcome[0] == "NonTerminationError" and f"k_max={k_max}" in outcome[1]
    in_time = row_residual(op, spec, alphas[k_max], y)
    assert _assert_same_search(op, spec, y, in_time, 0.7)[1] == k_max


@pytest.mark.parametrize("spec", KINDS, ids=lambda spec: spec.name)
def test_blocked_search_down_to_the_subnormal_range(spec):
    # lambda = 1e-320: Tikhonov stalls at alpha = 5e-324 and raises; the
    # other kinds stop on a subnormal alpha.  Landweber stops where 1/alpha
    # overflows to inf steps, which used to raise OverflowError
    op = SpectralDecomposition([1e-160])
    y = CoefficientVector([1e6])
    outcome = _assert_same_search(op, spec, y, 0.5, 0.7)
    if spec.kind == "tikhonov":
        assert outcome[0] == "NonTerminationError" and "underflowed" in outcome[1]
    else:
        assert float.fromhex(outcome[0]) < 2.0**-1022


def test_blocked_search_rejects_an_underflowing_spectrum():
    # sigma_l^2 = 10^-2l of the counterexample is 0 from l = 162 on, where no
    # filter is defined: the spectrum is rejected before any search runs
    with pytest.raises(InputError, match="singular value 162 of 300 .* squares to 0"):
        SpectralDecomposition(10.0 ** -np.arange(1.0, 301.0))
    with pytest.raises(InputError, match="beyond m = 161"):
        counterexample_operator(162)
    # at m = 161 the smallest square is subnormal, and both searches agree
    op, direction = counterexample_operator(161)
    assert 0 < op.singular_values[-1] ** 2 < 2.0**-1022
    _assert_same_search(op, FilterSpec("tsvd"), CoefficientVector(direction), 0.5, 0.5)


def test_emergency_guard_bounds_alpha():
    # with the guard active, alpha always exceeds q/n
    op, direction = counterexample_operator(10)
    for n in (3, 10, 50):
        result = discrepancy_principle(op, FilterSpec("tsvd"), CoefficientVector(direction),
                                       delta_est=1e-6, q=0.7, emergency_n=n)
        assert result.alpha > 0.7 / n
        if result.emergency_triggered:
            assert result.alpha <= 1.0 / n


def _row(result):
    """A stacked search's row as the tuple ``_outcome`` makes of a single search."""
    if isinstance(result, NonTerminationError):
        return (type(result).__name__, str(result))
    return _outcome(lambda: result)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    kind=st.integers(0, len(KINDS) - 1),
    rows=st.integers(1, 40),
    q=st.floats(0.1, 0.95),
    emergency=st.booleans(),
    k_max=st.sampled_from([2, 40, 10**6]),
    chunk=st.sampled_from([1, 7, 1 << 15]),
)
def test_stacked_search_and_solution_equal_one_row_at_a_time_bitwise(seed, kind, rows, q,
                                                                     emergency, k_max, chunk):
    rng = np.random.default_rng(seed)
    spec = KINDS[kind]
    m = int(rng.integers(1, 120))
    op = SpectralDecomposition(np.sort(10.0 ** rng.uniform(-rng.uniform(0, 6), 0, size=m))[::-1])
    # some rows hold a component outside the range above their delta, and at
    # the smallest k_max many searches run out of steps
    ys = [CoefficientVector(rng.standard_normal(m) * 10.0 ** rng.uniform(-2, 1),
                            float(rng.choice([0.0, 10.0 ** rng.uniform(-4, 0)])))
          for _ in range(rows)]
    deltas = [float(np.linalg.norm(y.coefficients) * 10.0 ** rng.uniform(-6, 0.3)) or 1.0
              for y in ys]
    n = int(rng.integers(1, 10**6)) if emergency else None
    # a small chunk splits each kernel call into chunks of rows, down to one row
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filters, "_CHUNK", chunk)
        patch.setattr(selection, "_K_MAX", k_max)
        stacked = discrepancy_principle(op, spec, ys, deltas, q=q, emergency_n=n)
        singles = [_outcome(discrepancy_principle, op, spec, y, delta, q=q, emergency_n=n)
                   for y, delta in zip(ys, deltas)]
        assert [_row(result) for result in stacked] == singles

        chosen = [i for i, result in enumerate(stacked) if isinstance(result, ChoiceResult)]
        stops = [stacked[i].alpha for i in chosen]
        solutions = apply_regularizer(op, spec, stops, [ys[i] for i in chosen])
        for i, solution in zip(chosen, solutions):
            single = apply_regularizer(op, spec, stacked[i].alpha, ys[i])
            assert solution.tobytes() == single.x.tobytes()

        # a block of alphas is shared by every row, each row bitwise its lone
        # residuals; a column of alphas is an error, and no row gives no residual
        alphas = 10.0 ** rng.uniform(-8, 0, size=rows)
        block = residual_norm(op, spec, alphas, ys)
        assert [[r.hex() for r in row] for row in block.tolist()] == \
            [[r.hex() for r in row_residual(op, spec, alphas, y).tolist()] for y in ys]
        with pytest.raises(InputError, match="alpha must be positive, a float or a 1-D array"):
            residual_norm(op, spec, alphas[:, None], ys)
        assert residual_norm(op, spec, alphas, []).shape == (0, rows)


# ---------------------------------------------------------------------------
# a priori rules


def test_apriori_scaled_source_examples():
    assert apriori_alpha(1e-4, c=1.0, nu=1.0, rho=1.0) == pytest.approx(1e-4)
    assert apriori_alpha(1e-2, c=1.0, nu=3.0, rho=2.0) == pytest.approx(0.005**0.5)
    assert apriori_alpha(1e-2, c=1.0, nu=3.0, rho=2.0) == pytest.approx(0.07071, abs=1e-5)


def test_apriori_inv_sqrt_n():
    # the formula at its defaults c = nu = rho = 1 on the estimate 1/sqrt(n)
    for n in (1, 2, 10**4, 10**9):
        assert apriori_alpha(1.0 / math.sqrt(n)) == min(1.0, 1.0 / math.sqrt(n))


def test_apriori_clamped_to_unit_interval():
    assert apriori_alpha(0.5, c=100.0, nu=1.0, rho=1.0) == 1.0
    # (delta/rho)^(2/(nu+1)) overflows a float: it used to raise OverflowError
    assert apriori_alpha(0.5, nu=1e-3, rho=1e-300) == 1.0
    # ... and underflows to 0, which no filter takes
    assert apriori_alpha(0.5, nu=1e-3, rho=1e308) == math.ulp(0.0)
    # an overflowing power times a tiny c is evaluated in logs, not clamped
    expected = math.exp(math.log(5e-324) + 2.0 / 1.001 * math.log(1e160))
    assert 1e-5 < expected < 1e-3
    assert apriori_alpha(1.0, c=5e-324, nu=1e-3, rho=1e-160) == pytest.approx(expected, rel=1e-12)


def test_apriori_validation():
    for setting in ({"c": 0.0}, {"nu": -1.0}, {"rho": 0.0}):
        with pytest.raises(InputError, match="c, nu and rho must be positive"):
            apriori_alpha(0.5, **setting)
    with pytest.raises(InputError, match="delta_est must be positive"):
        apriori_alpha(0.0)


# ---------------------------------------------------------------------------
# theoretical bounds


def theoretical_bounds(nu, rho, delta_est, delta_true):
    """The paper's error bounds with unit constants: the a priori rate
    rho^{1/(nu+1)} delta_est^{nu/(nu+1)}, the discrepancy-principle bound
    rho^{1/(nu+1)} max{delta_est^{nu/(nu+1)}, delta_true^{nu/(nu+1)}
    (delta_true/delta_est)^{1/(nu+1)}}, and the classic rate
    rho^{1/(nu+1)} delta_true^{nu/(nu+1)} of a method that knows the noise level."""
    rate = nu / (nu + 1.0)
    rho_part = rho ** (1.0 / (nu + 1.0))
    dp = max(delta_est**rate, delta_true**rate * (delta_true / delta_est) ** (1.0 / (nu + 1.0)))
    return {"apriori_rate": rho_part * delta_est**rate, "dp_bound": rho_part * dp,
            "classic_bound": rho_part * delta_true**rate}


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


def test_choice_result_fields():
    op = SpectralDecomposition([1.0])
    result = discrepancy_principle(op, FilterSpec.tikhonov(),
                                   CoefficientVector([2.0]), delta_est=0.9, q=0.5)
    assert result.k == 1
    assert result.alpha == 0.5
    assert result.emergency_triggered is False
