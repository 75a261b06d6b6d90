import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avereg.errors import ConfigurationError, InputError
from avereg.filters import (
    FilterSpec,
    apply_regularizer,
    filter_value,
    residual_factor,
    residual_norm,
    verify_filter_constants,
)
from avereg.spectral import (
    CoefficientVector,
    SourceCondition,
    SpectralDecomposition,
    counterexample_operator,
    synthesize_source,
)

ALL_SPECS = [
    FilterSpec.tikhonov(),
    FilterSpec.iterated_tikhonov(2),
    FilterSpec.iterated_tikhonov(3),
    FilterSpec.tsvd(),
    FilterSpec.landweber(),
]


# ---------------------------------------------------------------------------
# filter values


def test_tikhonov_value():
    assert filter_value(FilterSpec.tikhonov(), 1.0, 1.0) == pytest.approx(0.5)


def test_tsvd_branches():
    spec = FilterSpec.tsvd()
    assert filter_value(spec, 0.5, 0.25) == 0.0
    assert filter_value(spec, 0.25, 0.25) == pytest.approx(4.0)


def _iterated_tikhonov_oracle(order, alpha, sigma, y):
    # explicit recursion x_{j+1} = (sigma^2 + alpha)^{-1} (sigma y + alpha x_j)
    x = 0.0
    for _ in range(order):
        x = (sigma * y + alpha * x) / (sigma**2 + alpha)
    return x


def test_iterated_tikhonov_matches_recursion_oracle():
    oracle = _iterated_tikhonov_oracle(2, alpha=1.0, sigma=1.0, y=1.0)
    assert oracle == pytest.approx(0.75)
    # F relates to the recursion via x = F(sigma^2) sigma y
    assert filter_value(FilterSpec.iterated_tikhonov(2), 1.0, 1.0) == pytest.approx(0.75)
    for order in (1, 2, 5):
        for alpha in (1.0, 0.3, 0.01):
            for lam in (2.0, 0.5, 1e-4):
                sigma = math.sqrt(lam)
                oracle = _iterated_tikhonov_oracle(order, alpha, sigma, 1.0)
                value = filter_value(FilterSpec.iterated_tikhonov(order), alpha, lam)
                assert value * sigma == pytest.approx(oracle, rel=1e-12)


def test_iterated_tikhonov_tiny_alpha_runs_clean():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = residual_factor(FilterSpec.iterated_tikhonov(2), 1e-300, [1.0, 0.5])
    assert np.array_equal(factor, [0.0, 0.0])


def test_landweber_matches_explicit_iteration():
    # x_{k} after k Landweber steps on a 1x1 system equals F(lambda) sigma y
    a, alpha, sigma, y = 0.5, 0.26, 0.8, 1.0
    steps = math.ceil(1.0 / alpha)
    x = 0.0
    for _ in range(steps):
        x = x + a * sigma * (y - sigma * x)
    value = filter_value(FilterSpec.landweber(a), alpha, sigma**2)
    assert value * sigma == pytest.approx(x, rel=1e-12)


def test_filter_value_input_errors():
    with pytest.raises(InputError):
        filter_value(FilterSpec.tikhonov(), 0.0, 1.0)
    with pytest.raises(InputError):
        filter_value(FilterSpec.tikhonov(), 1.0, -1.0)


def test_landweber_divergent_configuration():
    with pytest.raises(ConfigurationError):
        filter_value(FilterSpec.landweber(2.0), 0.5, 1.0)


def test_filter_spec_validation_and_config_round_trip():
    with pytest.raises(InputError):
        FilterSpec("unknown")
    with pytest.raises(InputError):
        FilterSpec.iterated_tikhonov(0)
    with pytest.raises(InputError):
        FilterSpec.landweber(0.0)
    for spec in ALL_SPECS:
        assert FilterSpec.from_config(spec.to_config()) == spec
    with pytest.raises(InputError):
        FilterSpec.from_config({"kind": "tikhonov", "bogus": 1})


# ---------------------------------------------------------------------------
# regularizer application


def test_apply_regularizer_tsvd_keeps_large_levels():
    op = SpectralDecomposition([1.0, 0.1])
    sol = apply_regularizer(op, FilterSpec.tsvd(), 0.5, CoefficientVector([1.0, 1.0]))
    assert np.allclose(sol.x.coefficients, [1.0, 0.0])
    assert sol.residual == pytest.approx(1.0)


def test_tikhonov_small_alpha_recovers_inverse():
    op = SpectralDecomposition([1.0])
    sol = apply_regularizer(op, FilterSpec.tikhonov(), 1e-12, CoefficientVector([1.0]))
    assert sol.x.coefficients[0] == pytest.approx(1.0, abs=1e-9)


def test_counterexample_tsvd_residual_by_direct_summation():
    op, direction = counterexample_operator(6)
    sol = apply_regularizer(op, FilterSpec.tsvd(), 1e-4, direction)
    # discarded levels are those with sigma_l^2 < alpha, i.e. l >= 3
    expected_sq = float(np.sum(direction.coefficients[2:] ** 2))
    assert expected_sq == pytest.approx(0.5 - 1.0 / 6.0)
    assert sol.residual**2 == pytest.approx(expected_sq)


def test_residual_norm_single_coefficient():
    op = SpectralDecomposition([1.0])
    res = residual_norm(op, FilterSpec.tikhonov(), 1.0, CoefficientVector([2.0]))
    assert res == pytest.approx(1.0)


def test_residual_norm_zero_data():
    op = SpectralDecomposition([1.0, 0.5])
    for spec in ALL_SPECS:
        assert residual_norm(op, spec, 0.3, CoefficientVector([0.0, 0.0])) == 0.0


def test_residual_vanishes_for_small_alpha_tsvd():
    op = SpectralDecomposition([1.0, 0.5, 0.25])
    y = CoefficientVector([1.0, 1.0, 1.0])
    assert residual_norm(op, FilterSpec.tsvd(), 1e-3, y) == pytest.approx(0.0)


def test_residual_includes_orthogonal_component():
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([1.0], orthogonal_norm=2.0)
    res = residual_norm(op, FilterSpec.tsvd(), 0.5, y)
    assert res == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    kind=st.integers(0, len(ALL_SPECS) - 1),
    log_alpha=st.floats(-8, 0),
    log_ratio=st.floats(-4, 0, exclude_max=True),
)
def test_residual_monotone_in_alpha(seed, kind, log_alpha, log_ratio):
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 12)
    sigma = np.sort(rng.uniform(1e-4, 1.0, size=m))[::-1]
    op = SpectralDecomposition(sigma)
    y = CoefficientVector(rng.standard_normal(m), orthogonal_norm=float(rng.uniform(0, 1)))
    beta = 10.0**log_alpha
    alpha = beta * 10.0**log_ratio  # alpha < beta
    spec = ALL_SPECS[kind]
    small = residual_norm(op, spec, alpha, y)
    large = residual_norm(op, spec, beta, y)
    assert small <= large * (1.0 + 1e-12) + 1e-300


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), log_alpha=st.floats(-8, 0))
def test_proposition_one_operator_norm_bound(seed, log_alpha):
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 12)
    sigma = np.sort(rng.uniform(1e-4, 1.0, size=m))[::-1]
    op = SpectralDecomposition(sigma)
    alpha = 10.0**log_alpha
    y = CoefficientVector(rng.standard_normal(m))
    for spec in ALL_SPECS:
        sol = apply_regularizer(op, spec, alpha, y)
        bound = math.sqrt(spec.c_r * spec.c_f) / math.sqrt(alpha)
        assert sol.operator_norm <= bound * (1.0 + 1e-12)


def test_proposition_two_bias_bound_on_alpha_grid():
    rng = np.random.default_rng(77)
    sigma = np.sort(rng.uniform(0.01, 1.0, size=20))[::-1]
    op = SpectralDecomposition(sigma)
    for spec in ALL_SPECS:
        nu = min(spec.qualification, 2.0)
        rho = 1.5
        w = rng.standard_normal(20)
        w *= rho / np.linalg.norm(w)
        x_hat, y_hat = synthesize_source(op, SourceCondition(nu, rho, w))
        c_nu = spec.c_nu(nu)
        for alpha in np.logspace(-8, 0, 25):
            sol = apply_regularizer(op, spec, float(alpha), y_hat)
            bias = np.linalg.norm(sol.x.coefficients - x_hat.coefficients)
            assert bias <= c_nu * rho * alpha ** (nu / 2.0) * (1.0 + 1e-9)


def test_pointwise_convergence_to_inverse():
    for spec in ALL_SPECS:
        for lam in (1.0, 0.3, 0.04):
            values = [filter_value(spec, alpha, lam) for alpha in (1e-2, 1e-5, 1e-9)]
            assert values[-1] == pytest.approx(1.0 / lam, rel=1e-6)
            assert values[0] <= values[-1] * (1 + 1e-12)


# ---------------------------------------------------------------------------
# constant verification


def test_verify_filter_constants_default_kinds_pass():
    for spec, nu in [
        (FilterSpec.tikhonov(), 2.0),
        (FilterSpec.iterated_tikhonov(2), 4.0),
        (FilterSpec.tsvd(), 20.0),
        (FilterSpec.landweber(), 20.0),
    ]:
        report = verify_filter_constants(spec, sigma_max=1.0, nu=nu)
        assert report.passed, report.violations
        assert report.monotone and report.range_ok
        assert not report.qualification_exceeded


def test_verify_filter_constants_flags_tampered_c_r():
    tampered = FilterSpec("tikhonov", c_r=0.5)
    report = verify_filter_constants(tampered, sigma_max=1.0, nu=2.0)
    assert not report.passed
    assert any("C_R" in violation for violation in report.violations)


def test_verify_filter_constants_flags_beyond_qualification():
    report = verify_filter_constants(FilterSpec.tikhonov(), sigma_max=1.0, nu=4.0)
    assert report.qualification_exceeded
    assert math.isinf(report.c_nu_declared)


def test_declared_constants_by_kind():
    assert FilterSpec.tikhonov().qualification == 2.0
    assert FilterSpec.iterated_tikhonov(3).qualification == 6.0
    assert FilterSpec.iterated_tikhonov(3).c_f == 3.0
    assert math.isinf(FilterSpec.tsvd().qualification)
    assert FilterSpec.landweber().c_f == 2.0
    with pytest.raises(InputError):
        FilterSpec.tikhonov().c_nu(0.0)
    assert math.isinf(FilterSpec.tikhonov().c_nu(3.0))
