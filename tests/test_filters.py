import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avereg import filters
from avereg.errors import ConfigError, InputError
from avereg.filters import (
    FilterSpec,
    apply_regularizer,
    filter_value,
    residual_factor,
    residual_norm,
    verify_filter_constants,
)
from avereg.measurements import BinaryOptionParams, CoefficientGaussian, HeavyTailed, draw_batch
from avereg.rng import pareto_from_uniforms
from avereg.selection import AprioriRule
from avereg.spectral import CoefficientVector, SpectralDecomposition, counterexample_operator
from avereg.study import solve_settings
from conftest import row_residual

ALL_SPECS = [
    FilterSpec.tikhonov(),
    FilterSpec("iterated_tikhonov", order=2),
    FilterSpec("iterated_tikhonov", order=3),
    FilterSpec("tsvd"),
    FilterSpec("landweber", relaxation=0.9),
]


# ---------------------------------------------------------------------------
# filter values


def test_tikhonov_value():
    assert filter_value(FilterSpec.tikhonov(), 1.0, 1.0) == pytest.approx(0.5)


def test_tsvd_branches():
    spec = FilterSpec("tsvd")
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
    assert filter_value(FilterSpec("iterated_tikhonov", order=2), 1.0, 1.0) == pytest.approx(0.75)
    for order in (1, 2, 5):
        for alpha in (1.0, 0.3, 0.01):
            for lam in (2.0, 0.5, 1e-4):
                sigma = math.sqrt(lam)
                oracle = _iterated_tikhonov_oracle(order, alpha, sigma, 1.0)
                value = filter_value(FilterSpec("iterated_tikhonov", order=order), alpha, lam)
                assert value * sigma == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 10])
def test_iterated_tikhonov_closed_form_matches_exact_rationals(order):
    # F = (1 - (alpha / (alpha + lam))^order) / lam, exact in the rationals the
    # floats stand for; the closed form stays within 1e-15 relative of it
    lam = np.logspace(-12, 0, 60)
    alphas = np.logspace(-8, 0, 40)
    values = filter_value(FilterSpec("iterated_tikhonov", order=order), alphas, lam)
    worst = Fraction(0)
    for alpha, row in zip(alphas.tolist(), values.tolist(), strict=True):
        for lam_j, value in zip(lam.tolist(), row, strict=True):
            a, x = Fraction(alpha), Fraction(lam_j)
            exact = (1 - (a / (a + x)) ** order) / x
            worst = max(worst, abs(Fraction(value) - exact) / exact)
    assert worst < Fraction(1, 10**15)


@pytest.mark.parametrize("lam", [5e-324, 1e-310, 1e-300])
def test_power_form_at_underflowing_t_matches_exact_rationals(lam):
    # t = lam / (alpha + lam) or a lam is subnormal or 0 at the two smaller
    # lambdas; F is (1 - (1 - t)^p) / lam with t exact in the rationals
    x = Fraction(lam)
    cases = []
    for alpha in (0.5, 2.0):
        a = Fraction(alpha)
        cases += [(FilterSpec("iterated_tikhonov", order=order), alpha,
                   (1 - (a / (a + x)) ** order) / x) for order in range(1, 11)]
    cases += [(FilterSpec("landweber", relaxation=0.9), 1.0 / k,
               (1 - (1 - Fraction(0.9) * x) ** k) / x) for k in range(1, 11)]
    for spec, alpha, exact in cases:
        value = filter_value(spec, alpha, lam)
        assert abs(Fraction(value) - exact) / exact < Fraction(1, 10**15), (spec, alpha)


def test_power_form_where_t_rounds_to_zero():
    # t = 5e-324 / 2 rounds to 0, and 1 - (1 - t)^2 with it
    assert filter_value(FilterSpec("iterated_tikhonov", order=2), 2.0, 5e-324) == 1.0


def test_power_form_keeps_its_bits_where_t_is_normal():
    lam = np.logspace(-320, 0, 65)
    alphas = np.logspace(-8, 2, 11)[:, None]
    for spec in (FilterSpec("iterated_tikhonov", order=3), FilterSpec("landweber", relaxation=0.9)):
        t = lam / (alphas + lam) if spec.kind == "iterated_tikhonov" else 0.9 * lam
        p = 3.0 if spec.kind == "iterated_tikhonov" else np.ceil(1.0 / alphas)
        power_form = -np.expm1(p * np.log1p(-t)) / lam
        values = filter_value(spec, alphas[:, 0], lam)
        normal = np.broadcast_to(t >= 2.0**-1022, values.shape)
        assert normal.any() and not normal.all()
        assert np.array_equal(values[normal], power_form[normal])


def test_iterated_tikhonov_tiny_alpha_runs_clean():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = residual_factor(FilterSpec("iterated_tikhonov", order=2), 1e-300, [1.0, 0.5])
    assert np.array_equal(factor, [0.0, 0.0])


def test_landweber_matches_explicit_iteration():
    # x_{k} after k Landweber steps on a 1x1 system equals F(lambda) sigma y
    a, alpha, sigma, y = 0.5, 0.26, 0.8, 1.0
    steps = math.ceil(1.0 / alpha)
    x = 0.0
    for _ in range(steps):
        x = x + a * sigma * (y - sigma * x)
    value = filter_value(FilterSpec("landweber", relaxation=a), alpha, sigma**2)
    assert value * sigma == pytest.approx(x, rel=1e-12)


def test_filter_value_input_errors():
    with pytest.raises(InputError):
        filter_value(FilterSpec.tikhonov(), 0.0, 1.0)
    with pytest.raises(InputError):
        filter_value(FilterSpec.tikhonov(), 1.0, -1.0)


_NAN = math.nan
_BINOPT = BinaryOptionParams.default(8)


# each check must read NaN as not positive: NaN <= 0 is False
@pytest.mark.parametrize("build", [
    lambda: FilterSpec.tikhonov().c_nu(_NAN),
    lambda: FilterSpec("landweber", relaxation=0.9).c_nu(_NAN),
    lambda: verify_filter_constants(FilterSpec.tikhonov(), _NAN),
    lambda: AprioriRule("scaled_source", c=_NAN),
    lambda: AprioriRule("scaled_source", nu=_NAN),
    lambda: AprioriRule("scaled_source", rho=_NAN),
    lambda: CoefficientGaussian(_NAN),
    lambda: HeavyTailed(0.5, _NAN, 0.0, np.ones(3)),
    lambda: dataclasses.replace(_BINOPT, s0_grid=[1.0, _NAN, 3.0]),
    lambda: pareto_from_uniforms(np.array([0.5]), 0.5, _NAN, 0.0),
], ids=["c_nu", "landweber c_nu", "verify nu", "apriori c", "apriori nu", "apriori rho",
        "coefficient scale", "heavy-tailed scale", "s0_grid", "pareto scale"])
def test_nan_is_not_positive(build):
    with pytest.raises(InputError, match="positive"):
        build()


@pytest.mark.parametrize("shape, location, name", [
    (_NAN, 0.0, "shape"), (math.inf, 0.0, "shape"),
    (0.5, _NAN, "location"), (0.5, -math.inf, "location"),
])
def test_heavy_tailed_non_finite_parameter_is_named(shape, location, name):
    with pytest.raises(InputError, match=f"generalized Pareto {name} must be finite"):
        draw_batch(HeavyTailed(shape, 1.0, location, np.ones(3)), np.zeros(3), 10, 1)


def test_landweber_divergent_configuration():
    with pytest.raises(InputError, match="divergent"):
        filter_value(FilterSpec("landweber", relaxation=2.0), 0.5, 1.0)


def _from_config(section):
    """The FilterSpec of a config's filter section, as a study or solve builds it."""
    return solve_settings(section, {"name": "dp"}, {"name": "sample_std"})[0]


def test_filter_spec_validation_and_config_round_trip():
    with pytest.raises(InputError):
        FilterSpec("unknown")
    with pytest.raises(InputError):
        FilterSpec("iterated_tikhonov", order=0)
    for order in (2.5, True):  # 2.5 used to build and fail on first use
        with pytest.raises(InputError, match="order must be an integer"):
            FilterSpec("iterated_tikhonov", order=order)
    with pytest.raises(InputError):
        FilterSpec("landweber", relaxation=0.0)
    # a setting the kind ignores is an error, not a second spec of that kind
    for kind in ("tikhonov", "tsvd", "landweber"):
        with pytest.raises(InputError, match=f"{kind} takes no order"):
            FilterSpec(kind, order=5, relaxation=0.9 if kind == "landweber" else None)
    for kind in ("tikhonov", "iterated_tikhonov", "tsvd"):
        with pytest.raises(InputError, match=f"{kind} takes no relaxation"):
            FilterSpec(kind, relaxation=0.5)
    assert FilterSpec("iterated_tikhonov", order=1).order == 1
    assert FilterSpec("tikhonov", order=1) == FilterSpec.tikhonov()
    sections = [{"kind": "tikhonov"}, {"kind": "iterated_tikhonov", "order": 2},
                {"kind": "iterated_tikhonov", "order": 3}, {"kind": "tsvd"},
                {"kind": "landweber", "relaxation": 0.9}]
    for spec, section in zip(ALL_SPECS, sections, strict=True):
        assert _from_config(section) == spec
    with pytest.raises(ConfigError):
        _from_config({"kind": "tikhonov", "bogus": 1})


@pytest.mark.parametrize("cfg", [
    {"kind": "landweber", "relaxation": "abc"},
    {"kind": "landweber", "relaxation": True},
    {"kind": "landweber", "relaxation": float("nan")},
    {"kind": "iterated_tikhonov", "order": 2.7},
    {"kind": "iterated_tikhonov", "order": True},
    {"kind": "iterated_tikhonov", "order": "2"},
    {"kind": "tikhonov", "order": 3},
    {"kind": "tsvd", "relaxation": 0.5},
    {"kind": "landweber", "order": 2},
    {"kind": "iterated_tikhonov", "relaxation": 0.5},
    {"kind": None},
])
def test_filter_config_rejects_what_it_would_ignore_or_misread(cfg):
    with pytest.raises(ConfigError):
        _from_config(cfg)


def test_filter_config_defaults_and_integral_order():
    assert _from_config({"kind": "iterated_tikhonov"}) == FilterSpec("iterated_tikhonov", order=2)
    assert _from_config({"kind": "iterated_tikhonov", "order": 3.0}).order == 3
    assert _from_config({"kind": "landweber"}) == FilterSpec("landweber", relaxation=0.9)
    assert _from_config({"kind": "landweber", "relaxation": 1}).relaxation == 1.0


@pytest.mark.parametrize("spec", [
    FilterSpec("iterated_tikhonov", order=10**12),
    _from_config({"kind": "iterated_tikhonov", "order": 1e300}),
], ids=["order 1e12", "config order 1e300"])
def test_iterated_tikhonov_huge_order_is_finite_and_in_range(spec):
    # the cost of an order does not depend on its size
    lam = np.logspace(-12, 0, 25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = filter_value(spec, np.logspace(-300, 0, 31), lam)
    assert np.all(np.isfinite(values))
    assert np.all(values >= 0.0) and np.all(values <= 1.0 / lam)


def test_landweber_filter_at_unit_relaxation_runs_clean():
    # a * lambda = 1 makes log1p(-1) = -inf; the filter value is exactly 1/lambda
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = filter_value(FilterSpec("landweber", relaxation=1.0), 0.5, np.array([1.0, 0.25]))
    assert value[0] == 1.0


# ---------------------------------------------------------------------------
# regularizer application


def test_apply_regularizer_tsvd_keeps_large_levels():
    op = SpectralDecomposition([1.0, 0.1])
    y = CoefficientVector([1.0, 1.0])
    sol = apply_regularizer(op, FilterSpec("tsvd"), 0.5, y)
    assert np.allclose(sol.x, [1.0, 0.0])
    assert row_residual(op, FilterSpec("tsvd"), 0.5, y) == pytest.approx(1.0)


def test_tikhonov_small_alpha_recovers_inverse():
    op = SpectralDecomposition([1.0])
    sol = apply_regularizer(op, FilterSpec.tikhonov(), 1e-12, CoefficientVector([1.0]))
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_counterexample_tsvd_residual_by_direct_summation():
    op, direction = counterexample_operator(6)
    residual = row_residual(op, FilterSpec("tsvd"), 1e-4, CoefficientVector(direction))
    # discarded levels are those with sigma_l^2 < alpha, i.e. l >= 3
    expected_sq = float(np.sum(direction[2:] ** 2))
    assert expected_sq == pytest.approx(0.5 - 1.0 / 6.0)
    assert residual**2 == pytest.approx(expected_sq)


def test_residual_norm_single_coefficient():
    op = SpectralDecomposition([1.0])
    res = row_residual(op, FilterSpec.tikhonov(), 1.0, CoefficientVector([2.0]))
    assert res == pytest.approx(1.0)


def test_residual_norm_zero_data():
    op = SpectralDecomposition([1.0, 0.5])
    for spec in ALL_SPECS:
        assert row_residual(op, spec, 0.3, CoefficientVector([0.0, 0.0])) == 0.0


def test_residual_vanishes_for_small_alpha_tsvd():
    op = SpectralDecomposition([1.0, 0.5, 0.25])
    y = CoefficientVector([1.0, 1.0, 1.0])
    assert row_residual(op, FilterSpec("tsvd"), 1e-3, y) == pytest.approx(0.0)


def test_residual_includes_orthogonal_component():
    op = SpectralDecomposition([1.0])
    y = CoefficientVector([1.0], orthogonal_norm=2.0)
    res = row_residual(op, FilterSpec("tsvd"), 0.5, y)
    assert res == pytest.approx(2.0)


def test_alphas_that_are_neither_shared_nor_one_per_row_are_an_error(monkeypatch):
    # apply_regularizer takes one alpha per row, and residual_norm one block of
    # alphas shared by every row; each chunk of rows must not see another count
    monkeypatch.setattr(filters, "_CHUNK", 6)
    op, spec = SpectralDecomposition([1.0, 0.5, 0.1]), FilterSpec.tikhonov()
    rows = [CoefficientVector([1.0, 2.0, float(i)]) for i in range(10)]
    for alphas, count in (([0.1] * 7, 7), (0.1, 1), ([0.1] * 11, 11)):
        with pytest.raises(InputError, match=f"got {count} alphas for 10 rows, not one per row"):
            apply_regularizer(op, spec, alphas, rows)
    for alphas in (np.full((7, 1), 0.1), np.full((1, 10), 0.1), np.full((10, 1), 0.1)):
        with pytest.raises(InputError, match="alpha must be positive, a float or a 1-D array"):
            residual_norm(op, spec, alphas, rows)
    solved = apply_regularizer(op, spec, [0.1] * 10, rows)
    assert solved.tobytes() == np.array([apply_regularizer(op, spec, 0.1, row).x
                                         for row in rows]).tobytes()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
def test_residual_norm_of_alpha_array_matches_each_alpha_bitwise(spec):
    # one row per alpha, each summed in the same pairwise order as one vector
    rng = np.random.default_rng(3)
    alphas = 0.7 ** np.arange(40)
    for m in (1, 2, 7, 8, 9, 100, 129, 512):
        op = SpectralDecomposition(np.sort(rng.uniform(0.01, 1.0, size=m))[::-1])
        y = CoefficientVector(rng.standard_normal(m), orthogonal_norm=float(rng.uniform()))
        block = row_residual(op, spec, alphas, y)
        assert block.shape == alphas.shape
        singles = [row_residual(op, spec, float(alpha), y) for alpha in alphas]
        assert [value.hex() for value in block.tolist()] == [value.hex() for value in singles]


def test_residual_norm_of_alpha_array_validates_every_alpha():
    op = SpectralDecomposition([1.0, 0.5])
    y = CoefficientVector([1.0, 1.0])
    with pytest.raises(InputError, match="alpha must be positive"):
        row_residual(op, FilterSpec.tikhonov(), np.array([1.0, 0.5, 0.0]), y)


def test_landweber_below_the_smallest_normal_alpha_runs_clean():
    # 1/alpha overflows to inf: infinitely many steps leave no residual; the
    # step count used to be int(ceil(inf)), an OverflowError
    spec = FilterSpec("landweber", relaxation=0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = residual_factor(spec, 1e-310, [1.0, 1e-3])
        block = residual_factor(spec, np.array([1e-300, 1e-310]), [1.0, 1e-3])
        value = filter_value(spec, 1e-310, 0.5)
    assert np.array_equal(factor, [0.0, 0.0])
    assert np.array_equal(block, [[0.0, 0.0], [0.0, 0.0]])
    assert value == 2.0


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
    small = row_residual(op, spec, alpha, y)
    large = row_residual(op, spec, beta, y)
    assert small <= large * (1.0 + 1e-12) + 1e-300


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), log_alpha=st.floats(-8, 0))
def test_proposition_one_operator_norm_bound(seed, log_alpha):
    rng = np.random.default_rng(seed)
    m = rng.integers(1, 12)
    sigma = np.sort(rng.uniform(1e-4, 1.0, size=m))[::-1]
    op = SpectralDecomposition(sigma)
    alpha = 10.0**log_alpha
    for spec in ALL_SPECS:
        # ||R_alpha|| = max_l sigma_l F_alpha(sigma_l^2)
        norm = float(np.max(sigma * filter_value(spec, alpha, sigma**2)))
        bound = math.sqrt(spec.c_r * spec.c_f) / math.sqrt(alpha)
        assert norm <= bound * (1.0 + 1e-12)


def test_proposition_two_bias_bound_on_alpha_grid():
    rng = np.random.default_rng(77)
    sigma = np.sort(rng.uniform(0.01, 1.0, size=20))[::-1]
    op = SpectralDecomposition(sigma)
    for spec in ALL_SPECS:
        nu = min(spec.qualification, 2.0)
        rho = 1.5
        w = rng.standard_normal(20)
        w *= rho / np.linalg.norm(w)
        x_hat = sigma**nu * w
        y_hat = CoefficientVector(sigma * x_hat)
        c_nu = spec.c_nu(nu)
        for alpha in np.logspace(-8, 0, 25):
            sol = apply_regularizer(op, spec, float(alpha), y_hat)
            bias = np.linalg.norm(sol.x - x_hat)
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
        (FilterSpec("iterated_tikhonov", order=2), 4.0),
        (FilterSpec("tsvd"), 20.0),
        (FilterSpec("landweber", relaxation=0.9), 20.0),
    ]:
        report = verify_filter_constants(spec, nu=nu)
        assert report.passed, report.violations
        assert report.monotone


class _TamperedTikhonov(FilterSpec):
    c_r = 0.5  # below the observed sup of lambda F_alpha = 1


def test_verify_filter_constants_flags_tampered_c_r():
    report = verify_filter_constants(_TamperedTikhonov("tikhonov"), nu=2.0)
    assert not report.passed
    assert any("C_R" in violation for violation in report.violations)


class _OverqualifiedTikhonov(FilterSpec):
    qualification = math.inf  # Tikhonov's is 2


def test_verify_filter_constants_flags_beyond_qualification():
    # beyond the qualification no C_nu is declared, so the bias is not checked
    assert verify_filter_constants(FilterSpec.tikhonov(), nu=4.0).passed
    assert math.isinf(FilterSpec.tikhonov().c_nu(4.0))
    # a qualification declared too high declares C_nu = 1, which the grid breaks
    report = verify_filter_constants(_OverqualifiedTikhonov("tikhonov"), nu=4.0)
    assert report.violations == ("C_nu observed 1e+08 exceeds declared 1",)


def test_verify_filter_constants_flags_tampered_c_f(monkeypatch):
    monkeypatch.setattr(FilterSpec, "c_f", 0.5)  # below the observed sup of alpha F_alpha = 1
    report = verify_filter_constants(FilterSpec.tikhonov(), nu=2.0)
    assert report.violations == ("C_F observed 1 exceeds declared 0.5",)


def test_verify_filter_constants_flags_a_filter_rising_in_alpha(monkeypatch):
    original = filters._filter

    def rising(spec, alpha, lam):
        f = 0.5 * original(spec, alpha, lam)  # halved, so C_R and C_F still hold
        f[-1] = 1.1 * f[-2]  # F at alpha = 1 above F at the next smaller alpha
        return f

    monkeypatch.setattr(filters, "_filter", rising)
    report = verify_filter_constants(FilterSpec.tikhonov(), nu=2.0)
    assert not report.monotone
    assert report.violations == ("filter is not monotone in alpha on the grid",)


class _LooseTikhonov(FilterSpec):
    c_r = 2.0
    c_f = 2.0


def test_verify_filter_constants_flags_a_filter_beyond_one_over_lambda(monkeypatch):
    original = filters._filter
    monkeypatch.setattr(filters, "_filter", lambda *args: 1.5 * original(*args))
    report = verify_filter_constants(_LooseTikhonov("tikhonov"), nu=2.0)
    assert report.violations == ("filter leaves the range [0, 1/lambda]",)


def test_declared_constants_by_kind():
    assert FilterSpec.tikhonov().qualification == 2.0
    assert FilterSpec("iterated_tikhonov", order=3).qualification == 6.0
    assert FilterSpec("iterated_tikhonov", order=3).c_f == 3.0
    assert math.isinf(FilterSpec("tsvd").qualification)
    assert FilterSpec("landweber", relaxation=0.9).c_f == 2.0
    with pytest.raises(InputError):
        FilterSpec.tikhonov().c_nu(0.0)
    assert math.isinf(FilterSpec.tikhonov().c_nu(3.0))
