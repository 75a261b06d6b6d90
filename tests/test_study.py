import contextlib
import dataclasses
import json
import math
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from avereg import rng, study
from avereg.errors import ConfigError, InputError, NonTerminationError, StudyError
from avereg.filters import FilterSpec, filter_value
from avereg.measurements import BinaryOptionParams
from avereg.study import (
    StudyConfig,
    binary_option_truth,
    build_scenario,
    default_binopt_config,
    default_counterexample_config,
    default_heat_config,
    format_summary_table,
    heat_like_operator,
    integration_operator,
    rate_fit,
    read_config,
    run_study,
    summarize,
    write_study_csvs,
)


def _tiny_config(**overrides):
    raw = {
        "version": 1,
        "scenario": {"name": "diagonal_synthetic", "m": 10, "decay": 1.0},
        "source": {"nu": 1.0, "rho": 1.0},
        "filter": {"kind": "tikhonov"},
        "rules": [{"name": "dp", "q": 0.7}],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [50, 200],
        "replications": 8,
        "base_seed": 7,
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# summaries and rate fits


def test_summarize_constant_sample():
    s = summarize([1.0, 1.0, 1.0, 1.0])
    assert (s.mean, s.median, s.q1, s.q3) == (1.0, 1.0, 1.0, 1.0)
    assert s.outliers == 0
    assert s.max == 1.0
    assert s.count == 4


def test_summarize_flags_upper_fence_outlier():
    s = summarize([0.0, 1.0, 2.0, 3.0, 100.0])
    assert s.q1 == pytest.approx(1.0)
    assert s.q3 == pytest.approx(3.0)
    # fence = 3 + 1.5 * 2 = 6, only the 100 lies above
    assert s.outliers == 1
    assert s.max == 100.0


def test_summarize_singleton_and_errors():
    s = summarize([5.0])
    assert s.mean == s.median == s.q1 == s.q3 == s.max == 5.0
    with pytest.raises(InputError):
        summarize([])
    with pytest.raises(InputError):
        summarize([1.0, -1.0])
    with pytest.raises(InputError):
        summarize([1.0, math.inf])


def test_rate_fit_recovers_exact_power_law():
    ns = [100, 1000, 10000, 100000]
    medians = [3.0 * n**-0.25 for n in ns]
    fit = rate_fit(ns, medians)
    assert fit["slope"] == pytest.approx(-0.25, abs=1e-12)
    assert fit["intercept"] == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0)


def test_rate_fit_constant_medians():
    fit = rate_fit([10, 100, 1000], [2.0, 2.0, 2.0])
    assert fit["slope"] == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_validation():
    with pytest.raises(InputError):
        rate_fit([10, 100], [1.0, 0.5])
    with pytest.raises(InputError):
        rate_fit([10, 100, 1000], [1.0, 0.5, 0.0])
    with pytest.raises(InputError):
        rate_fit([10, -100, 1000], [1.0, 0.5, 0.2])


# ---------------------------------------------------------------------------
# operators and analytic truths


def test_heat_like_operator_values():
    op = heat_like_operator(2, decay=math.log(10.0))
    assert np.allclose(op.singular_values, [0.1, 0.01])
    full = heat_like_operator(100)
    assert np.all(np.diff(full.singular_values) < 0)
    assert full.singular_values[-1] / full.singular_values[0] < 1e-13
    with pytest.raises(InputError):
        heat_like_operator(1)
    with pytest.raises(InputError):
        heat_like_operator(10, decay=0.0)


def test_integration_operator_m2_closed_form():
    op = integration_operator(2)
    expected = np.linalg.svd([[0.25, 0.0], [0.5, 0.25]], compute_uv=False)
    assert np.allclose(op.singular_values, expected, rtol=1e-12)


def test_integration_operator_reconstructs_matrix():
    m = 32
    op = integration_operator(m)
    h = 1.0 / m
    a = np.tril(np.full((m, m), h), -1) + np.eye(m) * (h / 2.0)
    recon = op.left_basis @ np.diag(op.singular_values) @ op.right_basis.T
    assert np.allclose(recon, a, atol=1e-13)


def test_integration_operator_spectrum_tracks_inverse_odd_multiples():
    m = 64
    op = integration_operator(m)
    assert op.singular_values[0] == pytest.approx(2.0 / math.pi, rel=2e-4)
    levels = np.arange(1, m + 1)
    reference = 1.0 / ((levels - 0.5) * math.pi)
    rel = np.abs(op.singular_values / reference - 1.0)
    assert np.all(rel[: m // 5] < 0.05)
    assert np.all(rel[: m // 4] < 0.06)


def test_integration_operator_integrates_constant():
    m = 50
    op = integration_operator(m)
    ones = np.ones(m)
    grid = (np.arange(1, m + 1)) / m
    h = 1.0 / m
    a = op.left_basis @ (op.singular_values * (op.right_basis.T @ ones))
    assert np.all(np.abs(a - grid) <= h)


def test_binary_option_truth_half_probability_at_strike():
    # with drift = volatility^2/2 the latent mean vanishes, so d = 0 at S0 = K
    params = BinaryOptionParams(r=1e-4, expiry=30.0, strike=0.5, payoff=1.0,
                                drift=0.005, volatility=0.1,
                                s0_grid=np.array([0.5, 1.0]))
    truth = binary_option_truth(params)
    assert truth["value_curve"][0] == pytest.approx(params.discounted_payoff / 2.0)


def test_binary_option_truth_saturates_deep_in_the_money():
    params = BinaryOptionParams(r=1e-4, expiry=30.0, strike=0.5, payoff=1.0,
                                drift=0.01, volatility=0.1,
                                s0_grid=np.array([100.0, 200.0]))
    truth = binary_option_truth(params)
    assert truth["value_curve"][0] == pytest.approx(params.discounted_payoff, rel=1e-12)


def test_binary_option_truth_default_parameters():
    params = BinaryOptionParams.default(512)
    truth = binary_option_truth(params)
    idx = np.argmin(np.abs(params.s0_grid - 0.5))
    d = (math.log(params.s0_grid[idx] / 0.5) + 30.0 * (0.01 - 0.005)) / (0.1 * math.sqrt(30.0))
    assert truth["value_curve"][idx] == pytest.approx(
        math.exp(-1e-4 * 30.0) * ndtr(d))
    assert truth["value_curve"][idx] == pytest.approx(0.6061, abs=2e-3)
    assert np.all(np.diff(truth["value_curve"]) > 0)
    # erfc in place of scipy's ndtr: 1.3e-14 relative at most on this grid
    s0 = params.s0_grid
    d_all = (np.log(s0 / 0.5) + 30.0 * (0.01 - 0.005)) / (0.1 * math.sqrt(30.0))
    assert np.allclose(truth["value_curve"], math.exp(-1e-4 * 30.0) * ndtr(d_all),
                       rtol=5e-14, atol=0.0)


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trip_from_dict():
    config = StudyConfig.from_dict(_tiny_config())
    assert config.scenario["name"] == "diagonal_synthetic"
    assert config.filter_spec == FilterSpec.tikhonov()
    assert config.sample_sizes == (50, 200)
    assert config.delta_rule == "sample_std"


def test_config_reports_all_violations():
    raw = _tiny_config(bogus=1, version=2, sample_sizes=[200, 50])
    raw["rules"] = [{"name": "nonsense"}]
    with pytest.raises(ConfigError) as excinfo:
        StudyConfig.from_dict(raw)
    text = str(excinfo.value)
    assert "bogus" in text
    assert "version" in text
    assert "strictly increasing" in text
    assert "nonsense" in text


@pytest.mark.parametrize("version", [2, True, 1.0, "1", None])
def test_config_rejects_any_version_but_the_integer_1(version):
    # True == 1 and 1.0 == 1 in Python, but neither is the JSON integer 1
    with pytest.raises(ConfigError, match="version must be 1"):
        StudyConfig.from_dict(_tiny_config(version=version))


@pytest.mark.parametrize("overrides", [
    {"replications": True},
    {"base_seed": True},
    {"base_seed": False},
    {"scenario": {"name": "diagonal_synthetic", "m": True}},
    {"sample_sizes": [True, 200]},
    {"scenario": {"name": "diagonal_synthetic", "m": 10, "decay": True}},
    {"noise": {"variant": "direction_gaussian", "scale": True}},
    {"source": {"nu": True, "rho": 1.0}},
    {"source": {"nu": 1.0, "rho": True}},
    {"rules": [{"name": "dp", "q": True}]},
    {"delta_rule": {"name": "lil", "tau": True}},
    {"rules": [{"name": "apriori", "c": True}]},
    {"rules": [{"name": "apriori", "nu": True}]},
    {"rules": [{"name": "apriori", "rho": False}]},
    {"filter": {"kind": "iterated_tikhonov", "order": True}},
    {"filter": {"kind": "landweber", "relaxation": True}},
])
def test_config_rejects_booleans_as_integers(overrides):
    with pytest.raises(ConfigError):
        StudyConfig.from_dict(_tiny_config(**overrides))


@pytest.mark.parametrize("overrides, message", [
    ({"scenario": {"name": "diagonal_synthetic", "m": None}}, "m must be an integer >= 2"),
    ({"scenario": {"name": "heat_like", "decay": None}}, "decay must be positive"),
    ({"scenario": {"name": "binary_option", "grid": None}, "source": None},
     "grid must be an integer >= 2"),
    ({"scenario": {"name": "counterexample", "forced_value": "x"}, "source": None},
     "forced_value must be a finite number"),
    ({"scenario": {"name": "matrix_file", "path": 0}}, "path must be a string"),
    ({"noise": {"variant": ["heavy_tailed"]}}, "unknown noise variant"),
    ({"noise": {"variant": "direction_gaussian", "scale": None}}, "scale must be positive"),
    ({"noise": {"variant": "heavy_tailed", "shape": "x"}}, "shape must be a finite number"),
    ({"noise": {"variant": "heavy_tailed", "shape": True}}, "shape must be a finite number"),
    ({"noise": {"variant": "heavy_tailed", "location": None}},
     "location must be a finite number"),
    ({"noise": {"variant": "heavy_tailed", "weight_seed": 1.5}},
     "weight_seed must be an integer"),
])
def test_config_rejects_settings_that_used_to_fail_mid_run(overrides, message):
    # each of these used to pass validation and then raise a bare TypeError or
    # ValueError from build_scenario
    raw = _tiny_config(**overrides)
    if raw["source"] is None:
        del raw["source"]
    with pytest.raises(ConfigError) as excinfo:
        StudyConfig.from_dict(raw)
    assert message in str(excinfo.value)


@pytest.mark.parametrize("overrides", [
    {"scenario": {"name": "diagonal_synthetic", "m": 10, "decay": 10**400}},
    {"noise": {"variant": "coefficient_gaussian", "scale": 10**400}},
    {"source": {"nu": 10**400, "rho": 1.0}},
    {"rules": [{"name": "dp", "q": -10**400}]},
    {"rules": [{"name": "apriori", "c": 10**400}]},
    {"delta_rule": {"name": "lil", "tau": 10**400}},
    {"filter": {"kind": "landweber", "relaxation": 10**400}},
])
def test_config_rejects_integers_beyond_the_float_range(overrides):
    # JSON reads a 401-digit integer as a Python int that no float can hold
    with pytest.raises(ConfigError):
        StudyConfig.from_dict(_tiny_config(**overrides))


@pytest.mark.parametrize("section, message", [
    ({"kind": "landweber", "relaxation": "abc"}, "relaxation must be positive and finite"),
    ({"kind": "iterated_tikhonov", "order": 2.7}, "order must be an integer"),
    ({"kind": "tikhonov", "order": 3}, "does not take ['order']"),
    ({"kind": "landweber", "relaxation": math.inf}, "relaxation must be positive and finite"),
])
def test_config_rejects_filter_settings_it_would_misread_or_ignore(section, message):
    with pytest.raises(ConfigError) as excinfo:
        StudyConfig.from_dict(_tiny_config(filter=section))
    assert message in str(excinfo.value)


@pytest.mark.parametrize("overrides", [
    {"base_seed": 2**64},
    {"base_seed": -1},
    {"noise": {"variant": "heavy_tailed", "weight_seed": 2**64}},
    {"noise": {"variant": "heavy_tailed", "weight_seed": -1}},
])
def test_config_rejects_seeds_the_generator_would_alias(overrides):
    # RandomStream reads seeds mod 2^64: 2^64 would replay seed 0, -1 seed 2^64 - 1
    with pytest.raises(ConfigError, match=r"seed must be an integer in \[0, 2\^64\)"):
        StudyConfig.from_dict(_tiny_config(**overrides))
    for seed in (0, 2**64 - 1):
        StudyConfig.from_dict(_tiny_config(base_seed=seed))


def test_config_rejects_lil_with_sample_sizes_below_its_minimum():
    raw = _tiny_config(delta_rule={"name": "lil", "tau": 1.5}, sample_sizes=[10, 100])
    with pytest.raises(ConfigError, match="every sample size >= 16"):
        StudyConfig.from_dict(raw)
    StudyConfig.from_dict(_tiny_config(delta_rule={"name": "lil", "tau": 1.5},
                                       sample_sizes=[16, 100]))


def test_config_rejects_source_for_fixed_scenarios():
    raw = _tiny_config(scenario={"name": "counterexample", "m": 10})
    with pytest.raises(ConfigError):
        StudyConfig.from_dict(raw)


def test_config_rejects_noise_for_binary_option():
    raw = _tiny_config(scenario={"name": "binary_option", "grid": 16})
    del raw["source"]
    raw["noise"] = {"variant": "coefficient_gaussian", "scale": 1.0}
    with pytest.raises(ConfigError):
        StudyConfig.from_dict(raw)


def test_config_lil_requires_tau():
    raw = _tiny_config(delta_rule={"name": "lil"})
    with pytest.raises(ConfigError):
        StudyConfig.from_dict(raw)
    raw = _tiny_config(delta_rule={"name": "lil", "tau": 1.5})
    config = StudyConfig.from_dict(raw)
    assert config.delta_tau == 1.5


def test_config_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_tiny_config()))
    config = StudyConfig.from_dict(read_config(str(path)))
    assert config.replications == 8
    missing = tmp_path / "nope.json"
    with pytest.raises(InputError):
        read_config(str(missing))


def test_default_configs_are_valid():
    for raw in (default_heat_config(), default_binopt_config(),
                default_counterexample_config(),
                default_counterexample_config(forced=True, emergency=True)):
        StudyConfig.from_dict(raw)


def _matrix_file_config(tmp_path, **overrides):
    path = tmp_path / "matrix.csv"
    a = np.random.default_rng(0).standard_normal((30, 10))
    np.savetxt(path, a, delimiter=",")
    return _tiny_config(scenario={"name": "matrix_file", "path": str(path)}, **overrides)


_SOURCE_DEFAULTS = {"nu": 1.0, "rho": 1.0}
_GAUSSIAN_DEFAULTS = {"variant": "direction_gaussian", "scale": 1.0}
_HEAVY_DEFAULTS = {"variant": "heavy_tailed", "shape": 1.0 / 3.0, "scale": 0.5,
                   "location": 1.5, "weight_seed": 5}

# (each scenario's keys with their defaults written out, the noise section
# a scenario that takes one defaults to); counterexample's forced_value is
# absent unless the latent draws are pinned
_SCENARIO_DEFAULTS = {
    "diagonal_synthetic": ({"m": 200, "decay": 1.0}, _GAUSSIAN_DEFAULTS),
    "counterexample": ({"m": 100}, None),
    "heat_like": ({"m": 100, "decay": 0.326}, _HEAVY_DEFAULTS),
    "binary_option": ({"grid": 512}, None),
    "matrix_file": ({}, _GAUSSIAN_DEFAULTS),
}


@pytest.mark.parametrize("name", sorted(_SCENARIO_DEFAULTS))
def test_absent_keys_take_the_defaults_written_out(tmp_path, name):
    written, noise = _SCENARIO_DEFAULTS[name]
    # the path has no default
    path = {"path": _matrix_file_config(tmp_path)["scenario"]["path"]} \
        if name == "matrix_file" else {}

    def config(scenario, full):
        raw = _tiny_config(
            scenario={"name": name, **path, **scenario},
            filter={"kind": "iterated_tikhonov", **({"order": 2} if full else {})},
            rules=[{"name": "dp", **({"q": 0.7} if full else {})},
                   {"name": "dp+es", **({"q": 0.7} if full else {})},
                   {"name": "apriori", **({"variant": "inv_sqrt_n_alpha", "c": 1.0,
                                           "nu": 1.0, "rho": 1.0} if full else {})}],
        )
        del raw["source"]
        if full and noise is not None:
            raw.update(source=_SOURCE_DEFAULTS, noise=noise)
        return StudyConfig.from_dict(raw)

    sparse, full = config({}, False), config(written, True)
    assert sparse == full
    assert (full.source, full.noise) == ((None, None) if noise is None
                                         else (_SOURCE_DEFAULTS, noise))
    assert pickle.dumps(build_scenario(sparse)) == pickle.dumps(build_scenario(full))


def test_readme_gives_every_config_key():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Study configuration")[1].split("\n## ")[0]
    tables = [study.SCENARIOS, study.NOISES, study.FILTERS, study.RULES, study.DELTAS]
    names = [*study.STUDY, *study.SOURCE, *(name for table in tables for name in table),
             *(key for table in tables for keys in table.values() for key in keys)]
    missing = sorted({name for name in names if f"`{name}`" not in section})
    assert not missing


def test_config_rejects_heavy_tailed_noise_for_matrix_file(tmp_path):
    raw = _matrix_file_config(tmp_path, noise={"variant": "heavy_tailed"})
    with pytest.raises(ConfigError, match="heavy_tailed"):
        StudyConfig.from_dict(raw)


def test_matrix_file_honours_direction_gaussian_scale(tmp_path):
    default = build_scenario(StudyConfig.from_dict(_matrix_file_config(tmp_path)))
    scaled = build_scenario(StudyConfig.from_dict(_matrix_file_config(
        tmp_path, noise={"variant": "direction_gaussian", "scale": 100.0})))
    assert type(scaled.model).__name__ == "DirectionGaussian"
    assert np.array_equal(scaled.model.direction.coefficients,
                          100.0 * default.model.direction.coefficients)
    unit = build_scenario(StudyConfig.from_dict(_matrix_file_config(
        tmp_path, noise={"variant": "direction_gaussian", "scale": 1.0})))
    assert np.array_equal(unit.model.direction.coefficients,
                          default.model.direction.coefficients)


# ---------------------------------------------------------------------------
# execution


def test_run_study_is_deterministic():
    config = StudyConfig.from_dict(_tiny_config())
    a = run_study(config)
    b = run_study(config)
    for key in a.records:
        for ra, rb in zip(a.records[key], b.records[key]):
            assert ra == rb


def test_rules_share_batches():
    raw = _tiny_config(rules=[{"name": "dp", "q": 0.7}, {"name": "dp+es", "q": 0.7}])
    result = run_study(StudyConfig.from_dict(raw))
    for n in (50, 200):
        for ra, rb in zip(result.records[("dp", n)], result.records[("dp+es", n)]):
            assert ra.delta_true == rb.delta_true
            assert ra.delta_est == rb.delta_est


def test_error_decreases_with_sample_size_on_easy_problem():
    raw = _tiny_config(sample_sizes=[100, 10000], replications=20)
    result = run_study(StudyConfig.from_dict(raw))
    assert result.summaries[("dp", 10000)].median < result.summaries[("dp", 100)].median


def test_dp_stop_certificates_hold_post_hoc():
    from avereg.measurements import draw_batch

    config = StudyConfig.from_dict(_tiny_config())
    scenario = build_scenario(config)
    result = run_study(config)
    sigma_sq = scenario.op.singular_values**2

    def residual(alpha, y):
        gaps = 1.0 - sigma_sq * np.array(
            [filter_value(config.filter_spec, alpha, lam) for lam in sigma_sq]
        )
        return math.hypot(float(np.linalg.norm(gaps * y.coefficients)),
                          y.orthogonal_norm)

    for n_index, n in enumerate(config.sample_sizes):
        for rec in result.records[("dp", n)]:
            assert not rec.failed
            assert rec.alpha == pytest.approx(0.7**rec.k)
            batch = draw_batch(scenario.model, scenario.y_hat, n,
                               config.base_seed, (n_index << 32) | rec.replication)
            assert residual(rec.alpha, batch.mean) <= rec.delta_est * (1 + 1e-12)
            if rec.k > 0:
                assert residual(rec.alpha / 0.7, batch.mean) > rec.delta_est


def test_counterexample_forced_alpha_collapses():
    raw = default_counterexample_config(n_max=6, forced=True)
    result = run_study(StudyConfig.from_dict(raw))
    for n in range(2, 7):
        rec = result.records[("dp", n)][0]
        assert rec.alpha < 100.0**-n
        assert not rec.emergency


def test_counterexample_emergency_keeps_alpha_above_floor():
    raw = default_counterexample_config(n_max=6, forced=True, emergency=True)
    result = run_study(StudyConfig.from_dict(raw))
    for n in range(2, 7):
        rec = result.records[("dp+es", n)][0]
        assert rec.emergency
        assert 0.5 / n < rec.alpha <= 1.0 / n


def test_heat_scenario_uses_heavy_tailed_noise():
    config = StudyConfig.from_dict(default_heat_config(replications=1))
    scenario = build_scenario(config)
    assert type(scenario.model).__name__ == "HeavyTailed"
    assert scenario.op.rank == 100
    assert scenario.x_hat.norm() <= 1.0 + 1e-9  # rho * sigma_1^nu < 1


def test_search_that_cannot_stop_fails_only_its_replication():
    from avereg.measurements import MeasurementBatch
    from avereg.spectral import CoefficientVector, SpectralDecomposition
    from avereg.study import DiscrepancyRule, Scenario, _run_rule

    config = StudyConfig.from_dict(_tiny_config(delta_rule={"name": "inv_sqrt_n"}))
    # the data component outside the range (1.0) exceeds delta = 1/sqrt(4)
    y_bar = CoefficientVector(np.array([1.0]), 1.0)
    zero = CoefficientVector(np.zeros(1), 0.0)
    scenario = Scenario(SpectralDecomposition(np.array([1.0])), zero, zero, model=None)
    batch = MeasurementBatch(4, y_bar, 1.0)
    record = _run_rule(config, scenario, DiscrepancyRule(q=0.7), y_bar, batch, 0.25, 3)
    assert record.failed
    assert record.replication == 3
    assert record.delta_est == 0.5
    assert math.isnan(record.error) and math.isnan(record.alpha)
    assert "delta_est" in record.reason


def test_matrix_file_study_whose_searches_cannot_stop_raises_study_error(tmp_path):
    raw = _matrix_file_config(
        tmp_path, noise={"variant": "coefficient_gaussian", "scale": 5},
        delta_rule={"name": "inv_sqrt_n"}, sample_sizes=[10, 100], replications=20,
        base_seed=1,
    )
    with pytest.raises(StudyError, match="replications failed"):
        run_study(StudyConfig.from_dict(raw))


def test_study_error_names_each_failure_reason_with_its_count(tmp_path):
    raw = _matrix_file_config(
        tmp_path, noise={"variant": "coefficient_gaussian", "scale": 5},
        delta_rule={"name": "inv_sqrt_n"}, sample_sizes=[10, 100], replications=20,
        base_seed=1,
    )
    with pytest.raises(StudyError) as excinfo:
        run_study(StudyConfig.from_dict(raw))
    assert str(excinfo.value).startswith(
        "40 of 40 replications failed (40 x the data component outside the "
        "operator's range exceeds delta_est)"
    )


def test_landweber_study_runs_clean():
    raw = _tiny_config(scenario={"name": "diagonal_synthetic", "m": 6, "decay": 1.0},
                       filter={"kind": "landweber", "relaxation": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_study(StudyConfig.from_dict(raw))
    assert result.failed_count == 0


def test_solve_rule_is_the_study_replication_solve():
    from avereg.measurements import draw_batch
    from avereg.study import solve_rule

    config = StudyConfig.from_dict(_tiny_config(
        rules=[{"name": "dp", "q": 0.7}, {"name": "dp+es", "q": 0.7}, {"name": "apriori"}]))
    scenario = build_scenario(config)
    result = run_study(config)
    batch = draw_batch(scenario.model, scenario.y_hat, 50, config.base_seed, 0)
    for rule in config.rules:
        choice, solution = solve_rule(scenario.op, config.filter_spec, rule, batch,
                                      batch.mean, config.delta_rule, config.delta_tau)
        record = result.records[(rule.name, 50)][0]
        assert (choice.alpha, choice.k, choice.emergency_triggered, choice.delta_est_used) == \
            (record.alpha, record.k, record.emergency, record.delta_est)
        error = np.linalg.norm(solution.x.coefficients - scenario.x_hat.coefficients)
        assert float(error) == record.error
    choice, solution = solve_rule(scenario.op, config.filter_spec, config.rules[2], batch,
                                  batch.mean, config.delta_rule)
    assert choice.delta_est_used == 1.0 / math.sqrt(50)
    assert choice.iterations_evaluated == 0
    assert choice.residual_at_stop == solution.residual


def test_apriori_rule_records_no_iteration_count():
    raw = _tiny_config(rules=[{"name": "apriori", "variant": "inv_sqrt_n_alpha"}])
    result = run_study(StudyConfig.from_dict(raw))
    for rec in result.records[("apriori", 50)]:
        assert rec.k == -1
        assert rec.alpha == pytest.approx(1.0 / math.sqrt(50))


# ---------------------------------------------------------------------------
# cells on forked runs


@pytest.fixture
def forks(monkeypatch):
    """The pids forked during the test; each must have been reaped by its end."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _assert_same_records(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert len(a[key]) == len(b[key])
        for ra, rb in zip(a[key], b[key]):
            for field in dataclasses.fields(ra):
                va, vb = getattr(ra, field.name), getattr(rb, field.name)
                both_nan = isinstance(va, float) and math.isnan(va) and math.isnan(vb)
                assert va == vb or both_nan, (key, ra.replication, field.name)


def _heat_raw(monkeypatch):
    return default_heat_config(replications=4)


def _failing_heat_raw(monkeypatch):
    # some dp searches, chosen by the bits of their batch, cannot stop: the
    # failed records carry NaN fields
    real_solve_rule = study.solve_rule

    def solve_rule(op, spec, rule, batch, *args):
        if rule.name == "dp" and int(batch.sample_std * 2.0 ** 52) % 9 == 0:
            raise NonTerminationError("cannot stop", delta_est=0.5)
        return real_solve_rule(op, spec, rule, batch, *args)

    monkeypatch.setattr(study, "solve_rule", solve_rule)
    return default_heat_config(replications=20)


def _coefficient_gaussian_raw(monkeypatch):
    return _tiny_config(noise={"variant": "coefficient_gaussian", "scale": 1.0},
                        rules=[{"name": "dp", "q": 0.7}, {"name": "dp+es", "q": 0.7}],
                        sample_sizes=[100, 1000, 5000], replications=5)


@pytest.mark.parametrize("make_raw", [_heat_raw, _failing_heat_raw, _coefficient_gaussian_raw])
def test_study_outputs_do_not_depend_on_the_number_of_runs(make_raw, tmp_path, monkeypatch,
                                                           forks):
    config = StudyConfig.from_dict(make_raw(monkeypatch))
    # a full-sample study spreads its draws over the cores instead
    full_sample = make_raw is _coefficient_gaussian_raw
    results = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(rng, "_cores", lambda: cores)
        before = len(forks)
        results[cores] = run_study(config)
        assert len(forks) - before == (0 if full_sample else cores - 1)
        write_study_csvs(results[cores], str(tmp_path / f"cores{cores}"))
    for cores in (2, 3):
        _assert_same_records(results[1].records, results[cores].records)
        assert results[cores].failed_count == results[1].failed_count
        for path in (tmp_path / "cores1").iterdir():
            assert path.read_bytes() == (tmp_path / f"cores{cores}" / path.name).read_bytes()
    if make_raw is _failing_heat_raw:
        assert 0 < results[1].failed_count <= 0.05 * 20 * 9


def test_small_study_forks_too(monkeypatch, forks):
    monkeypatch.setattr(rng, "_cores", lambda: 2)
    run_study(StudyConfig.from_dict(default_counterexample_config()))
    assert len(forks) == 1


def test_fan_out_keeps_item_order(forks):
    results = study._fan_out(lambda item: (item, os.getpid()), list(range(7)), 3)
    pids = [os.getpid(), *forks]  # run r computes the items r, r + 3, ...
    assert results == [(item, pids[item % 3]) for item in range(7)]


def test_forked_runs_keep_their_draws_on_one_thread(monkeypatch, forks):
    monkeypatch.setattr(rng, "_cores", lambda: 3)
    assert study._fan_out(lambda item: rng._cores(), list(range(6)), 3) == [3, 1, 1] * 2
    assert rng._cores() == 3


def test_exception_in_a_child_cell_reaches_the_caller_typed(forks):
    def cell(item):
        if item == 5:  # run 2 of 3
            raise ConfigError(["bad item", f"item {item}"])
        if item == 4:  # run 1 of 3
            raise NonTerminationError("cannot stop", delta_est=0.25)
        return item

    with pytest.raises(NonTerminationError, match="cannot stop") as excinfo:
        study._fan_out(cell, list(range(6)), 3)
    assert excinfo.value.delta_est == 0.25
    assert len(forks) == 2
    with pytest.raises(ConfigError) as excinfo:
        study._fan_out(lambda item: cell(item) if item == 5 else item, list(range(6)), 3)
    assert excinfo.value.violations == ["bad item", "item 5"]
    assert str(excinfo.value) == "invalid configuration: bad item; item 5"


@pytest.mark.parametrize("failing, first", [((1, 3), 1), ((2, 3), 2), ((3, 4), 3)])
def test_the_lowest_failing_item_wins_whatever_the_number_of_runs(failing, first, forks):
    def cell(item):
        if item in failing:
            raise KeyError(f"item {item}")
        return item

    for runs in (1, 2, 3, 4):
        with pytest.raises(KeyError, match=f"item {first}"):
            study._fan_out(cell, list(range(8)), runs)
    assert len(forks) == 1 + 2 + 3


def test_study_cell_exception_in_a_child_reaches_the_caller(monkeypatch, forks):
    monkeypatch.setattr(rng, "_cores", lambda: 2)
    caller = os.getpid()
    real_delta_true = study.delta_true

    def delta_true(batch, y_hat):
        if os.getpid() != caller:
            raise InputError("delta_true failed in a forked run")
        return real_delta_true(batch, y_hat)

    monkeypatch.setattr(study, "delta_true", delta_true)
    with pytest.raises(InputError, match="failed in a forked run") as excinfo:
        run_study(StudyConfig.from_dict(_tiny_config()))
    assert len(forks) == 1
    # the child's traceback comes along as the cause
    cause = str(excinfo.value.__cause__)
    assert cause.startswith(f"in study process {forks[0]}:\nTraceback")
    assert 'raise InputError("delta_true failed in a forked run")' in cause


def test_child_that_exits_without_a_result_raises_study_error(forks):
    caller = os.getpid()

    def cell(item):
        if os.getpid() != caller and item == 4:
            os._exit(9)
        return item

    with pytest.raises(StudyError, match="exit status 9 and sent no result"):
        study._fan_out(cell, list(range(6)), 3)
    assert len(forks) == 2


def test_child_killed_by_a_signal_raises_study_error(forks):
    caller = os.getpid()

    def cell(item):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return item

    with pytest.raises(StudyError, match=f"exit status {-signal.SIGKILL}"):
        study._fan_out(cell, list(range(4)), 2)
    assert len(forks) == 1


def _with_alarm(seconds, action):
    def too_long(signum, frame):
        raise TimeoutError("the children were not stopped")

    previous = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(seconds)
    try:
        action()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_caller_exception_waits_for_its_children(forks):
    caller = os.getpid()

    def cell(item):
        if os.getpid() == caller:
            raise KeyError("caller's run failed")
        # a result larger than a pipe holds: the caller reads it all
        return bytes(1 << 20)

    def action():
        with pytest.raises(KeyError, match="caller's run failed"):
            study._fan_out(cell, list(range(6)), 3)

    _with_alarm(60, action)
    assert len(forks) == 2


class _Interrupt(BaseException):
    pass


def test_caller_interrupt_kills_and_reaps_its_children(forks):
    caller = os.getpid()

    def cell(item):
        if os.getpid() == caller:
            raise _Interrupt()
        # a result larger than a pipe holds: the child blocks in its write
        return bytes(1 << 20)

    def action():
        with pytest.raises(_Interrupt):
            study._fan_out(cell, list(range(6)), 3)

    _with_alarm(60, action)
    assert len(forks) == 2


_KILLED_CALLER = """
import ctypes, os, time
from avereg import study

# PR_SET_CHILD_SUBREAPER: the orphaned children are reparented here
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
caller = os.fork()
if caller == 0:
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            print("child", pid, flush=True)
        return pid

    def cell(item):
        if os.getpid() == caller:
            print("ready", flush=True)
            time.sleep(600)
        time.sleep(0.05)  # 1,000 of these per child
        return item

    os.fork, caller = fork, os.getpid()
    study._fan_out(cell, list(range(3000)), 3)
    os._exit(0)
print("caller", caller, flush=True)
while True:
    try:
        pid, status = os.wait()
    except ChildProcessError:
        break
    print("ended", pid, os.waitstatus_to_exitcode(status), flush=True)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs a Linux subreaper")
def test_children_stop_when_their_caller_is_killed():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(study.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_CALLER], env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        pids = {}
        while "ready" not in pids or "caller" not in pids:
            role, *pid = proc.stdout.readline().split()
            pids.setdefault(role, []).extend(int(p) for p in pid)
        os.kill(pids["caller"][0], signal.SIGKILL)
        ended = [line.split()[1:] for line in proc.communicate(timeout=10)[0].splitlines()]
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    # each child saw before its next cell that its caller was gone
    assert len(pids["child"]) == 2
    assert sorted(ended) == sorted([[str(pids["caller"][0]), str(-signal.SIGKILL)]]
                                   + [[str(pid), "2"] for pid in pids["child"]])


def test_config_error_survives_pickling():
    error = pickle.loads(pickle.dumps(ConfigError(["a must be b", "c must be d"])))
    assert error.violations == ["a must be b", "c must be d"]
    assert str(error) == "invalid configuration: a must be b; c must be d"


# ---------------------------------------------------------------------------
# output


def test_write_study_csvs_layout(tmp_path):
    raw = _tiny_config(rules=[{"name": "dp", "q": 0.7}, {"name": "dp+es", "q": 0.7}])
    result = run_study(StudyConfig.from_dict(raw))
    paths = write_study_csvs(result, str(tmp_path))
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == sorted([
        "dp_n50.csv", "dp_n200.csv",
        "dp_plus_es_n50.csv", "dp_plus_es_n200.csv",
        "summary.csv",
    ])
    header, *rows = (tmp_path / "dp_n50.csv").read_text().strip().split("\n")
    assert header == "replication,error,alpha,k,emergency,delta_true,delta_est"
    assert len(rows) == 8
    summary_lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
    assert summary_lines[0] == "rule,n,mean,median,q1,q3,outliers,max"
    assert len(summary_lines) == 1 + 2 * 2


def test_write_study_csvs_deterministic_bytes(tmp_path):
    config = StudyConfig.from_dict(_tiny_config())
    first = tmp_path / "a"
    second = tmp_path / "b"
    write_study_csvs(run_study(config), str(first))
    write_study_csvs(run_study(config), str(second))
    for path in first.iterdir():
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_format_summary_table():
    result = run_study(StudyConfig.from_dict(_tiny_config()))
    table = format_summary_table(result)
    lines = table.split("\n")
    assert lines[0].startswith("n")
    assert "dp" in lines[0]
    assert lines[1].startswith("50")
    assert lines[2].startswith("200")
