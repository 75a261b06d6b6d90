import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from avereg.errors import ConfigError, InputError, StudyError
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


# ---------------------------------------------------------------------------
# configuration


def test_config_round_trip_from_dict():
    config = StudyConfig.from_dict(_tiny_config())
    assert config.scenario_name == "diagonal_synthetic"
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
])
def test_config_rejects_booleans_as_integers(overrides):
    with pytest.raises(ConfigError):
        StudyConfig.from_dict(_tiny_config(**overrides))


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
    config = StudyConfig.from_json(str(path))
    assert config.replications == 8
    missing = tmp_path / "nope.json"
    with pytest.raises(InputError):
        StudyConfig.from_json(str(missing))


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
    batch = MeasurementBatch(4, 0, "test", y_bar, 1.0)
    record = _run_rule(config, scenario, DiscrepancyRule(q=0.7), y_bar, batch, 0.25, 4, 3)
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


def test_apriori_rule_records_no_iteration_count():
    raw = _tiny_config(rules=[{"name": "apriori", "variant": "inv_sqrt_n_alpha"}])
    result = run_study(StudyConfig.from_dict(raw))
    for rec in result.records[("apriori", 50)]:
        assert rec.k == -1
        assert rec.alpha == pytest.approx(1.0 / math.sqrt(50))


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
