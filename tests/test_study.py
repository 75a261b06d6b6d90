import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from avereg import study
from avereg.errors import ConfigError, InputError, NonTerminationError, StudyError
from avereg.filters import FilterSpec, filter_value
from avereg.measurements import BinaryOptionParams, CoefficientGaussian, batch_bytes
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


def test_rate_fit_recovers_exact_power_law(rate_fit):
    ns = [100, 1000, 10000, 100000]
    medians = [3.0 * n**-0.25 for n in ns]
    fit = rate_fit(ns, medians)
    assert fit["slope"] == pytest.approx(-0.25, abs=1e-12)
    assert fit["intercept"] == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0)


def test_rate_fit_constant_medians(rate_fit):
    fit = rate_fit([10, 100, 1000], [2.0, 2.0, 2.0])
    assert fit["slope"] == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_validation(rate_fit):
    with pytest.raises(ValueError):
        rate_fit([10, 100], [1.0, 0.5])
    with pytest.raises(ValueError):
        rate_fit([10, 100, 1000], [1.0, 0.5, 0.0])
    with pytest.raises(ValueError):
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
    # d = 0 where S0 = K exp(-T (drift - volatility^2/2)) = 0.5 exp(-30 * 0.005)
    params = BinaryOptionParams(np.array([0.5 * math.exp(-30.0 * 0.005), 1.0]))
    truth = binary_option_truth(params)
    assert truth["value_curve"][0] == pytest.approx(params.discounted_payoff / 2.0)


def test_binary_option_truth_saturates_deep_in_the_money():
    params = BinaryOptionParams(np.array([100.0, 200.0]))
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
    {"rules": [{"name": "apriori", "variant": "scaled_source", "c": True}]},
    {"rules": [{"name": "apriori", "variant": "scaled_source", "nu": True}]},
    {"rules": [{"name": "apriori", "variant": "scaled_source", "rho": False}]},
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
    ({"source": {"nu": 1.0, "rho": 1e200}}, "source rho must be positive and <= 1e100"),
    ({"noise": {"variant": "direction_gaussian", "scale": 1e200}},
     "noise scale must be positive and <= 1e100"),
    ({"noise": {"variant": "coefficient_gaussian", "scale": 1e200}},
     "noise scale must be positive and <= 1e100"),
    ({"noise": {"variant": "heavy_tailed", "scale": 1e200}},
     "noise scale must be positive and <= 1e100"),
    ({"noise": {"variant": "heavy_tailed", "location": -1e200}},
     "noise location must be a finite number of magnitude <= 1e100"),
    ({"scenario": {"name": "counterexample", "forced_value": 1e200}, "source": None},
     "scenario forced_value must be a finite number of magnitude <= 1e100"),
    ({"rules": [{"name": "apriori", "c": 50.0, "nu": 3.0}]},
     "rule apriori inv_sqrt_n_alpha does not take ['c', 'nu']"),
    ({"rules": [{"name": "apriori", "variant": "inv_sqrt_n_alpha", "rho": 1.0}]},
     "rule apriori inv_sqrt_n_alpha does not take ['rho']"),
])
def test_config_rejects_settings_that_used_to_fail_mid_run(overrides, message):
    # each of these used to pass validation and then raise a bare TypeError or
    # ValueError from build_scenario, overflow to a non-finite value mid-run,
    # or (c, nu and rho of inv_sqrt_n_alpha) be ignored
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
    {"rules": [{"name": "apriori", "variant": "scaled_source", "c": 10**400}]},
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
                   # inv_sqrt_n_alpha takes no c, nu or rho
                   {"name": "apriori", "variant": "scaled_source",
                    **({"c": 1.0, "nu": 1.0, "rho": 1.0} if full else {})}],
        )
        del raw["source"]
        if full and noise is not None:
            raw.update(source=_SOURCE_DEFAULTS, noise=noise)
        return StudyConfig.from_dict(raw)

    sparse, full = config({}, False), config(written, True)
    assert sparse == full
    assert StudyConfig.from_dict(_tiny_config(rules=[{"name": "apriori"}])) == \
        StudyConfig.from_dict(_tiny_config(rules=[{"name": "apriori",
                                                   "variant": "inv_sqrt_n_alpha"}]))
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
    assert np.array_equal(scaled.model.direction, 100.0 * default.model.direction)
    unit = build_scenario(StudyConfig.from_dict(_matrix_file_config(
        tmp_path, noise={"variant": "direction_gaussian", "scale": 1.0})))
    assert np.array_equal(unit.model.direction, default.model.direction)


# ---------------------------------------------------------------------------
# execution


def test_run_study_is_deterministic():
    config = StudyConfig.from_dict(_tiny_config())
    a = run_study(config)
    b = run_study(config)
    for key in a.records:
        for ra, rb in zip(a.records[key], b.records[key]):
            assert ra == rb


_THREE_RULES = [{"name": "dp", "q": 0.7}, {"name": "dp+es", "q": 0.7}, {"name": "apriori"}]


def _forced_counterexample_config(sample_sizes=None, **scenario):
    """The forced counterexample with its scenario keys overridden."""
    raw = default_counterexample_config(forced=True)
    raw["scenario"].update(scenario)
    if sample_sizes is not None:
        raw["sample_sizes"] = sample_sizes
    return raw


# sha256 of every CSV of small studies, one per filter or scenario family and
# one per noise path of a matrix_file study; a change of any bit of any record
# shows here.  Each config is made from a scratch directory for its matrix.
_GOLDEN_STUDIES = {
    "iterated_tikhonov": (
        lambda _: _tiny_config(filter={"kind": "iterated_tikhonov", "order": 3},
                             rules=_THREE_RULES), {
            "apriori_n200.csv": "29434f0d8f49d81334fba08b91cd808f2365d10649b1c436ae4ac9a98e7ace38",
            "apriori_n50.csv": "39bf9bde0afb017e419cbe9f0273426d34fe9e2f8ec8ea78a79024415e72e688",
            "dp_n200.csv": "7124d5c1e49a0742d43863cf90a9ee4ccff12db030e233245fd492cefe9a737b",
            "dp_n50.csv": "a9a633cbff314831f6f62a8a74646cb5a2658b3c3877795c992461bd63bfc12d",
            "dp_plus_es_n200.csv":
                "7124d5c1e49a0742d43863cf90a9ee4ccff12db030e233245fd492cefe9a737b",
            "dp_plus_es_n50.csv":
                "a9a633cbff314831f6f62a8a74646cb5a2658b3c3877795c992461bd63bfc12d",
            "summary.csv": "94f4ea1cb65bf93b3b8bc283da60c9383c2c7eb7a0ac6eef2b71ac4abf797e36",
        }),
    "landweber": (
        lambda _: _tiny_config(filter={"kind": "landweber"}, rules=_THREE_RULES), {
            "apriori_n200.csv": "8988a0ba7579fb8f1c29e9b9e57b2ac1bc580ea3dda07f41338084c0397637e1",
            "apriori_n50.csv": "ec3382e41fb47319320cccf13a755838af5be42d741bd8a8cbaf449ff89730f4",
            "dp_n200.csv": "80fb110fa3a793a19da600b5685879c19224505c08322c7b9a9678936e1574a1",
            "dp_n50.csv": "8f0ba3c4d9a0909e068a7a9cd9df01bd7bdfa1a3b8153d317be95ba3dbebd00a",
            "dp_plus_es_n200.csv":
                "80fb110fa3a793a19da600b5685879c19224505c08322c7b9a9678936e1574a1",
            "dp_plus_es_n50.csv":
                "8f0ba3c4d9a0909e068a7a9cd9df01bd7bdfa1a3b8153d317be95ba3dbebd00a",
            "summary.csv": "b271b44476cc3b06af9bce3f537fad6d7876ec116bdb79eb38e278d9e390c1fc",
        }),
    "heat_like": (
        lambda _: default_heat_config(replications=4), {
            "apriori_n1000.csv":
                "0839e3c32d96c3494efcb708dda41ea887039a66d14be657440fb70a63288712",
            "apriori_n10000.csv":
                "bc1783a69884ea0e787b91e125ddd28195cbf2159a4c7512b19bc4f58d301510",
            "apriori_n100000.csv":
                "7888a14bf7d6228f6e9cdbf50686583afe07d1a5fec706a1b61238bd3583466e",
            "dp_n1000.csv": "6db121e28baa62ddf66b62405228928d584aaf1aca96be05c826740ed403e9fc",
            "dp_n10000.csv": "d8a98d801690cd0b43abb3c641406fe65f869de358daecb832470cf7c57aa5f0",
            "dp_n100000.csv": "206718b2a4c19d126efb0c4a4095db10b6a1c9c7ec9acb5153ab0e76f84a7c53",
            "dp_plus_es_n1000.csv":
                "6db121e28baa62ddf66b62405228928d584aaf1aca96be05c826740ed403e9fc",
            "dp_plus_es_n10000.csv":
                "ca9f926775c71e62f2b38fb037276d84f7483c1408d49489042b7f408b4b146b",
            "dp_plus_es_n100000.csv":
                "206718b2a4c19d126efb0c4a4095db10b6a1c9c7ec9acb5153ab0e76f84a7c53",
            "summary.csv": "17f5d4d05d5c992fe8c8f4cc62d45d2ccd39d51b98fd448a8069b866da4e0d51",
        }),
    "counterexample_forced": (
        lambda _: default_counterexample_config(forced=True), {
            "dp_n2.csv": "5dd62947eafeae4b7e301837edc75f0386022092450a530b7b9de984a658f6ff",
            "dp_n3.csv": "6c00361668e58c5ea57355038162f6807320392276e5f8d4a379234b3eb41e92",
            "dp_n4.csv": "fe2a6803ab3b171259d879cef4e785029e338e72c8fff35f533532bfce0029de",
            "dp_n5.csv": "e9873bd9cba075a85917f917ea8b2cd8f811c84fe6da9176f1cfd66890395f63",
            "dp_n6.csv": "c18b8107a7125b08b70771b97c62ead236c12513c1f3361d20516d8b3e7f915d",
            "summary.csv": "5d144af05df3a7e4974fee5ddcc20dcfe610519eb52e3e0182857182ddcdc0c1",
        }),
    "counterexample_forced_emergency": (
        lambda _: default_counterexample_config(forced=True, emergency=True), {
            "dp_plus_es_n2.csv":
                "24de03d59c4d6cbc3eb6fc38b176169728bfe7e0f35d95c2df060f38e55fecbd",
            "dp_plus_es_n3.csv":
                "9502f883a56c81913daeb486814626adda0418938123576fcab9b3d97c2a8bad",
            "dp_plus_es_n4.csv":
                "ec47d1e98ef536ad7f1d33a2496fe3c982b249f710177e7133accfd2308853a8",
            "dp_plus_es_n5.csv":
                "f7d2d59c274b0a5a99c27d2153f854737344029c96dd785816fde143b2e0aab3",
            "dp_plus_es_n6.csv":
                "d3bd3938953883ebd9c19121a50f30d70b1a8eb88623810342811286e119c420",
            "summary.csv": "3a513f5ef51459171c7c0a251135f1abe62091ac992ec62233c4741be5db51da",
        }),
    "counterexample_forced_negative": (
        lambda _: _forced_counterexample_config(forced_value=-0.3), {
            "dp_n2.csv": "14428e3d7282e13e190a79e1024dddf9358849a0a5919638c0ac4330e6990f96",
            "dp_n3.csv": "aa1129e95b86aa1bd69a9df23da7cea560b86e5ec00bdfd8b1010179f74b08f1",
            "dp_n4.csv": "1bc4858d64f74452c50b18efde2dc808abda905648f28830f6608d6105793f35",
            "dp_n5.csv": "ee87d86d6f28c00862fdcd20dd7923ad6d8b6cd4a706073867b41ee07fda5d4b",
            "dp_n6.csv": "8447a043d01986731e704e80963ddb53a0a3503f459a3c6a3eea02b830054f4e",
            "summary.csv": "0021d031af18e8ef8e13fcf5ada4250b64776a73bb748ac73586187fc4659a20",
        }),
    # m = 161 puts squared singular values below 1/DBL_MAX, which TSVD discards
    "counterexample_forced_m161": (
        lambda _: _forced_counterexample_config([100, 1000], m=161), {
            "dp_n100.csv": "bceab6aa5f0031c78895fefe8932475352e82df80c8427b6c6afceee7e5d8a45",
            "dp_n1000.csv": "61d706c1e45b9195d4de2af035872fcaf801b7cae23accb549479f6942b3b3d9",
            "summary.csv": "b91e7445585b995638394ba7e6933bf6b60ce56f1bab03eba4e2333cac630aca",
        }),
    "matrix_file_coefficient_gaussian_lil": (
        lambda tmp_path: _matrix_file_config(
            tmp_path, noise={"variant": "coefficient_gaussian", "scale": 1.0},
            delta_rule={"name": "lil", "tau": 1.5}, rules=_THREE_RULES), {
            "apriori_n200.csv": "86f8e2420d2ba533ae258f0f3aa1ae70bbf1c7dd2d4752f2b74415fac246401e",
            "apriori_n50.csv": "9c300a5ae03e8b2d70345d1c044d6d3f63e0adbc1fb5d44cebb7477eed4ae316",
            "dp_n200.csv": "fe050ad9df3359fe2d82266035e6ac77fd09bedfcf623e1d08535917dfd77743",
            "dp_n50.csv": "b7450b8dad081f34d2f40d268d9f702745476669603623ced81a3427d5020073",
            "dp_plus_es_n200.csv":
                "fe050ad9df3359fe2d82266035e6ac77fd09bedfcf623e1d08535917dfd77743",
            "dp_plus_es_n50.csv":
                "b7450b8dad081f34d2f40d268d9f702745476669603623ced81a3427d5020073",
            "summary.csv": "964f5f898d4607979675ac976f918eb720d5f8375202a7caffb26b1505aca2e8",
        }),
    "matrix_file_direction_gaussian": (
        lambda tmp_path: _matrix_file_config(tmp_path, rules=_THREE_RULES), {
            "apriori_n200.csv": "59c78c9edbe43a0a3ea07506ba0704b2dc2262a2f775ceb31b4863cd446355f1",
            "apriori_n50.csv": "b0e9a582ee7e60089e7329f48be70349e48e6dd091392a4197811597007d22d0",
            "dp_n200.csv": "1ccc169536ec8d7e0960a52587a76e2d118997bea4be060510628dbc7cf645c9",
            "dp_n50.csv": "de1e4fa45b37d19c09bb0efd1f01646a798a20de9f3d9b7392a84440b92d196d",
            "dp_plus_es_n200.csv":
                "1ccc169536ec8d7e0960a52587a76e2d118997bea4be060510628dbc7cf645c9",
            "dp_plus_es_n50.csv":
                "de1e4fa45b37d19c09bb0efd1f01646a798a20de9f3d9b7392a84440b92d196d",
            "summary.csv": "d03fb1cb89633c9dd95afb7e95e7807a38d5239c4e28426bb7d5aef8af6f5f75",
        }),
    "binary_option": (
        lambda _: {**default_binopt_config(replications=4),
                   "scenario": {"name": "binary_option", "grid": 16},
                   "sample_sizes": [100, 1000]}, {
            "dp_n100.csv": "969507132723de6772bfb241518bf6e9bfc4ad541b1c4ba3e132ad7c2677f99b",
            "dp_n1000.csv": "c46034398e21ea1300ba31e3e739e44a1dbca9be5367f9c706278095dae6538e",
            "summary.csv": "9e9c3c1d456e3df48f16f6a1dff737a88cada76493642ea5cdd2df28eeff7710",
        }),
}


@pytest.mark.golden_bits
@pytest.mark.parametrize("name", sorted(_GOLDEN_STUDIES))
def test_study_csvs_keep_their_golden_bytes(name, tmp_path):
    make_raw, expected = _GOLDEN_STUDIES[name]
    out = tmp_path / "out"
    write_study_csvs(run_study(StudyConfig.from_dict(make_raw(tmp_path))), str(out))
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert digests == expected


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
        # a diagonal operator's range holds all of y
        gaps = 1.0 - sigma_sq * np.array(
            [filter_value(config.filter_spec, alpha, lam) for lam in sigma_sq]
        )
        return float(np.linalg.norm(gaps * y))

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
    assert np.linalg.norm(scenario.x_hat) <= 1.0 + 1e-9  # rho * sigma_1^nu < 1


@pytest.mark.parametrize("name", ["diagonal_synthetic", "matrix_file"])
def test_smooth_scenario_data_is_the_forward_image_of_its_source(tmp_path, name):
    from avereg.spectral import project_solution

    raw = _matrix_file_config(tmp_path) if name == "matrix_file" else _tiny_config()
    raw["source"] = {"nu": 1.5, "rho": 2.0}
    scenario = build_scenario(StudyConfig.from_dict(raw))
    op = scenario.op
    # x_hat = (K*K)^{nu/2} w with ||w|| = rho, and y_hat = K x_hat
    w = project_solution(op, scenario.x_hat).coefficients / op.singular_values**1.5
    assert np.linalg.norm(w) == pytest.approx(2.0, rel=1e-12)
    matrix = (np.loadtxt(raw["scenario"]["path"], delimiter=",") if name == "matrix_file"
              else np.diag(op.singular_values))
    assert np.allclose(matrix @ scenario.x_hat, scenario.y_hat, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("scenario", [
    {"name": "counterexample", "m": 200},
    {"name": "heat_like", "m": 100, "decay": 5.0},
    {"name": "diagonal_synthetic", "m": 200, "decay": 100.0},
], ids=lambda scenario: scenario["name"])
def test_a_spectrum_whose_squares_underflow_fails_before_any_draw(scenario, monkeypatch):
    # each config is valid, but some sigma_l^2 round to 0, where no filter is
    # defined; the study used to fail in its first replication
    raw = _tiny_config(scenario=scenario)
    if scenario["name"] == "counterexample":
        del raw["source"]
    config = StudyConfig.from_dict(raw)
    monkeypatch.setattr(study, "draw_batch", lambda *args: pytest.fail("a batch was drawn"))
    with pytest.raises(InputError, match="to 0"):
        build_scenario(config)
    with pytest.raises(InputError, match="to 0"):
        run_study(config)


def test_search_that_cannot_stop_fails_only_its_replication():
    from avereg.spectral import CoefficientVector, SpectralDecomposition
    from avereg.study import DiscrepancyRule, Scenario, _solve_stack

    config = StudyConfig.from_dict(_tiny_config(delta_rule={"name": "inv_sqrt_n"}))
    # in replication 3 the data component outside the range (1.0) exceeds
    # delta = 1/sqrt(4); the others have none
    stack = [(CoefficientVector(np.array([1.0]), 1.0 if rep == 3 else 0.0), 0.25, [0.5])
             for rep in range(5)]
    scenario = Scenario(SpectralDecomposition(np.array([1.0])), np.zeros(1), np.zeros(1),
                        model=None)
    records = _solve_stack(config, scenario, DiscrepancyRule(q=0.7), 4, 0, stack)
    assert [record.failed for record in records] == [False, False, False, True, False]
    record = records[3]
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
    assert not any(rec.failed for recs in result.records.values() for rec in recs)


def test_solve_rule_is_the_study_replication_solve():
    from avereg.measurements import draw_batch
    from avereg.spectral import project_data
    from avereg.study import rule_delta, solve_rule

    config = StudyConfig.from_dict(_tiny_config(
        rules=[{"name": "dp", "q": 0.7}, {"name": "dp+es", "q": 0.7}, {"name": "apriori"}]))
    scenario = build_scenario(config)
    result = run_study(config)
    batch = draw_batch(scenario.model, scenario.y_hat, 50, config.base_seed, 0)
    y_bar = project_data(scenario.op, batch.mean)
    for rule in config.rules:
        delta = rule_delta(rule, batch, config.delta_rule, config.delta_tau)
        [(choice, x)] = solve_rule(scenario.op, config.filter_spec, rule, [y_bar],
                                   [delta], batch.n)
        record = result.records[(rule.name, 50)][0]
        assert (choice.alpha, choice.k, choice.emergency_triggered, delta) == \
            (record.alpha, record.k, record.emergency, record.delta_est)
        error = np.linalg.norm(x - scenario.x_hat)
        assert float(error) == record.error
    delta = rule_delta(config.rules[2], batch, config.delta_rule)
    [(choice, solution)] = solve_rule(scenario.op, config.filter_spec, config.rules[2],
                                      [y_bar], [delta], batch.n)
    assert delta == 1.0 / math.sqrt(50)
    # inv_sqrt_n_alpha's alpha is its estimate, and an a priori choice has k = -1
    assert (choice.alpha, choice.k, choice.emergency_triggered) == (delta, -1, False)


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
    # some rows of the stacked dp searches, chosen by the bits of their noise
    # estimate, cannot stop: the failed records carry NaN fields
    real_discrepancy_principle = study.discrepancy_principle

    def discrepancy_principle(op, spec, y_bar, delta_est, q, emergency_n):
        choices = real_discrepancy_principle(op, spec, y_bar, delta_est, q, emergency_n)
        return [NonTerminationError("cannot stop")
                if emergency_n is None and int(delta * 2.0 ** 52) % 9 == 0 else choice
                for choice, delta in zip(choices, delta_est)]

    monkeypatch.setattr(study, "discrepancy_principle", discrepancy_principle)
    return default_heat_config(replications=20)


def _coefficient_gaussian_raw(monkeypatch):
    return _tiny_config(noise={"variant": "coefficient_gaussian", "scale": 1.0},
                        rules=[{"name": "dp", "q": 0.7}, {"name": "dp+es", "q": 0.7}],
                        sample_sizes=[100, 1000, 5000], replications=5)


@pytest.mark.parametrize("make_raw", [_heat_raw, _failing_heat_raw, _coefficient_gaussian_raw])
def test_study_outputs_do_not_depend_on_the_number_of_runs(make_raw, tmp_path, monkeypatch,
                                                           forks):
    config = StudyConfig.from_dict(make_raw(monkeypatch))
    results = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(study, "_cores", lambda: cores)
        before = len(forks)
        results[cores] = run_study(config)
        assert len(forks) - before == cores - 1
        write_study_csvs(results[cores], str(tmp_path / f"cores{cores}"))
    for cores in (2, 3):
        _assert_same_records(results[1].records, results[cores].records)
        for path in (tmp_path / "cores1").iterdir():
            assert path.read_bytes() == (tmp_path / f"cores{cores}" / path.name).read_bytes()
    if make_raw is _failing_heat_raw:
        failed = sum(rec.failed for recs in results[1].records.values() for rec in recs)
        assert 0 < failed <= 0.05 * 20 * 9


def test_small_study_forks_too(monkeypatch, forks):
    monkeypatch.setattr(study, "_cores", lambda: 2)
    run_study(StudyConfig.from_dict(default_counterexample_config()))
    assert len(forks) == 1


def test_fan_out_keeps_item_order(forks):
    results = study._fan_out(lambda item: (item, os.getpid()), list(range(7)), 3)
    pids = [os.getpid(), *forks]  # run r computes the items r, r + 3, ...
    assert results == [(item, pids[item % 3]) for item in range(7)]


def test_the_run_rule_forks_as_many_batches_as_the_memory_budget_holds(tmp_path, monkeypatch,
                                                                       forks):
    config = StudyConfig.from_dict(_coefficient_gaussian_raw(monkeypatch))
    cell = batch_bytes(CoefficientGaussian(1.0), max(config.sample_sizes), config.scenario["m"])
    monkeypatch.setattr(study, "_cores", lambda: 1)
    write_study_csvs(run_study(config), str(tmp_path / "one"))
    assert not forks
    monkeypatch.setattr(study, "_cores", lambda: 3)
    for budget, forked in ((2 * cell - 1, 0), (5 * cell // 2, 1)):
        monkeypatch.setattr(study, "_budget", lambda: budget)
        before = len(forks)
        out = tmp_path / f"budget{budget}"
        write_study_csvs(run_study(config), str(out))
        assert len(forks) - before == forked
        for path in (tmp_path / "one").iterdir():
            assert path.read_bytes() == (out / path.name).read_bytes()


def _no_draw(*args):
    raise AssertionError("a batch was drawn")


def test_a_batch_above_the_memory_budget_is_a_config_error_before_any_draw(monkeypatch):
    config = StudyConfig.from_dict(_coefficient_gaussian_raw(monkeypatch))
    cell = batch_bytes(CoefficientGaussian(1.0), max(config.sample_sizes), config.scenario["m"])
    monkeypatch.setattr(study, "draw_batch", _no_draw)
    monkeypatch.setattr(study, "_budget", lambda: cell - 1)
    with pytest.raises(ConfigError, match=f"^invalid configuration: sample_sizes: one batch "
                                          f"of n = 5000 holds {cell} bytes, above the "
                                          f"{cell - 1} bytes available$"):
        run_study(config)


@pytest.mark.parametrize("name, key, size, need", [
    ("diagonal_synthetic", "m", 1000, 12 * 8 * 1000),
    ("heat_like", "m", 1000, 16 * 8 * 1000),
    ("binary_option", "grid", 100, 12 * 8 * 100**2),
])
def test_a_scenario_above_the_memory_budget_is_a_config_error_before_it_is_built(
        monkeypatch, name, key, size, need):
    default = default_binopt_config if name == "binary_option" else default_heat_config
    config = StudyConfig.from_dict({**default(replications=1), "scenario": {"name": name, key: size}})
    monkeypatch.setattr(study, "build_scenario", lambda *args: pytest.fail("a scenario was built"))
    monkeypatch.setattr(study, "_budget", lambda: need - 1)
    with pytest.raises(ConfigError, match=f"^invalid configuration: scenario {key}: {name} at "
                                          f"{key} = {size} holds {need} bytes, above the "
                                          f"{need - 1} bytes available$"):
        run_study(config)
    monkeypatch.setattr(study, "_budget", lambda: need)
    with pytest.raises(pytest.fail.Exception, match="a scenario was built"):
        run_study(config)


def test_pairs_and_records_above_the_memory_budget_while_a_stack_is_solved_are_a_config_error(
        monkeypatch):
    # 1,000 held pairs of 20 coefficients take 672,000 bytes, their records of
    # three rules 1,536,000, a stack of 1,000 rows with their search residuals
    # 416,000, the search's shared block 15,360 and the chunk temporaries 1,280,000
    config = StudyConfig.from_dict({**default_heat_config(replications=1000),
                                    "scenario": {"name": "heat_like", "m": 20},
                                    "sample_sizes": [1000]})
    monkeypatch.setattr(study, "draw_batch", _no_draw)
    monkeypatch.setattr(study, "_cores", lambda: 1)
    monkeypatch.setattr(study, "_budget", lambda: 3919359)
    with pytest.raises(ConfigError, match="^invalid configuration: replications: 1000 pairs of "
                                          "sample size and replication take 3919360 bytes while "
                                          "a stack of 1000 is solved, above the 3919359 bytes "
                                          "available$"):
        run_study(config)
    monkeypatch.setattr(study, "_budget", lambda: 3919360)
    with pytest.raises(AssertionError, match="a batch was drawn"):
        run_study(config)


_MANY_REPLICATIONS = """
import resource, time
# a list of the pairs, or their cells, fails at once in 4 GiB of address space
resource.setrlimit(resource.RLIMIT_AS, (1 << 32, 1 << 32))
from avereg import study

def no_draw(*args):
    raise AssertionError("a batch was drawn")

study.draw_batch, study._budget = no_draw, lambda: 1 << 33
config = study.StudyConfig.from_dict({**study.default_heat_config(replications=10**9),
                                      "scenario": {"name": "heat_like", "m": 20},
                                      "sample_sizes": [1000]})
start = time.perf_counter()
try:
    study.run_study(config)
except study.ConfigError as exc:
    print(exc)
print(time.perf_counter() - start < 1.0)
"""


def test_more_replications_than_the_memory_budget_holds_are_a_config_error_at_once():
    # 10^9 pairs of 20 coefficients take 2.624e12 bytes with their records and
    # the stack being solved; the study runs in a child process so that a
    # check that comes too late cannot fill memory
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(study.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _MANY_REPLICATIONS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines() == [
        "invalid configuration: replications: 1000000000 pairs of sample size and replication "
        "take 2624002112512 bytes while a stack of 1000000000 is solved, above the 8589934592 "
        "bytes available",
        "True"]


@pytest.mark.parametrize("m", [100, 400])
def test_the_replications_check_bounds_the_traced_solve_of_every_filter(m):
    # a solve grows per row of its stack by the one (rows, m) array, the search's
    # row of residuals and the choice, which becomes a record; the filters form
    # their temporaries in chunks of rows, so the growth is the same for each.
    # Stacks of 10^5 and 2 10^5 coefficients outgrow those temporaries
    from avereg.spectral import project_data
    from avereg.study import solve_rule

    config = StudyConfig.from_dict(_tiny_config(
        scenario={"name": "heat_like", "m": m},
        rules=[{"name": "dp", "q": 0.7}, {"name": "apriori", "variant": "inv_sqrt_n_alpha"}]))
    scenario = build_scenario(config)
    rows = 100_000 // m
    noise = 1e-4 * np.random.default_rng(0).standard_normal((2 * rows, m))
    stack = [project_data(scenario.op, scenario.y_hat + row) for row in noise]
    counted = 8 * (m + study._BLOCK) + study._RECORD_BYTES
    for rule in config.rules:
        growth = []
        for spec in [FilterSpec("tikhonov"), FilterSpec("tsvd"),
                     FilterSpec("iterated_tikhonov", order=2),
                     FilterSpec("landweber", relaxation=1.0)]:
            peaks = []
            for size in [rows, 2 * rows]:
                tracemalloc.start()
                try:
                    solve_rule(scenario.op, spec, rule, stack[:size], [0.01] * size, 100)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            growth.append((peaks[1] - peaks[0]) / rows)
        assert max(growth) <= counted, (rule, growth, counted)
        assert max(growth) <= 1.5 * min(growth), (rule, growth)


_MEMINFO = "MemTotal:       16000 kB\nMemAvailable:    8000 kB\n"


@pytest.mark.parametrize("files, budget", [
    ({"/proc/meminfo": _MEMINFO}, 8000 * 1024),
    ({"/proc/meminfo": _MEMINFO, "/proc/self/cgroup": "0::/\n",
      "/sys/fs/cgroup/memory.max": "max\n", "/sys/fs/cgroup/memory.current": "5\n"},
     8000 * 1024),
    ({"/proc/meminfo": _MEMINFO, "/proc/self/cgroup": "4:memory:/a\n0::/jobs/a\n",
      "/sys/fs/cgroup/jobs/a/memory.max": "1000000\n",
      "/sys/fs/cgroup/jobs/a/memory.current": "250000\n"}, 750000),
    ({"/proc/meminfo": "MemTotal:       16000 kB\n"}, None),
    # cgroup v1: the memory controller's line names its group
    ({"/proc/meminfo": _MEMINFO, "/proc/self/cgroup": "5:devices:/\n4:memory:/jobs/b\n",
      "/sys/fs/cgroup/memory/jobs/b/memory.limit_in_bytes": "600000\n",
      "/sys/fs/cgroup/memory/jobs/b/memory.usage_in_bytes": "100000\n"}, 500000),
    # an unlimited v1 group reads as a huge limit
    ({"/proc/meminfo": _MEMINFO, "/proc/self/cgroup": "4:memory:/\n",
      "/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n",
      "/sys/fs/cgroup/memory/memory.usage_in_bytes": "100000\n"}, 8000 * 1024),
    # hybrid: the tighter of the v1 and the v2 limit
    ({"/proc/meminfo": _MEMINFO, "/proc/self/cgroup": "4:memory:/a\n0::/jobs/a\n",
      "/sys/fs/cgroup/memory/a/memory.limit_in_bytes": "500000\n",
      "/sys/fs/cgroup/memory/a/memory.usage_in_bytes": "100000\n",
      "/sys/fs/cgroup/jobs/a/memory.max": "1000000\n",
      "/sys/fs/cgroup/jobs/a/memory.current": "250000\n"}, 400000),
])
def test_budget_is_available_memory_capped_by_the_cgroup(files, budget, monkeypatch):
    def fake_open(path, *args):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    monkeypatch.setattr(study, "open", fake_open, raising=False)
    if budget is None:  # no MemAvailable line: the physical memory
        budget = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    assert study._budget() == budget


@pytest.mark.parametrize("cores", [1, 2])
def test_no_study_draw_starts_a_thread(cores, monkeypatch, forks):
    # 3000 x 100 normals are 150,000 Box-Muller pairs in 10 blocks; a forked
    # run inherits the patched start
    def start(thread):
        raise AssertionError(f"{thread.name} was started")

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(study, "_cores", lambda: cores)
    raw = _tiny_config(scenario={"name": "diagonal_synthetic", "m": 100, "decay": 1.0},
                       noise={"variant": "coefficient_gaussian", "scale": 1.0},
                       sample_sizes=[3000], replications=2)
    result = run_study(StudyConfig.from_dict(raw))
    assert len(forks) == cores - 1
    assert len(result.records[("dp", 3000)]) == 2


def test_exception_in_a_child_cell_reaches_the_caller_typed(forks):
    def cell(item):
        if item == 5:  # run 2 of 3
            raise ConfigError(["bad item", f"item {item}"])
        if item == 4:  # run 1 of 3
            raise NonTerminationError("cannot stop")
        return item

    with pytest.raises(NonTerminationError, match="cannot stop") as excinfo:
        study._fan_out(cell, list(range(6)), 3)
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
    monkeypatch.setattr(study, "_cores", lambda: 2)
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


def test_integration_operator_needs_two_levels():
    with pytest.raises(InputError, match="need m >= 2"):
        integration_operator(1)


def test_atomic_write_that_fails_keeps_the_old_file_and_leaves_no_temporary(tmp_path,
                                                                          monkeypatch):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        study.atomic_write(str(target), "new\n")
    assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text() == "old\n"


def test_a_cell_whose_every_replication_failed_has_no_rows_and_no_summary(tmp_path):
    ok = study.ReplicationRecord(0, 0.5, 0.1, 3, False, 0.2, 0.25)
    failed = study.ReplicationRecord(0, math.nan, math.nan, -1, False, 0.2, 0.25,
                                     "all measurements coincide")
    result = study.StudyResult(("dp",), (10, 20), {("dp", 10): [ok], ("dp", 20): [failed]},
                               {("dp", 10): summarize([ok.error])})
    write_study_csvs(result, str(tmp_path))
    assert (tmp_path / "dp_n20.csv").read_text() == \
        "replication,error,alpha,k,emergency,delta_true,delta_est\n"
    assert [line.split(",")[:2] for line in
            (tmp_path / "summary.csv").read_text().splitlines()[1:]] == [["dp", "10"]]
    assert format_summary_table(result).splitlines()[1:] == ["10        0.5", "20        -"]
