"""Generated study configs end in a result or a typed error with its exit code."""

import copy
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from avereg import cli
from avereg.errors import (
    ConfigError,
    DegenerateBatchError,
    InputError,
    NonTerminationError,
    NumericalError,
    StudyError,
)
from avereg.study import StudyConfig, run_study

# README: 1 for I/O, parse and config errors and running out of memory, 2 for
# degenerate statistics and too many failed replications
DOCUMENTED_EXIT = {
    MemoryError: 1,
    ConfigError: 1,
    InputError: 1,
    NumericalError: 1,
    NonTerminationError: 1,
    DegenerateBatchError: 2,
    StudyError: 2,
}

#: what ``run_study`` may raise for a valid config; a replication whose noise
#: estimate degenerates or whose search cannot stop is a failed record instead
RUN_ERRORS = (StudyError, InputError, NumericalError)

#: seconds one generated config may take, parsing and running
TIME_BOUND_S = 10.0

MATRIX_PATH = "<matrix>"

JUNK_VALUES = [True, False, None, -1, 0, 1.5, -2.5, "x", [], {}, 10**30, [10**30]]

#: what Python's json module reads from Infinity, -Infinity and NaN
NON_FINITE = [float("inf"), float("-inf"), float("nan")]

#: a mutation that deletes the key instead of setting it
_DELETE = object()

_SCENARIO = st.one_of(
    st.fixed_dictionaries({"name": st.just("diagonal_synthetic"), "m": st.integers(2, 12),
                           "decay": st.floats(0.1, 3.0)}),
    st.fixed_dictionaries({"name": st.just("counterexample"), "m": st.integers(2, 12),
                           "forced_value": st.floats(-2.0, 2.0)}),
    st.fixed_dictionaries({"name": st.just("heat_like"), "m": st.integers(2, 12),
                           "decay": st.floats(0.1, 1.0)}),
    st.fixed_dictionaries({"name": st.just("binary_option"), "grid": st.integers(2, 16)}),
    st.fixed_dictionaries({"name": st.just("matrix_file"), "path": st.just(MATRIX_PATH)}),
)

_NOISE = st.one_of(
    st.fixed_dictionaries({
        "variant": st.sampled_from(["direction_gaussian", "coefficient_gaussian"]),
        "scale": st.floats(0.01, 5.0),
    }),
    st.fixed_dictionaries({
        "variant": st.just("heavy_tailed"), "shape": st.floats(0.05, 0.45),
        "scale": st.floats(0.1, 2.0), "location": st.floats(-2.0, 2.0),
        "weight_seed": st.integers(0, 100),
    }),
)

_FILTER = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["tikhonov", "tsvd"])}),
    st.fixed_dictionaries({"kind": st.just("iterated_tikhonov"), "order": st.integers(1, 4)}),
    st.fixed_dictionaries({"kind": st.just("landweber"), "relaxation": st.floats(0.1, 2.0)}),
)

_RULE = st.one_of(
    st.fixed_dictionaries({"name": st.sampled_from(["dp", "dp+es"]),
                           "q": st.floats(0.1, 0.95)}),
    # c, nu and rho are settings of the scaled_source formula alone
    st.fixed_dictionaries({"name": st.just("apriori"), "variant": st.just("inv_sqrt_n_alpha")}),
    st.fixed_dictionaries({
        "name": st.just("apriori"), "variant": st.just("scaled_source"),
        "c": st.floats(0.1, 10.0), "nu": st.floats(0.5, 3.0), "rho": st.floats(0.5, 3.0),
    }),
)

_DELTA_RULE = st.one_of(
    st.fixed_dictionaries({"name": st.sampled_from(["inv_sqrt_n", "sample_std"])}),
    st.fixed_dictionaries({"name": st.just("lil"), "tau": st.floats(1.01, 3.0)}),
)

_SOURCE = st.fixed_dictionaries({"nu": st.floats(0.5, 2.0), "rho": st.floats(0.5, 2.0)})


@st.composite
def _valid_configs(draw):
    """A config the parser accepts, with every optional key set."""
    scenario = draw(_SCENARIO)
    delta_rule = draw(_DELTA_RULE)
    sizes = [16, 20, 40] if delta_rule["name"] == "lil" else [2, 3, 5, 16, 20, 40]
    raw = {
        "version": 1,
        "scenario": scenario,
        "filter": draw(_FILTER),
        "rules": draw(st.lists(_RULE, min_size=1, max_size=3, unique_by=lambda r: r["name"])),
        "delta_rule": delta_rule,
        "sample_sizes": sorted(draw(st.lists(st.sampled_from(sizes), min_size=1, max_size=3,
                                             unique=True))),
        "replications": draw(st.integers(1, 4)),
        "base_seed": draw(st.integers(0, 10**6)),
    }
    if [rule.get("variant") for rule in raw["rules"]] == ["inv_sqrt_n_alpha"]:
        del raw["delta_rule"]  # a study of that rule alone takes no delta_rule section
    if scenario["name"] not in ("counterexample", "binary_option"):
        raw["source"] = draw(_SOURCE)
        noise = draw(_NOISE)
        if not (scenario["name"] == "matrix_file" and noise["variant"] == "heavy_tailed"):
            raw["noise"] = noise
    return raw


def _sections(raw):
    """The objects of a config: itself, its object-valued keys and its rules."""
    rules = raw.get("rules") if isinstance(raw.get("rules"), list) else []
    return [raw, *(value for value in [*raw.values(), *rules] if isinstance(value, dict))]


def _mutate(section, key, value):
    if value is _DELETE:
        section.pop(key, None)
    else:
        section[key] = value


@st.composite
def _configs(draw):
    """A valid config, then up to two keys, at any depth, set to junk,
    deleted or added; many such configs break a rule the parser checks."""
    raw = draw(_valid_configs())
    for _ in range(draw(st.integers(0, 2))):
        section, key = draw(st.sampled_from(
            [(section, key) for section in _sections(raw) for key in [*sorted(section), "bogus"]]))
        _mutate(section, key, draw(st.sampled_from([*JUNK_VALUES, *NON_FINITE, _DELETE])))
    return raw


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "matrix.csv"
    np.savetxt(path, np.random.default_rng(0).standard_normal((8, 5)), delimiter=",")
    return str(path)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(raw=_configs())
def test_generated_configs_end_in_a_result_or_a_documented_error(matrix_path, raw):
    scenario = raw.get("scenario")
    if isinstance(scenario, dict) and scenario.get("path") == MATRIX_PATH:
        scenario["path"] = matrix_path
    _outcome_is_documented(raw)


def _outcome_is_documented(raw):
    """Parsing and running ``raw`` ends in a result, a ConfigError listing its
    violations or one of RUN_ERRORS, all in DOCUMENTED_EXIT, within the bound."""
    start = time.perf_counter()
    try:
        result = run_study(StudyConfig.from_dict(raw))
    except ConfigError as exc:
        assert exc.violations
    except RUN_ERRORS:
        pass
    else:
        assert isinstance(result, dict)
        records = [rec for recs in result.values() for rec in recs]
        assert sum(rec.failed for rec in records) <= 0.05 * len(records)
    assert time.perf_counter() - start < TIME_BOUND_S


def _full_configs(matrix_path):
    """One config per scenario and noise model, each with every key set."""
    def config(scenario, noise=None, source=True):
        raw = {
            "version": 1, "scenario": scenario,
            "filter": {"kind": "iterated_tikhonov", "order": 2},
            "rules": [{"name": "dp", "q": 0.7}, {"name": "dp+es", "q": 0.5},
                      {"name": "apriori", "variant": "scaled_source",
                       "c": 1.0, "nu": 1.0, "rho": 1.0}],
            "delta_rule": {"name": "lil", "tau": 1.5},
            "sample_sizes": [16, 20], "replications": 2, "base_seed": 3,
        }
        if source:
            raw["source"] = {"nu": 1.0, "rho": 1.0}
        if noise is not None:
            raw["noise"] = noise
        return raw

    heavy = {"variant": "heavy_tailed", "shape": 0.3, "scale": 0.5, "location": 1.5,
             "weight_seed": 5}
    return [
        config({"name": "diagonal_synthetic", "m": 6, "decay": 1.0},
               {"variant": "direction_gaussian", "scale": 0.5}),
        config({"name": "heat_like", "m": 6, "decay": 0.3}, heavy),
        config({"name": "matrix_file", "path": matrix_path},
               {"variant": "coefficient_gaussian", "scale": 0.5}),
        config({"name": "counterexample", "m": 6, "forced_value": 1.0}, source=False),
        config({"name": "binary_option", "grid": 8}, source=False),
    ]


def _single_key_mutations(raw):
    """Every config that sets one key of ``raw``, at any depth, to a junk
    value, deletes it, or adds an unknown key."""
    for index, section in enumerate(_sections(raw)):
        for key in [*sorted(section), "bogus"]:
            for value in [*JUNK_VALUES, _DELETE]:
                mutated = copy.deepcopy(raw)
                _mutate(_sections(mutated)[index], key, value)
                yield mutated


def test_every_single_key_mutation_ends_in_a_result_or_a_documented_error(matrix_path):
    for raw in _full_configs(matrix_path):
        for mutated in _single_key_mutations(raw):
            _outcome_is_documented(mutated)


#: a CLI run in a child whose address space is 1 GiB, so that a size that is
#: allocated before it is checked fails the child rather than filling memory
_UNDER_1_GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from avereg import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def _flag_cases(config_path, matrix_path):
    """(argv, the flag its error must name, whether it runs in a child)."""
    for seed in (-1, 2**64, 10**30):
        for argv in (["heat"], ["binopt"], ["simulate", "--config", config_path],
                     ["counterexample"]):
            yield [*argv, "--seed", str(seed)], "--seed", False
    for n_max in (-1, 0, 1, 10**8, 10**30):
        yield ["counterexample", "--n-max", str(n_max)], "--n-max", n_max > 10**6
    # its pairs fit in the machine's memory but not in the child's address space
    yield ["counterexample", "--forced", "--n-max", "1000000"], "--n-max", True
    solve = ["solve", "--matrix", matrix_path, "--measurements", matrix_path]
    for flags in (["--filter", "iterated_tikhonov", "--order", "0"], ["--order", "2"],
                  ["--filter", "landweber", "--relaxation", "-1"], ["--q", "1.5"],
                  ["--rule", "apriori", "--q", "0.5"], ["--delta", "lil", "--tau", "0.5"],
                  ["--tau", "2"], ["--rule", "apriori", "--delta", "lil"],
                  ["--rule", "apriori", "--tau", "3"]):
        yield [*solve, *flags], flags[-2], False


def test_every_out_of_range_flag_ends_in_one_error_line_that_names_it(matrix_path, tmp_path,
                                                                      capsys):
    config = tmp_path / "study.json"
    config.write_text(json.dumps(_full_configs(matrix_path)[0]))
    src = pathlib.Path(cli.__file__).parents[1]
    # one BLAS thread, so that the child's address space is its own arrays
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    for argv, flag, in_child in _flag_cases(str(config), matrix_path):
        argv = [*argv, "--out", str(tmp_path / "out")]
        start = time.perf_counter()
        if in_child:
            proc = subprocess.run([sys.executable, "-c", _UNDER_1_GIB, *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            code, err = proc.returncode, proc.stderr
        else:
            code, err = cli.main(argv), capsys.readouterr().err
        assert time.perf_counter() - start < TIME_BOUND_S, argv
        assert code == DOCUMENTED_EXIT[InputError], (argv, err)
        [line] = err.splitlines()
        assert line.startswith(f"error: {flag}"), (argv, line)
        assert not (tmp_path / "out").exists()


def test_every_number_key_rejects_non_finite_values(matrix_path):
    # a non-finite setting used to pass wherever only a sign was checked: lil
    # tau = inf ran every search at alpha = 1 and exited 0
    for raw in _full_configs(matrix_path):
        for index, section in enumerate(_sections(raw)):
            numbers = [key for key, value in section.items()
                       if isinstance(value, (int, float)) and not isinstance(value, bool)]
            for key in numbers:
                for value in NON_FINITE:
                    mutated = copy.deepcopy(raw)
                    _mutate(_sections(mutated)[index], key, value)
                    with pytest.raises(ConfigError):
                        StudyConfig.from_dict(mutated)


@pytest.mark.parametrize("error_type", sorted(DOCUMENTED_EXIT, key=lambda t: t.__name__))
def test_cli_exit_codes_follow_the_documented_table(monkeypatch, capsys, error_type):
    def fail(args):
        raise error_type(["violation"]) if error_type is ConfigError else error_type("boom")

    monkeypatch.setattr(cli, "_cmd_study", fail)
    assert cli.main(["heat"]) == DOCUMENTED_EXIT[error_type]
    assert capsys.readouterr().err.startswith("error: ")
