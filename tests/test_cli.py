import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from avereg import study
from avereg.cli import main
from avereg.filters import FilterSpec
from avereg.measurements import load_batch_csv
from avereg.spectral import load_matrix_csv, project_data, svd
from conftest import row_residual


def _write_identity_problem(tmp_path, n_rows=8):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("1.0,0.0\n0.0,1.0\n")
    rng = np.random.default_rng(0)
    samples = np.ones((n_rows, 2)) + 1e-3 * rng.standard_normal((n_rows, 2))
    measurements = tmp_path / "measurements.csv"
    np.savetxt(measurements, samples, delimiter=",")
    return str(matrix), str(measurements)


def _write_trapezoid_problem(tmp_path, n_rows=12, m=6):
    h = 1.0 / m
    a = np.tril(np.full((m, m), h), -1) + np.eye(m) * (h / 2.0)
    matrix = tmp_path / "matrix.csv"
    np.savetxt(matrix, a, delimiter=",")
    rng = np.random.default_rng(1)
    samples = a @ np.linspace(0.0, 1.0, m) + 0.05 * rng.standard_normal((n_rows, m))
    measurements = tmp_path / "measurements.csv"
    np.savetxt(measurements, samples, delimiter=",")
    return str(matrix), str(measurements)


_PROBLEMS = {"identity": (_write_identity_problem, 8),
             "trapezoid": (_write_trapezoid_problem, 12)}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tiny_config(tmp_path):
    raw = {
        "version": 1,
        "scenario": {"name": "diagonal_synthetic", "m": 6, "decay": 1.0},
        "filter": {"kind": "tikhonov"},
        "rules": [{"name": "dp", "q": 0.7}],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [50],
        "replications": 3,
        "base_seed": 11,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


# ---------------------------------------------------------------------------
# solve


def test_solve_identity_recovers_mean(tmp_path, capsys):
    matrix, measurements = _write_identity_problem(tmp_path)
    out = tmp_path / "out"
    code = main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--out", str(out)])
    assert code == 0
    x = np.loadtxt(out / "solution.csv")
    assert np.allclose(x, [1.0, 1.0], atol=0.01)
    choice = json.loads((out / "choice.json").read_text())
    assert choice["alpha"] > 0
    assert choice["residual"] <= choice["delta_est_used"]
    assert choice["iterations_evaluated"] == choice["k"] + 1
    assert "alpha=" in capsys.readouterr().out


def test_solve_single_measurement_is_degenerate(tmp_path, capsys):
    matrix, measurements = _write_identity_problem(tmp_path, n_rows=1)
    code = main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_solve_missing_matrix_is_input_error(tmp_path, capsys):
    _, measurements = _write_identity_problem(tmp_path)
    code = main(["solve", "--matrix", str(tmp_path / "nope.csv"),
                 "--measurements", measurements, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_solve_dimension_mismatch(tmp_path, capsys):
    matrix, _ = _write_identity_problem(tmp_path)
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.ones((4, 3)), delimiter=",")
    code = main(["solve", "--matrix", matrix, "--measurements", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    capsys.readouterr()


def test_solve_deterministic_outputs(tmp_path, capsys):
    matrix, measurements = _write_identity_problem(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--out", str(out_a)]) == 0
    assert main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "solution.csv").read_bytes() == (out_b / "solution.csv").read_bytes()
    assert (out_a / "choice.json").read_bytes() == (out_b / "choice.json").read_bytes()


def test_solve_apriori_rule(tmp_path, capsys):
    matrix, measurements = _write_identity_problem(tmp_path)
    out = tmp_path / "out"
    code = main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--rule", "apriori", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    choice = json.loads((out / "choice.json").read_text())
    assert choice["k"] == -1


def test_solve_single_measurement_with_inv_sqrt_n(tmp_path, capsys):
    matrix, measurements = _write_identity_problem(tmp_path, n_rows=1)
    out = tmp_path / "out"
    code = main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--delta", "inv_sqrt_n", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    assert json.loads((out / "choice.json").read_text())["delta_est_used"] == 1.0


def test_solve_single_measurement_lil_is_degenerate(tmp_path, capsys):
    matrix, measurements = _write_identity_problem(tmp_path, n_rows=1)
    code = main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--delta", "lil", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_solve_lil_with_few_measurements_is_input_error(tmp_path, capsys):
    matrix, measurements = _write_identity_problem(tmp_path, n_rows=8)
    code = main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--delta", "lil", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "n >= 16" in capsys.readouterr().err


def test_solve_rejects_tau_without_lil(tmp_path, capsys):
    # the delta_rule section's schema rejects the key, before any file is read
    for delta in ("sample_std", "inv_sqrt_n"):
        code = main(["solve", "--matrix", str(tmp_path / "nope.csv"),
                     "--measurements", str(tmp_path / "nope.csv"),
                     "--delta", delta, "--tau", "2", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: --tau 2.0: delta_rule {delta} "
                                           "does not take tau\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, error", [
    (["--delta", "lil", "--tau", "3"], "--delta lil: rule apriori does not take delta"),
    (["--tau", "3"], "--tau 3.0: rule apriori does not take tau"),
])
def test_solve_apriori_rejects_delta_and_tau(tmp_path, capsys, flags, error):
    # its alpha and estimate are 1/sqrt(n) whatever --delta says, which used
    # to exit 0; the rule's check comes before any file is read
    code = main(["solve", "--matrix", str(tmp_path / "nope.csv"),
                 "--measurements", str(tmp_path / "nope.csv"), "--rule", "apriori", *flags,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tau", ["0.5", "nan"])
def test_solve_checks_tau_before_reading_the_files(tmp_path, capsys, tau):
    # an out-of-range tau used to surface only after both CSVs were read, and
    # a missing matrix hid it behind the file error
    code = main(["solve", "--matrix", str(tmp_path / "nope.csv"),
                 "--measurements", str(tmp_path / "nope.csv"), "--delta", "lil",
                 "--tau", tau, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (f"error: --tau {float(tau)}: delta_rule lil tau must be "
                                       "finite and > 1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, default", [
    (["--filter", "iterated_tikhonov"], ["--order", "2"]),
    (["--filter", "landweber"], ["--relaxation", "0.9"]),
    (["--rule", "dp"], ["--q", "0.7"]),
    (["--delta", "lil"], ["--tau", "1.5"]),
], ids=["order", "relaxation", "q", "tau"])
def test_solve_omitted_flag_takes_its_schema_default(tmp_path, capsys, flags, default):
    # solve resolves its flags as config sections: an omitted flag is the key's default
    matrix, measurements = _write_identity_problem(tmp_path, n_rows=20)
    solve = ["solve", "--matrix", matrix, "--measurements", measurements, *flags]
    out_default, out_given = tmp_path / "default", tmp_path / "given"
    assert main([*solve, "--out", str(out_default)]) == 0
    assert main([*solve, *default, "--out", str(out_given)]) == 0
    capsys.readouterr()
    for name in ("solution.csv", "choice.json"):
        assert (out_default / name).read_bytes() == (out_given / name).read_bytes()


def test_solve_lil_defaults_tau_to_one_and_a_half(tmp_path, capsys):
    matrix, measurements = _write_identity_problem(tmp_path, n_rows=20)
    out_default = tmp_path / "default"
    assert main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--delta", "lil", "--out", str(out_default)]) == 0
    capsys.readouterr()
    samples = np.loadtxt(measurements, delimiter=",")
    s_n = math.sqrt(np.sum((samples - samples.mean(axis=0)) ** 2) / 19)
    choice = json.loads((out_default / "choice.json").read_text())
    assert choice["delta_est_used"] == pytest.approx(
        1.5 * s_n * math.sqrt(2.0 * math.log(math.log(20)) / 20), rel=1e-12)


@pytest.mark.parametrize("which", ["matrix", "measurements"])
def test_solve_empty_csv_names_the_file_without_a_warning(tmp_path, capsys, which):
    files = dict(zip(("matrix", "measurements"), _write_identity_problem(tmp_path)))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    files[which] = str(empty)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--matrix", files["matrix"], "--measurements",
                     files["measurements"], "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {which} CSV {empty} holds no data\n"


@pytest.mark.parametrize("which", ["matrix", "measurements"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_solve_non_finite_csv_entry_names_the_file_and_row(tmp_path, capsys, which, value):
    files = dict(zip(("matrix", "measurements"), _write_identity_problem(tmp_path)))
    bad = tmp_path / "bad.csv"
    bad.write_text(f"1.0,0.0\n0.0,1.0\n1.0,{value}\n0.5,0.5\n")
    files[which] = str(bad)
    code = main(["solve", "--matrix", files["matrix"], "--measurements",
                 files["measurements"], "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {which} CSV {bad}: row 3 has a non-finite entry\n")


def test_solve_typed_failure_is_an_error_line(tmp_path, capsys):
    matrix, measurements = _write_identity_problem(tmp_path)
    code = main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--filter", "landweber", "--relaxation", "5", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error: Landweber relaxation exceeds" in capsys.readouterr().err


def test_solve_overflowing_solution_is_an_error_line_and_writes_nothing(tmp_path, capsys):
    # on 1e-160 * I the search reaches alpha = 1.3e-322, where the filtered
    # coefficients 1/(alpha + lambda) overflow
    matrix, measurements = tmp_path / "matrix.csv", tmp_path / "measurements.csv"
    np.savetxt(matrix, 1e-160 * np.eye(4), delimiter=",", fmt="%.17g")
    rows = 1e-160 * (1.0 + 0.1 * np.random.default_rng(0).standard_normal((20, 4)))
    np.savetxt(measurements, rows, delimiter=",", fmt="%.17g")
    out = tmp_path / "out"
    code = main(["solve", "--matrix", str(matrix), "--measurements", str(measurements),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: the solution overflows double precision\n"
    assert not out.exists()


def test_solve_search_that_cannot_stop_is_one_error_line_and_writes_nothing(tmp_path, capsys):
    # the data lie far outside the range of a 6 x 3 matrix, their noise is 1e-6
    rng = np.random.default_rng(0)
    matrix, measurements = tmp_path / "matrix.csv", tmp_path / "measurements.csv"
    np.savetxt(matrix, rng.standard_normal((6, 3)), delimiter=",")
    np.savetxt(measurements, rng.standard_normal(6) + 1e-6 * rng.standard_normal((50, 6)),
               delimiter=",")
    out = tmp_path / "out"
    code = main(["solve", "--matrix", str(matrix), "--measurements", str(measurements),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: the data component outside the operator's range exceeds delta_est\n"
    assert not out.exists()


_OVERFLOW_ROWS = "1e200,2e200\n3e200,1e200\n2e200,2e200\n"


@pytest.mark.parametrize("matrix_text, rows, message", [
    # sigma = 1e308 squares to inf, which no filter takes
    ("1e308,0\n0,1e308\n", "1,2\n3,1\n2,2\n",
     "singular value 1 of 2 (1e+308) squares to inf in double precision"),
    # finite measurements whose squared deviations sum beyond the float range
    ("1e200,0\n0,1e200\n", _OVERFLOW_ROWS,
     "measurements CSV {measurements}: the measurements' mean or spread overflows "
     "double precision"),
    # a sum meeting +inf and -inf is nan
    ("1e200,0\n0,1\n", "1e300,1\n-1e300,2\n1e300,1\n",
     "measurements CSV {measurements}: the measurements' mean or spread overflows "
     "double precision"),
    ("0,0\n0,0\n", "1,2\n3,1\n2,2\n",
     "matrix CSV {matrix} has rank 0: no singular value is above 1e-14 times the largest"),
], ids=["overflowing-squares", "overflowing-spread", "opposite-overflows", "rank-0"])
def test_solve_extreme_input_is_one_error_line_and_writes_nothing(tmp_path, capsys,
                                                                  matrix_text, rows, message):
    # pytest turns any numpy RuntimeWarning on the way into a failure
    matrix, measurements = tmp_path / "matrix.csv", tmp_path / "measurements.csv"
    matrix.write_text(matrix_text)
    measurements.write_text(rows)
    out = tmp_path / "out"
    code = main(["solve", "--matrix", str(matrix), "--measurements", str(measurements),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == \
        f"error: {message.format(matrix=matrix, measurements=measurements)}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--filter", "tikhonov", "--order", "3"],
    ["--filter", "tsvd", "--relaxation", "0.5"],
    ["--filter", "landweber", "--order", "2"],
    ["--rule", "apriori", "--q", "0.5"],
])
def test_solve_rejects_settings_the_choice_does_not_take(tmp_path, capsys, flags):
    matrix, measurements = _write_identity_problem(tmp_path)
    code = main(["solve", "--matrix", matrix, "--measurements", measurements,
                 *flags, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "does not take" in capsys.readouterr().err


def test_solve_writes_files_with_the_umask_mode(tmp_path, capsys):
    matrix, measurements = _write_identity_problem(tmp_path)
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert main(["solve", "--matrix", matrix, "--measurements", measurements,
                     "--out", str(out)]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    for name in ("solution.csv", "choice.json"):
        assert (out / name).stat().st_mode & 0o777 == 0o644
    assert sorted(path.name for path in out.iterdir()) == ["choice.json", "solution.csv"]


# sha256 of (solution.csv, choice.json), pinned from the output of the solve
# command before it shared its solve path with the study harness
_GOLDEN = {
    ("identity", "dp", "sample_std"): (
        "2e9dbfbefa5ca217e26a5d1c612ba6b56edb8e84876720c01091fb1c8c73abdd",
        "fb4aeac3810f040400641c447d0a30face09b783785e7b639b4bc4934390c538"),
    ("identity", "dp", "inv_sqrt_n"): (
        "ec7aa8cb2e2d94ab82b9b912563d3d63cbc98cb9ae35ab860a69b2f36a5cacde",
        "f4cd900b3c885dc278a5f60c088f26e690ad4790a0283d03a03e31dc200d6877"),
    ("identity", "dp+es", "sample_std"): (
        "ca5e6684a0c5becece451150d4fd4696b6c38d02773858f1449aaa9b536e6d58",
        "85b7f13f834bcf34d32f164cca8612bc23488db21a2f5d5ab4cc60a26b893776"),
    ("identity", "dp+es", "inv_sqrt_n"): (
        "ec7aa8cb2e2d94ab82b9b912563d3d63cbc98cb9ae35ab860a69b2f36a5cacde",
        "f4cd900b3c885dc278a5f60c088f26e690ad4790a0283d03a03e31dc200d6877"),
    ("trapezoid", "dp", "sample_std"): (
        "96bbcb9e43d92528b559e858682c1af23ec683dca605fbfef821976ee2414293",
        "799ff4c47c7bc32436aaaa328010763f38b7d8a92ee1577621f53368767224e6"),
    ("trapezoid", "dp", "inv_sqrt_n"): (
        "8b1659eeaf08a2674d1a549f2f59e7cb8cee1687c47b335779ffe4dd08f24e23",
        "2499dd187fec023a8648fb5e560118677d3d6200a0eaa8497c95cdb21ec10081"),
    ("trapezoid", "dp+es", "sample_std"): (
        "620c7dbc889d7f1e8bb3553c7782fe305b29c0fe236e4661f87811907937a1b5",
        "a5e837e5cf33a815b859e7733c60cac58a72d978e7f01c1c50bdabe0b08bbb67"),
    ("trapezoid", "dp+es", "inv_sqrt_n"): (
        "8b1659eeaf08a2674d1a549f2f59e7cb8cee1687c47b335779ffe4dd08f24e23",
        "2499dd187fec023a8648fb5e560118677d3d6200a0eaa8497c95cdb21ec10081"),
}

_GOLDEN_APRIORI_SOLUTION = {
    "identity": "83bd49904ff6650cb07165d2a0af81ccaa25daa7691fff5508b0edd34bf8b4e5",
    "trapezoid": "837efd53172692868397c465a286e0b51ae707102f34704aeb22b38f3ab889ca",
}


@pytest.mark.parametrize("problem, rule, delta", sorted(_GOLDEN))
def test_solve_golden_outputs(tmp_path, capsys, problem, rule, delta):
    matrix, measurements = _PROBLEMS[problem][0](tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--rule", rule, "--delta", delta, "--out", str(out)]) == 0
    capsys.readouterr()
    assert (_sha256(out / "solution.csv"), _sha256(out / "choice.json")) == \
        _GOLDEN[(problem, rule, delta)]


@pytest.mark.parametrize("problem", sorted(_GOLDEN_APRIORI_SOLUTION))
def test_solve_apriori_golden_solution(tmp_path, capsys, problem):
    write, n_rows = _PROBLEMS[problem]
    matrix, measurements = write(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--rule", "apriori", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out / "solution.csv") == _GOLDEN_APRIORI_SOLUTION[problem]
    choice = json.loads((out / "choice.json").read_text())
    assert choice["delta_est_used"] == 1.0 / math.sqrt(n_rows)


@pytest.mark.parametrize("rule", ["dp", "dp+es", "apriori"])
def test_solve_reports_the_residual_at_the_chosen_alpha(tmp_path, capsys, rule):
    # the report's two residual keys are one value: the residual at alpha
    matrix, measurements = _write_trapezoid_problem(tmp_path, n_rows=50, m=33)
    out = tmp_path / "out"
    assert main(["solve", "--matrix", matrix, "--measurements", measurements,
                 "--rule", rule, "--out", str(out)]) == 0
    choice = json.loads((out / "choice.json").read_text())
    op = svd(load_matrix_csv(matrix))
    y_bar = project_data(op, load_batch_csv(measurements).mean)
    residual = row_residual(op, FilterSpec("tikhonov"), choice["alpha"], y_bar)
    assert choice["residual"].hex() == choice["residual_at_stop"].hex() == residual.hex()
    assert capsys.readouterr().out.endswith(f", residual={residual:.6g})\n")


def _readme_python_api() -> str:
    """The first python block of the README's "Python API" section."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_python_api_chain_is_the_solve_command(tmp_path, capsys, monkeypatch):
    matrix, measurements = _write_trapezoid_problem(tmp_path, n_rows=50, m=33)
    os.replace(matrix, tmp_path / "A.csv")
    os.replace(measurements, tmp_path / "Y.csv")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(_readme_python_api(), names)
    assert main(["solve", "--matrix", "A.csv", "--measurements", "Y.csv", "--out", "out"]) == 0
    capsys.readouterr()
    choice = json.loads((tmp_path / "out" / "choice.json").read_text())
    assert (names["choice"].alpha, names["choice"].k) == (choice["alpha"], choice["k"])
    written = np.loadtxt(tmp_path / "out" / "solution.csv")
    assert written.tobytes() == names["x"].tobytes()


def test_package_namespace_is_what_perfbench_reads():
    import avereg

    public = {name for name in vars(avereg) if not name.startswith("_")}
    # submodules bind themselves once imported
    public -= {"cli", "errors", "filters", "measurements", "rng", "selection", "spectral",
               "study"}
    assert public == {"svd", "project_data", "embed_solution", "FilterSpec",
                      "apply_regularizer", "discrepancy_principle"}
    assert isinstance(avereg.__version__, str)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csvs(tmp_path, capsys):
    config = _tiny_config(tmp_path)
    out = tmp_path / "study"
    code = main(["simulate", "--config", config, "--out", str(out)])
    assert code == 0
    assert (out / "dp_n50.csv").exists()
    assert (out / "summary.csv").exists()
    stdout = capsys.readouterr().out
    assert "completed rule=dp n=50" in stdout


def test_simulate_reports_failed_replications_below_the_gate(tmp_path, capsys):
    # 1 of 40 searches cannot stop: below the 5% gate, so the study completes
    matrix = tmp_path / "matrix.csv"
    np.savetxt(matrix, np.random.default_rng(0).standard_normal((30, 10)), delimiter=",")
    raw = {
        "version": 1,
        "scenario": {"name": "matrix_file", "path": str(matrix)},
        "filter": {"kind": "tikhonov"},
        "noise": {"variant": "coefficient_gaussian", "scale": 0.17},
        "rules": [{"name": "dp", "q": 0.7}],
        "delta_rule": {"name": "inv_sqrt_n"},
        "sample_sizes": [100],
        "replications": 40,
        "base_seed": 1,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "study"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "completed rule=dp n=100 (39 replications, 1 failed: 1 x the data component "
        "outside the operator's range exceeds delta_est)"
    )
    # the failed replication is still left out of the CSV
    assert len((out / "dp_n100.csv").read_text().splitlines()) == 1 + 39


def test_simulate_with_a_weight_seed_whose_first_uniform_is_one(tmp_path, capsys):
    # the first word of this seed has its top 53 bits set, so its uniform is
    # 1.0, and the weights' Fisher-Yates loop used to index past its end
    raw = json.loads(pathlib.Path(_tiny_config(tmp_path)).read_text())
    raw["scenario"] = {"name": "heat_like", "m": 100}
    raw["noise"] = {"variant": "heavy_tailed", "weight_seed": 2330121759143012144}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "study")]) == 0
    assert capsys.readouterr().err == ""


_STUDY_MODULES = """
import sys
from avereg import cli
code = cli.main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


def test_a_study_does_not_import_numpy_ma(tmp_path):
    # np.quantile imported numpy.ma on its first call, which cost each study
    # about 16 ms and 0.5 MB
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(study.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _STUDY_MODULES, "simulate", "--config",
                           _tiny_config(tmp_path), "--out", str(tmp_path / "study")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr
    assert (tmp_path / "study" / "summary.csv").read_text().count("\n") == 2


def test_simulate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "bogus": True}))
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda raw: [raw], "configuration must be a JSON object"),
    (lambda raw: {**raw, "rules": raw["rules"] * 2}, "rule names must be unique"),
], ids=["list", "repeated rule"])
def test_simulate_invalid_config_value_is_one_error_line(tmp_path, capsys, edit, message):
    config = pathlib.Path(_tiny_config(tmp_path))
    config.write_text(json.dumps(edit(json.loads(config.read_text()))))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
    assert not (tmp_path / "out").exists()


def test_simulate_deeply_nested_config_is_one_error_line(tmp_path, capsys):
    # the JSON decoder recurses once per level of nesting
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["simulate", "--config", str(deep), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read config {deep}: ")


@pytest.mark.parametrize("scenario", [{"name": "diagonal_synthetic", "m": 10**30},
                                      {"name": "heat_like", "m": 10**30},
                                      {"name": "binary_option", "grid": 10**30}])
def test_simulate_huge_scenario_is_one_error_line_before_it_is_built(tmp_path, capsys,
                                                                     monkeypatch, scenario):
    monkeypatch.setattr(study, "build_scenario", lambda *args: pytest.fail("a scenario was built"))
    raw = {**study.default_heat_config(), "replications": 1, "scenario": scenario}
    if scenario["name"] == "binary_option":
        raw = {**study.default_binopt_config(), "replications": 1, "scenario": scenario}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    key = "grid" if "grid" in scenario else "m"
    assert len(err) == 1 and err[0].startswith(
        f"error: invalid configuration: scenario {key}: {scenario['name']} at {key} = {10**30} "
        "holds ")


def test_simulate_underflowing_spectrum_is_a_config_error_that_names_m(tmp_path, capsys,
                                                                       monkeypatch):
    # these used to name no setting, or to raise from the operator's own checks
    monkeypatch.setattr(study, "_fan_out", lambda *args: pytest.fail("a batch was drawn"))
    cases = [
        ({"name": "diagonal_synthetic", "m": 50, "decay": 400},
         "diagonal_synthetic at m = 50 and decay = 400: singular value 7 of 50 (0) must be "
         "finite and strictly positive"),
        ({"name": "heat_like", "m": 2000},
         "heat_like at m = 2000 and decay = 0.326: singular value 1143 of 2000 (1.49e-162) "
         "squares to 0 in double precision"),
        ({"name": "counterexample", "m": 200},
         "counterexample at m = 200: sigma_l^2 = 10^-2l underflows to 0 beyond m = 161, "
         "got m = 200"),
    ]
    for scenario, detail in cases:
        raw = {**study.default_heat_config(), "replications": 1, "scenario": scenario}
        if scenario["name"] == "counterexample":
            del raw["source"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: invalid configuration: scenario m: {detail}\n"
        assert not out.exists()


@pytest.mark.parametrize("overrides, failed", [
    # the solution is finite, its squared norm is not
    ({"scenario": {"name": "counterexample", "m": 100, "forced_value": 1e100}}, "2 of 2"),
    # TSVD keeps a subnormal lambda, whose 1/lambda is inf
    ({"scenario": {"name": "counterexample", "m": 161, "forced_value": 1.0},
      "sample_sizes": [100000]}, "1 of 1"),
    # inf solution coefficients times zero basis entries are nan
    ({"scenario": {"name": "matrix_file"},
      "noise": {"variant": "direction_gaussian", "scale": 1e-160},
      "filter": {"kind": "tikhonov"}, "delta_rule": {"name": "sample_std"},
      "sample_sizes": [20, 200], "replications": 3}, "3 of 6"),
])
def test_simulate_overflowing_solution_error_is_one_error_line(
        tmp_path, capsys, overrides, failed):
    raw = {
        "version": 1,
        "filter": {"kind": "tsvd"},
        "rules": [{"name": "dp", "q": 0.5}],
        "delta_rule": {"name": "inv_sqrt_n"},
        "sample_sizes": [100, 1000],
        "replications": 1,
        "base_seed": 1,
        **overrides,
    }
    if raw["scenario"]["name"] == "matrix_file":
        matrix = tmp_path / "matrix.csv"
        np.savetxt(matrix, 1e-160 * np.eye(4), delimiter=",")
        raw["scenario"] = {**raw["scenario"], "path": str(matrix)}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    k = failed.split()[0]
    assert capsys.readouterr().err.splitlines() == [
        f"error: {failed} replications failed ({k} x the solution error overflows "
        "double precision); summaries would be meaningless"]


def test_simulate_rank_zero_matrix_file_is_an_input_error_before_any_draw(
        tmp_path, capsys, monkeypatch):
    # the smooth source of a rank-0 operator used to divide by its zero norm
    matrix = tmp_path / "zero.csv"
    matrix.write_text("0,0\n0,0\n")
    raw = {
        "version": 1,
        "scenario": {"name": "matrix_file", "path": str(matrix)},
        "filter": {"kind": "tikhonov"},
        "rules": [{"name": "dp"}],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [2, 3],
        "replications": 3,
        "base_seed": 1,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    monkeypatch.setattr(study, "_fan_out", lambda *args: pytest.fail("a batch was drawn"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: matrix CSV {matrix} has rank 0: no singular "
                                       "value is above 1e-14 times the largest\n")
    assert not out.exists()


def test_simulate_overflowing_source_is_a_config_error_before_any_draw(
        tmp_path, capsys, monkeypatch):
    # sigma_1 = 3.24, so sigma_1^1000 overflows: the truth itself is not a
    # float, and the measurements drawn around it used to take the blame
    matrix = tmp_path / "matrix.csv"
    np.savetxt(matrix, np.random.default_rng(0).standard_normal((8, 5)), delimiter=",")
    raw = {
        "version": 1,
        "scenario": {"name": "matrix_file", "path": str(matrix)},
        "source": {"nu": 1000},
        "noise": {"variant": "direction_gaussian"},
        "filter": {"kind": "tikhonov"},
        "rules": [{"name": "dp"}],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [20],
        "replications": 3,
        "base_seed": 1,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    monkeypatch.setattr(study, "_fan_out", lambda *args: pytest.fail("a batch was drawn"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: invalid configuration: source nu: the solution "
                                       "or data at nu = 1000 and rho = 1 overflow double "
                                       "precision\n")
    assert not out.exists()


def _heavy_tailed_config(tmp_path, shape, replications):
    raw = {
        "version": 1,
        "scenario": {"name": "heat_like", "m": 20},
        "noise": {"variant": "heavy_tailed", "shape": shape},
        "filter": {"kind": "tikhonov"},
        "rules": [{"name": "dp"}],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [1000],
        "replications": replications,
        "base_seed": 1,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return str(config)


def test_simulate_overflowing_heavy_tailed_spread_is_one_error_line(tmp_path, capsys):
    # at shape 50 the Pareto latents of replications 1 and 2 square beyond
    # the float range; each fails alone, without a warning, and 2 of 3 are
    # above the 5% gate
    config = _heavy_tailed_config(tmp_path, 50.0, 3)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: 2 of 3 replications failed (2 x the measurements' mean or spread overflows "
        "double precision); summaries would be meaningless\n")


def test_simulate_overflowing_batch_below_the_gate_fails_only_its_replication(tmp_path,
                                                                              capsys):
    # at shape 30 only the batch of replication 5 of 100 overflows
    config = _heavy_tailed_config(tmp_path, 30.0, 100)
    out = tmp_path / "out"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "completed rule=dp n=1000 (99 replications, 1 failed: 1 x the measurements' mean "
        "or spread overflows double precision)")
    rows = (out / "dp_n1000.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == [rep for rep in range(100) if rep != 5]


def test_simulate_divergent_landweber_is_an_error_before_any_draw(
        tmp_path, capsys, monkeypatch):
    # relaxation 2 exceeds 1/sigma_1^2 = 1: the iteration diverges on the
    # spectrum itself, whatever the data
    raw = {
        "version": 1,
        "scenario": {"name": "diagonal_synthetic", "m": 100, "decay": 1e-4},
        "noise": {"variant": "coefficient_gaussian"},
        "filter": {"kind": "landweber", "relaxation": 2.0},
        "rules": [{"name": "dp"}],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [1000, 10000, 100000],
        "replications": 5,
        "base_seed": 1,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    monkeypatch.setattr(study, "_fan_out", lambda *args: pytest.fail("a batch was drawn"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: Landweber relaxation exceeds 1/sigma_1^2: divergent iteration\n")
    assert not out.exists()


def test_simulate_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # 10^15 samples of 100 coefficients are 8e17 bytes, beyond any address
    # space, so the allocation fails at once and nothing is forked; a budget
    # that claims to hold them lets the study try
    monkeypatch.setattr(study, "_budget", lambda: 1 << 62)
    raw = {
        "version": 1,
        "scenario": {"name": "diagonal_synthetic", "m": 100},
        "noise": {"variant": "coefficient_gaussian"},
        "filter": {"kind": "tikhonov"},
        "rules": [{"name": "dp"}],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [10**15],
        "replications": 1,
        "base_seed": 1,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: ")


def test_out_of_memory_without_a_message_is_one_error_line(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("avereg.cli.verify_filter_constants", fail)
    assert main(["verify-filters"]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    config = _tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", config, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", config, "--out", str(out_b)]) == 0
    capsys.readouterr()
    for path in out_a.iterdir():
        assert path.read_bytes() == (out_b / path.name).read_bytes()


@pytest.mark.parametrize("argv", [
    ["counterexample", "--seed", str(2**64)],
    ["counterexample", "--seed", "-1"],
    ["heat", "--seed", str(2**64)],
    ["simulate", "--seed", "-1"],
])
def test_seed_flag_outside_the_generator_range_is_a_config_error(tmp_path, capsys, argv):
    # RandomStream reads seeds mod 2^64: --seed 2^64 used to replay --seed 0
    if argv[0] == "simulate":
        argv = [*argv, "--config", _tiny_config(tmp_path)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert "base_seed must be an integer in [0, 2^64)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_seed_override_changes_records(tmp_path, capsys):
    config = _tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", config, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", config, "--seed", "77",
                 "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "dp_n50.csv").read_bytes() != (out_b / "dp_n50.csv").read_bytes()


# ---------------------------------------------------------------------------
# canned studies


def test_counterexample_forced_prints_alpha_lines(tmp_path, capsys):
    code = main(["counterexample", "--n-max", "4", "--forced",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("n=")]
    assert len(lines) == 3
    for n, line in zip((2, 3, 4), lines):
        alpha = float(line.split("alpha=")[1].split()[0])
        assert alpha < 100.0**-n


def test_counterexample_emergency_flag(tmp_path, capsys):
    code = main(["counterexample", "--n-max", "3", "--forced", "--emergency",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("n=")]
    assert all("emergency=1" in line for line in lines)


@pytest.mark.parametrize("flags", [["--forced"], ["--forced", "--emergency"]])
def test_counterexample_rejects_a_seed_the_forced_noise_ignores(tmp_path, capsys, flags):
    code = main(["counterexample", *flags, "--seed", "7", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seed is ignored with --forced")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_max", ["1", "0", "-5"])
def test_counterexample_rejects_an_n_max_below_two_by_its_flag(tmp_path, capsys, n_max):
    assert main(["counterexample", "--n-max", n_max, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: --n-max must be at least 2, not {n_max}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, rows", [
    ({"name": "heat_like", "m": 20}, {"dp": 4, "dp+es": 4}),
    ({"name": "binary_option", "grid": 32}, {"dp": 4}),
], ids=["heat_like", "binary_option"])
def test_simulate_runs_a_small_custom_config(tmp_path, capsys, scenario, rows):
    # heat and binopt run their built-in study only; simulate runs any config
    raw = {
        "version": 1,
        "scenario": scenario,
        "filter": {"kind": "tikhonov"},
        "rules": [{"name": rule, "q": 0.7} for rule in rows],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [200],
        "replications": 4,
        "base_seed": 3,
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + len(rows)  # header + one row per rule
    for rule, count in rows.items():
        csv = (out / f"{rule.replace('+', '_plus_')}_n200.csv").read_text()
        assert len(csv.strip().splitlines()) == 1 + count  # header + replications


@pytest.mark.parametrize("command", ["heat", "binopt"])
def test_heat_and_binopt_take_no_config(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--config", str(tmp_path / "x.json"), "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# verification


def test_verify_filters_passes(capsys):
    # each kind at its config defaults, up to its qualification or nu = 20
    assert main(["verify-filters"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "tikhonov: C_R 1/1 C_F 1/1 C_nu(nu=2) 1/1 monotone=True -> pass",
        "iterated_tikhonov(2): C_R 1/1 C_F 2/2 C_nu(nu=4) 1/1 monotone=True -> pass",
        "tsvd: C_R 1/1 C_F 1/1 C_nu(nu=20) 0.972061/1 monotone=True -> pass",
        "landweber(a=0.9): C_R 1/1 C_F 1.27301/2 C_nu(nu=20) 1.30181e+06/1.30206e+06 "
        "monotone=True -> pass",
    ]


def test_verify_filters_violation_exits_3(capsys, monkeypatch):
    # a declared C_F of 1.5 holds for every kind but iterated Tikhonov of order 2
    monkeypatch.setattr(FilterSpec, "c_f", 1.5)
    assert main(["verify-filters"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == [
        "iterated_tikhonov(2): C_R 1/1 C_F 2/1.5 C_nu(nu=4) 1/1 monotone=True -> FAIL",
        "  violation: C_F observed 2 exceeds declared 1.5",
    ]
    assert [line[-4:] for line in lines if "->" in line] == ["pass", "FAIL", "pass", "pass"]
    assert len(lines) == 5


def test_unknown_command_exits_via_argparse(tmp_path, capsys):
    # README: usage errors are parse errors and exit 1; 2 is for degenerate statistics
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1
    matrix, measurements = _write_identity_problem(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--matrix", matrix, "--measurements", measurements,
              "--filter", "iterated_tikhonov", "--order", "abc"])
    assert excinfo.value.code == 1
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", "--help"])
    assert excinfo.value.code == 0


# a coefficient-Gaussian study: every batch holds its full n x m sample matrix
_FULL_SAMPLE_STUDY = {
    "version": 1,
    "scenario": {"name": "diagonal_synthetic", "m": 7},
    "noise": {"variant": "coefficient_gaussian", "scale": 1.0},
    "filter": {"kind": "tikhonov"},
    "rules": [{"name": "dp"}],
    "delta_rule": {"name": "sample_std"},
    "sample_sizes": [10, 30],
    "replications": 3,
    "base_seed": 1,
}


@pytest.mark.parametrize("command", ["verify-filters", "simulate"])
def test_perfbench_tracer_finds_every_boundary(tmp_path, command):
    # the traced benchmark wraps names where each module binds them; a module
    # that stops binding one makes the child fail before it runs the command
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    argv = [command]
    if command == "simulate":
        config = tmp_path / "study.json"
        config.write_text(json.dumps(_FULL_SAMPLE_STUDY))
        argv += ["--config", str(config), "--out", str(tmp_path / "out")]
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "trace", str(report),
         "--", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(report.read_text())
    assert traced["calls"]["cli"] == 1
    if command == "simulate":
        # perfbench reads the batch's private sample matrix; a rename would
        # silently read no bytes.  The tracer sees only the caller's run of
        # the forked study, which draws the pairs from the last: items -1,
        # -1 - runs, -1 - 2 runs, ...
        config = _FULL_SAMPLE_STUDY
        items = [n for n in config["sample_sizes"] for _ in range(config["replications"])]
        runs = min(study._cores(), len(items))
        expected = sum(items[::-1][::runs]) * 7 * 8
        assert traced["counts"]["measurements.bytes_materialized"] == expected


def test_importing_the_cli_does_not_import_scipy():
    # scipy is a test dependency only; importing scipy.special costs about
    # 0.3 s of start-up
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, avereg.cli, avereg.study as s, avereg.measurements as m; "
         "s.binary_option_truth(m.BinaryOptionParams.default(16)); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
