"""Tests of the benchmark's own arithmetic: span self time, cell counts and
fail_frac, the quartile summary, and the dense-solve oracle."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
child = _load("child")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = child.Tracer(clock)
    tracer.enter("study.run_study")
    clock.now += 1.0
    tracer.enter("measurements.draw_batch")
    clock.now += 4.0
    tracer.exit()
    clock.now += 2.0
    tracer.exit()
    assert tracer.self_s == {"study.run_study": 3.0, "measurements.draw_batch": 4.0}
    assert tracer.calls == {"study.run_study": 1, "measurements.draw_batch": 1}


def test_nested_rng_draws_count_once():
    clock = FakeClock()
    tracer = child.Tracer(clock)
    count = child.variates_counter(tracer)

    class Stream:
        def uniforms(self, n):
            clock.now += 1.0
            return n

        def normals(self, n):
            clock.now += 0.5
            self.uniforms((n + 1) // 2)
            self.uniforms((n + 1) // 2)
            return n

    for method in ("uniforms", "normals"):
        setattr(Stream, method, tracer.wrap("rng", getattr(Stream, method), before=count))

    tracer.enter("measurements.draw_batch")
    Stream().normals(10)
    Stream().uniforms(n=3)
    clock.now += 0.25
    tracer.exit()
    # the two inner uniforms belong to the normals request
    assert tracer.counts == {"rng.variates": 13}
    assert tracer.calls["rng"] == 4
    assert tracer.self_s["rng"] == pytest.approx(3.5)
    assert tracer.self_s["measurements.draw_batch"] == pytest.approx(0.25)


def test_fail_frac_from_csv_rows(tmp_path):
    header = "replication,error,alpha,k,emergency,delta_true,delta_est\n"
    names = ["dp_n1000.csv", "apriori_n1000.csv"]
    for name in names:
        rows = "".join(f"{rep},0.1,0.5,1,0,0.01,0.01\n" for rep in range(3))
        (tmp_path / name).write_text(header + rows)
    assert run.completed_cells(tmp_path, names) == 6

    path = tmp_path / "dp_n1000.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    completed = run.completed_cells(tmp_path, names)
    assert completed == 5
    assert run.fail_frac(6, 6 - completed) == pytest.approx(1 / 6)

    path.unlink()
    assert run.completed_cells(tmp_path, names) == 3


def test_summary_median_and_quartiles():
    summary = run.summarize(range(1, 11))
    assert summary["n"] == 10
    assert summary["median"] == 5.5
    assert (summary["q1"], summary["q3"]) == (2.75, 8.25)
    assert summary["spread"] == pytest.approx(1.0)

    single = run.summarize([2.0])
    assert (single["median"], single["q1"], single["q3"], single["spread"]) == (2.0, 2.0, 2.0, 0.0)


def test_trace_overhead_pairs_adjacent_children():
    plain = [2.0, 3.0, 2.0, 3.0, 2.5]
    overhead = run.trace_overhead(plain, [p + 0.1 for p in plain])
    assert overhead["pairs"] == 5
    assert overhead["median_s"] == pytest.approx(0.1)
    assert overhead["plain_spread_s"] == pytest.approx(1.0)
    assert not overhead["resolved"]

    steady = [2.0, 2.01, 2.0, 2.02]
    assert run.trace_overhead(steady, [p + 0.1 for p in steady])["resolved"]
    # one pair has no spread to compare with
    assert not run.trace_overhead([2.0], [3.0])["resolved"]


def test_predictions_flag_a_zeroed_layer():
    layers = {"spectral.svd.calls": 0, "measurements.bytes_materialized": 0}
    broken = run.broken_predictions(run.DenseSolve(), layers)
    assert broken == ["spectral.svd.calls = 0, predicted == 1"]


def test_oracle_matches_the_library_solve():
    avereg = pytest.importorskip("avereg")
    rng = np.random.default_rng(3)
    matrix = run.trapezoid_matrix(24)
    x_true = np.sin(np.pi * np.arange(1, 25) / 24)
    samples = matrix @ x_true + 0.01 * rng.standard_normal((200, 24))
    alpha, k, x = run.tikhonov_dp_oracle(matrix, samples)

    op = avereg.svd(matrix)
    mean = samples.mean(axis=0)
    delta = math.sqrt(float(np.sum((samples - mean) ** 2)) / 199) / math.sqrt(200)
    y_bar = avereg.project_data(op, mean)
    spec = avereg.FilterSpec.tikhonov()
    choice = avereg.discrepancy_principle(op, spec, y_bar, delta)
    solution = avereg.apply_regularizer(op, spec, choice.alpha, y_bar)
    expected = avereg.embed_solution(op, solution.x)

    assert (choice.alpha, choice.k) == (alpha, k)
    assert np.linalg.norm(x - expected) <= run.SOLUTION_RTOL * np.linalg.norm(expected)
