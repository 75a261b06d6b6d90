"""Benchmark of the avereg command line; every timed child is a fresh interpreter.

    python3 perfbench/run.py --workload heat [--seed 99] [--seconds S] [--trace 0|1]

Workloads, with inputs made from --seed by numpy's default_rng:

  heat         the default ``avereg heat`` study with --seed: rank-one
               heavy-tailed noise, 1,800 cells, many discrepancy searches
  coef_gauss   ``avereg simulate`` with coefficient_gaussian noise: full n x m
               sample matrices, 30 cells
  dense_solve  ``avereg solve`` on the 512 x 512 trapezoid integration matrix
               with 2,000 noisy measurements: one dense SVD

With --trace 0, untraced children run one after another until --seconds of
child time have passed (at least one child); each end-to-end metric is the
median over them.  With --trace 1, an untraced and a traced child alternate
and the per-layer metrics are medians over the traced ones; trace.overhead_s
is the median traced-minus-untraced difference over adjacent pairs, printed
as unresolved when it is within the untraced spread.  Every child's
outputs are checked.  The last line of stdout is one JSON object
{correct, attempted, failed, metrics}; the metric names and units come from
BENCHMARK.json.  Cells are (rule, n, replication) triples, or the one solve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
EXPECTED_DIGESTS = HERE / "expected_digests.json"

DEFAULT_SEED = 99  # also the default seed of ``avereg heat``
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SOLUTION_RTOL = 1e-8


# ---------------------------------------------------------------------------
# summaries


def summarize(values) -> dict:
    """Median, quartiles as statistics.quantiles(n=4) gives them, and their
    distance as a share of the median."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else math.inf
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def completed_cells(out_dir: Path, csv_names) -> int:
    """Data rows over the per-(rule, n) CSVs; the study drops failed cells."""
    rows = 0
    for name in csv_names:
        path = out_dir / name
        if path.exists():
            with open(path) as fh:
                rows += max(sum(1 for line in fh if line.strip()) - 1, 0)
    return rows


def fail_frac(attempted: int, failed: int) -> float:
    return failed / attempted


# ---------------------------------------------------------------------------
# workloads


class Study:
    """A study command; attempted cells follow from its config.  Its cell rate
    is taken over the time after set-up."""

    setup = "study.build_scenario"
    rate_after_setup = True

    def __init__(self, name, rules, sizes, replications, predictions):
        self.name = name
        self.rules = rules
        self.sizes = sizes
        self.cells = len(rules) * len(sizes) * replications
        self.predictions = predictions
        self.csv_names = [f"{rule.replace('+', '_plus_')}_n{n}.csv"
                          for rule in rules for n in sizes]

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.reference = None
        expected = json.loads(EXPECTED_DIGESTS.read_text())
        self.expected = expected.get(self.name) if seed == DEFAULT_SEED else None

    def check(self, out: Path) -> tuple[int, str | None]:
        """Completed cells, and a reason when the outputs are wrong."""
        completed = completed_cells(out, self.csv_names)
        missing = [name for name in self.csv_names if not (out / name).exists()]
        if missing:
            return completed, f"missing {', '.join(missing)}"
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.glob("*.csv"))}
        if self.reference is None:
            self.reference = digests
        if digests != self.reference:
            return completed, "CSV digests differ between runs of the same seed"
        if self.expected is not None and digests != self.expected:
            return completed, f"CSV digests differ from {EXPECTED_DIGESTS.name}"
        return completed, None


class Heat(Study):
    def __init__(self):
        super().__init__("heat", ("dp", "dp+es", "apriori"), (1000, 10000, 100000), 200, [
            ("spectral.svd.calls", "==", 0),
            ("filters.residual_norm.calls", ">", 0),
            ("measurements.bytes_materialized", "==", 0),
        ])

    def argv(self, out: Path) -> list[str]:
        return ["heat", "--seed", str(self.seed), "--out", str(out)]


class CoefGauss(Study):
    def __init__(self):
        super().__init__("coef_gauss", ("dp", "dp+es"), (1000, 10000, 100000), 5, [
            ("spectral.svd.calls", "==", 0),
            ("measurements.bytes_materialized", ">", 0),
        ])

    def prepare(self, seed: int, work: Path) -> None:
        super().prepare(seed, work)
        config = {
            "version": 1,
            "scenario": {"name": "diagonal_synthetic", "m": 100, "decay": 1.0},
            "filter": {"kind": "tikhonov"},
            "noise": {"variant": "coefficient_gaussian", "scale": 1.0},
            "rules": [{"name": rule} for rule in self.rules],
            "delta_rule": {"name": "sample_std"},
            "sample_sizes": list(self.sizes),
            "replications": 5,
            "base_seed": seed,
        }
        self.config_path = work / "coef_gauss.json"
        self.config_path.write_text(json.dumps(config, indent=2) + "\n")

    def argv(self, out: Path) -> list[str]:
        return ["simulate", "--config", str(self.config_path), "--out", str(out)]


def trapezoid_matrix(m: int) -> np.ndarray:
    """Cumulative integration on {h, ..., 1}: h below the diagonal, h/2 on it."""
    h = 1.0 / m
    return np.tril(np.full((m, m), h), -1) + np.eye(m) * (h / 2.0)


def tikhonov_dp_oracle(matrix, samples, q: float = 0.7, k_max: int = 10_000):
    """(alpha, k, x) of Tikhonov with the discrepancy principle on the
    alpha = q^k grid and delta = s_n / sqrt(n), from LAPACK's SVD."""
    u, sigma, vt = np.linalg.svd(matrix)
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    delta = math.sqrt(float(np.sum((samples - mean) ** 2)) / (n - 1)) / math.sqrt(n)
    coef = u.T @ mean
    orthogonal = float(np.linalg.norm(mean - u @ coef))
    lam = sigma**2
    alpha = 1.0
    for k in range(k_max + 1):
        residual = math.sqrt(float(np.sum((alpha / (alpha + lam) * coef) ** 2))
                             + orthogonal**2)
        if residual <= delta:
            return alpha, k, vt.T @ (sigma / (lam + alpha) * coef)
        alpha *= q
    raise RuntimeError("oracle discrepancy search did not stop")


class DenseSolve:
    """One solve; its set-up ends when the CLI's SVD returns.  The one cell is
    the whole command, so its rate is taken over the whole wall time (the
    0.1 s after the SVD is too short to time on its own)."""

    name = "dense_solve"
    setup = "cli.svd"
    rate_after_setup = False
    cells = 1
    predictions = [
        ("spectral.svd.calls", "==", 1),
        ("measurements.bytes_materialized", "==", 0),
    ]
    m = 512
    n = 2000
    noise = 0.01

    def prepare(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        matrix = trapezoid_matrix(self.m)
        t = np.arange(1, self.m + 1) / self.m
        weights = rng.standard_normal(4)
        x_true = sum(w * np.sin((j + 1) * np.pi * t) / (j + 1) ** 2
                     for j, w in enumerate(weights))
        samples = matrix @ x_true + self.noise * rng.standard_normal((self.n, self.m))
        self.matrix_path = work / "matrix.csv"
        self.samples_path = work / "measurements.csv"
        np.savetxt(self.matrix_path, matrix, fmt="%.17g", delimiter=",")
        np.savetxt(self.samples_path, samples, fmt="%.17g", delimiter=",")
        self.alpha, self.k, self.x = tikhonov_dp_oracle(matrix, samples)

    def argv(self, out: Path) -> list[str]:
        return ["solve", "--matrix", str(self.matrix_path),
                "--measurements", str(self.samples_path), "--filter", "tikhonov",
                "--rule", "dp", "--delta", "sample_std", "--out", str(out)]

    def check(self, out: Path) -> tuple[int, str | None]:
        try:
            choice = json.loads((out / "choice.json").read_text())
            x = np.loadtxt(out / "solution.csv", ndmin=1)
        except (OSError, ValueError) as exc:
            return 0, f"unreadable solve output: {exc}"
        if choice.get("alpha") != self.alpha or choice.get("k") != self.k:
            return 0, (f"alpha/k {choice.get('alpha')}/{choice.get('k')} differ from "
                       f"the oracle's {self.alpha}/{self.k}")
        if x.shape != self.x.shape:
            return 0, f"solution has shape {x.shape}, oracle {self.x.shape}"
        error = float(np.linalg.norm(x - self.x) / np.linalg.norm(self.x))
        if not error <= SOLUTION_RTOL:
            return 0, f"solution is {error:.3g} relative from the oracle"
        return 1, None


WORKLOADS = {"heat": Heat, "coef_gauss": CoefGauss, "dense_solve": DenseSolve}


# ---------------------------------------------------------------------------
# children


class ChildFailed(RuntimeError):
    pass


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(work)
    return env


def run_child(args: list[str], work: Path, deadline: float) -> dict:
    """Run child.py with args; wall time from spawn to exit, peak RSS from
    wait4.  The child is killed at the deadline."""
    errors = work / "child.err"
    with open(errors, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=work,
                                env=_child_env(work), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"start": start, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "exit": proc.returncode}
    if proc.returncode != 0:
        tail = errors.read_text().strip().splitlines()[-5:]
        result["error"] = f"exit {proc.returncode}: " + " | ".join(tail)
    return result


def probe(work: Path) -> dict:
    """Import the package in a child (warming bytecode and file caches) and
    return the versions it sees; the package must come from this checkout."""
    report = work / "probe.json"
    child = run_child(["probe", str(report)], work, time.monotonic() + 60.0)
    if child["exit"] != 0:
        raise ChildFailed(f"cannot import avereg from {SRC}: {child['error']}")
    info = json.loads(report.read_text())
    if not Path(info.pop("avereg_file")).is_relative_to(SRC):
        raise ChildFailed(f"avereg was not imported from {SRC}")
    return info


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# metrics


def end_to_end(child: dict, completed: int, rate_after_setup: bool) -> dict:
    wall = child["wall_s"]
    setup = child.get("setup_end", child["start"] + wall) - child["start"]
    busy = wall - setup if rate_after_setup else wall
    return {
        "wall_s": wall,
        "setup_s": setup,
        "cells_per_s": completed / busy if busy > 0 else 0.0,
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer(report: dict) -> dict:
    self_s, calls, counts = report["self_s"], report["calls"], report["counts"]
    searches = calls.get("selection.discrepancy_principle", 0)
    metrics = {"cli.self_s": self_s.get("cli", 0.0),
               "rng.self_s": self_s.get("rng", 0.0),
               "rng.variates": counts.get("rng.variates", 0),
               "spectral.project.self_s": self_s.get("spectral.project", 0.0),
               "measurements.bytes_materialized": counts.get(
                   "measurements.bytes_materialized", 0),
               "study.write_study_csvs.bytes": counts.get("study.write_study_csvs.bytes", 0),
               "selection.evals_per_search":
                   counts.get("selection.evals", 0) / searches if searches else 0.0}
    for span in ("spectral.svd", "spectral.load_matrix_csv", "measurements.draw_batch",
                 "measurements.delta_est", "filters.residual_norm",
                 "filters.apply_regularizer", "selection.discrepancy_principle",
                 "study.build_scenario", "study.run_study", "study.write_study_csvs"):
        metrics[f"{span}.calls"] = calls.get(span, 0)
        metrics[f"{span}.self_s"] = self_s.get(span, 0.0)
    return metrics


def broken_predictions(workload, layers: dict) -> list[str]:
    compare = {"==": lambda a, b: a == b, ">": lambda a, b: a > b}
    return [f"{name} = {layers[name]}, predicted {op} {value}"
            for name, op, value in workload.predictions
            if not compare[op](layers[name], value)]


# ---------------------------------------------------------------------------
# a run


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run children for ``seconds`` of child time; return per-child results."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workload.prepare(seed, work)
    plain, traced, problems = [], [], []
    attempted = failed = 0
    spent = 0.0
    modes = ("plain", "trace") if trace else ("plain",)
    while True:
        for mode in modes:
            out = work / "out"
            shutil.rmtree(out, ignore_errors=True)
            report_path = work / "report.json"
            report_path.unlink(missing_ok=True)
            args = [mode, str(report_path)]
            if mode == "plain":
                args.append(workload.setup)
            child = run_child([*args, "--", *workload.argv(out)], work, deadline)
            spent += child["wall_s"]
            attempted += workload.cells
            problem = child.get("error")
            completed = 0
            try:
                report = json.loads(report_path.read_text())
            except (OSError, ValueError):
                report = {}
            if problem is None:
                completed, problem = workload.check(out)
            if problem is None and mode == "plain" and "setup_end" not in report:
                problem = f"{workload.setup} was never called"
            if problem is None and mode == "trace":
                layers = per_layer(report)
                broken = broken_predictions(workload, layers)
                problem = "; ".join(broken) if broken else None
                traced.append({"wall_s": child["wall_s"], "layers": layers})
            if mode == "plain":
                child.update(report)
                plain.append(end_to_end(child, completed, workload.rate_after_setup))
            if problem is not None:
                problems.append(f"{mode} child: {problem}")
                failed += workload.cells
            else:
                failed += workload.cells - completed
        room = deadline - time.monotonic()
        if problems or spent >= seconds or room < 2.0 * spent / len(plain):
            break
    measured = {"plain": plain, "traced": traced, "problems": problems,
                "attempted": attempted, "failed": failed}
    if traced:
        measured["trace_overhead"] = trace_overhead([p["wall_s"] for p in plain],
                                                    [t["wall_s"] for t in traced])
    return measured


def trace_overhead(plain_walls, traced_walls) -> dict:
    """Traced minus untraced wall time, as the median over the pairs of a
    traced child and the untraced child run just before it.  It is resolved
    only when it exceeds the spread (quartile distance) of the untraced wall
    times; below that it cannot be told from drift of the host."""
    differences = [t - p for p, t in zip(plain_walls, traced_walls)]
    plain = summarize(plain_walls)
    noise_s = plain["q3"] - plain["q1"]
    median = statistics.median(differences)
    return {"pairs": len(differences), "median_s": median, "plain_spread_s": noise_s,
            "resolved": len(differences) > 1 and median > noise_s}


def result_metrics(spec: dict, measured: dict, trace: bool) -> tuple[dict, int]:
    """(metrics with value and unit, number of children they are medians of)."""
    if trace:
        names = spec["per_layer"]
        rows = [t["layers"] for t in measured["traced"]]
        if rows:
            overhead = measured["trace_overhead"]["median_s"]
            for row in rows:
                row["trace.overhead_s"] = overhead
    else:
        names = spec["end_to_end"]
        rows = measured["plain"]
    metrics = {}
    for entry in names:
        values = [row[entry["name"]] for row in rows] or [0.0]
        metrics[entry["name"]] = {"value": statistics.median(values), "unit": entry["unit"]}
    return metrics, len(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="child time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not (SRC / "avereg" / "__init__.py").exists():
        print(f"error: no avereg sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        try:
            env = probe(work)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        env.update(commit=git_commit(), seed=args.seed, workload=args.workload,
                   seconds=seconds, trace=args.trace)
        measured = measure(WORKLOADS[args.workload](), args.seed, seconds,
                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    metrics, samples = result_metrics(spec, measured, bool(args.trace))
    attempted, failed = measured["attempted"], measured["failed"]
    print("env " + json.dumps(env, sort_keys=True))
    for problem in measured["problems"]:
        print(f"FAILED {problem}")
    if "trace_overhead" in measured:
        print("trace_overhead " + json.dumps(measured["trace_overhead"], sort_keys=True))
    for name, metric in metrics.items():
        note = f"median of {samples}"
        if name == "trace.overhead_s" and not measured["trace_overhead"]["resolved"]:
            overhead = measured["trace_overhead"]
            note = (f"unresolved: median of {overhead['pairs']} paired differences, "
                    f"within the untraced spread of {overhead['plain_spread_s']:.3g} s")
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']} ({note})")
    print(f"{args.workload} fail_frac = {fail_frac(attempted, failed):.6g} "
          f"({failed} of {attempted} cells)")
    print(json.dumps({"correct": not measured["problems"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
