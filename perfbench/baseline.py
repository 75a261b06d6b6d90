"""Run every workload on several seeds plus one traced run each, print every
metric by name with its unit and spread, and write the results as a baseline.

    python3 perfbench/baseline.py [--out FILE]

Each run is a separate ``perfbench/run.py`` process, as the benchmark is
invoked.  The untraced runs use seeds 1..10; the traced run uses run.py's
default seed, whose study CSVs are also checked against the recorded digests.
A spread is the distance between the quartiles as a share of the median.  An
unresolved trace.overhead_s is recorded as null, with its paired figures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, HERE, ROOT, WORKLOADS, fail_frac, summarize

SEEDS = range(1, 11)


def invoke(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        key, _, value = line.partition(" ")
        if key in ("env", "trace_overhead"):
            result[key] = json.loads(value)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = {"benchmark": spec, "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        runs = [invoke(workload, seed, 0) for seed in SEEDS]
        traced = invoke(workload, DEFAULT_SEED, 1)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        correct = all(r["correct"] for r in runs + [traced])
        all_correct = all_correct and correct
        summaries = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            summaries[name] = summarize([r["metrics"][name]["value"] for r in runs])
            s = summaries[name]
            flag = "" if s["spread"] < entry["bound"] / 3 else "  (spread >= bound/3)"
            print(f"{workload} {name} = {s['median']:.6g} {entry['unit']} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.4f}, "
                  f"bound {entry['bound']}, n={s['n']}]{flag}")
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        if not traced["trace_overhead"]["resolved"]:
            layers["trace.overhead_s"] = None
        for name, value in layers.items():
            unit = traced["metrics"][name]["unit"]
            shown = "unresolved" if value is None else f"{value:.6g} {unit}"
            print(f"{workload} {name} = {shown} (traced)")
        print(f"{workload} fail_frac = {fail_frac(attempted, failed):.6g} "
              f"({failed} of {attempted} cells), correct = {correct}")
        baseline["workloads"][workload] = {
            "end_to_end": summaries,
            "per_layer": layers,
            "trace_overhead": traced["trace_overhead"],
            "attempted": attempted,
            "failed": failed,
            "correct": correct,
            "runs": runs,
            "traced_run": traced,
        }
    args.out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
