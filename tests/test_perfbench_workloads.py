"""The benchmark's workloads run through the CLI and pass the benchmark's own
output check: the CSV digests in perfbench/expected_digests.json and the
dense-solve oracle.  A byte drift in a workload's output fails here before
it shows as failed benchmark operations."""

import importlib.util
from pathlib import Path

import pytest

from avereg import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


@pytest.mark.golden_bits
@pytest.mark.parametrize("workload", [run.Heat, run.CoefGauss, run.DenseSolve],
                         ids=lambda workload: workload.__name__)
def test_benchmark_workload_passes_its_own_check(workload, tmp_path, capsys):
    workload = workload()
    workload.prepare(99, tmp_path)  # the seed the expected digests are for
    if isinstance(workload, run.Study):
        assert workload.expected is not None
    out = tmp_path / "out"
    assert cli.main(workload.argv(out)) == 0
    assert workload.check(out) == (workload.cells, None)
