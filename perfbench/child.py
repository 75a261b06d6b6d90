"""Child-process bootstrap: run one avereg CLI command in this interpreter.

    python3 perfbench/child.py probe REPORT
    python3 perfbench/child.py plain REPORT SETUP -- CLI-ARGS...
    python3 perfbench/child.py trace REPORT -- CLI-ARGS...

``probe`` imports the package and records the versions and BLAS threads the
runs will see.  ``plain`` runs the command with a single timestamp taken when
the set-up call SETUP (``module.name``, wrapped where that module looks it
up) returns; nothing else is wrapped.  ``trace`` wraps every public boundary
in BOUNDARIES and RNG_METHODS at each module that looks it up, and records
per-span self time and counts.  Each mode writes a JSON report to REPORT and
exits with the command's exit code.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import platform
import sys
import time

MODULES = ("rng", "measurements", "spectral", "filters", "selection", "study", "cli")

# (span, defining module, name, modules that must look the name up there).
# A name is wrapped at every avereg module that binds it, so a call through
# ``selection.residual_norm`` is counted as well as one through ``filters``.
BOUNDARIES = (
    ("spectral.svd", "spectral", "svd", ("cli", "study")),
    ("spectral.load_matrix_csv", "spectral", "load_matrix_csv", ("cli", "study")),
    ("spectral.project", "spectral", "project_data", ("cli", "study")),
    ("spectral.project", "spectral", "project_solution", ("study",)),
    ("spectral.project", "spectral", "embed_solution", ("cli", "study")),
    ("measurements.draw_batch", "measurements", "draw_batch", ("study",)),
    ("measurements.delta_est", "measurements", "delta_est", ("study",)),
    ("filters.residual_norm", "filters", "residual_norm", ("selection",)),
    ("filters.apply_regularizer", "filters", "apply_regularizer", ("cli", "study")),
    ("selection.discrepancy_principle", "selection", "discrepancy_principle",
     ("cli", "study")),
    ("study.build_scenario", "study", "build_scenario", ()),
    ("study.run_study", "study", "run_study", ("cli",)),
    ("study.write_study_csvs", "study", "write_study_csvs", ("cli",)),
)

RNG_METHODS = ("uniforms", "symmetric_uniforms", "normals", "generalized_pareto",
               "permutation")


class BoundaryError(RuntimeError):
    """A traced name is missing or no longer looked up where expected."""


class Tracer:
    """Spans with self time (duration minus the time covered by child spans),
    call counts per span name and free-form counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._open: list[list] = []  # [name, start, time covered by children]

    @property
    def current(self) -> str | None:
        return self._open[-1][0] if self._open else None

    def enter(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._open.pop()
        duration = self.clock() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._open:
            self._open[-1][2] += duration

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, name: str, fn, before=None, after=None):
        """``before(args, kwargs)`` runs in the caller's span, ``after(result)``
        once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result)
            return result

        return traced

    def report(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls, "counts": self.counts}


def _hooks(tracer: Tracer, span: str):
    """Counters taken at a boundary: (before, after) or (None, None)."""
    if span == "filters.residual_norm":
        def before(args, kwargs):
            if tracer.current == "selection.discrepancy_principle":
                tracer.count("selection.evals", 1)
        return before, None
    if span == "measurements.draw_batch":
        def after(batch):
            # computed, not measured: full-sample batches hold an (n, dim)
            # float64 matrix from the start
            if getattr(batch, "_samples", None) is not None:
                tracer.count("measurements.bytes_materialized", batch.n * batch.dimension * 8)
        return None, after
    if span == "study.write_study_csvs":
        def after(paths):
            tracer.count("study.write_study_csvs.bytes",
                         sum(os.path.getsize(path) for path in paths))
        return None, after
    return None, None


def variates_counter(tracer: Tracer):
    """``before`` hook of the RandomStream methods: only the outermost draw
    counts, so normals -> uniforms is one request of n variates."""

    def count(args, kwargs):
        if tracer.current != "rng":
            tracer.count("rng.variates", args[1] if len(args) > 1 else kwargs["n"])

    return count


def install_tracer(tracer: Tracer) -> None:
    """Wrap every boundary; raise BoundaryError if one is missing."""
    package = importlib.import_module("avereg")
    modules = {name: importlib.import_module(f"avereg.{name}") for name in MODULES}
    for span, home, name, sites in BOUNDARIES:
        original = getattr(modules[home], name, None)
        if original is None:
            raise BoundaryError(f"avereg.{home}.{name} is missing")
        for site in sites:
            if getattr(modules[site], name, None) is not original:
                raise BoundaryError(f"avereg.{site} no longer looks up avereg.{home}.{name}")
        wrapper = tracer.wrap(span, original, *_hooks(tracer, span))
        for module in (package, *modules.values()):
            if getattr(module, name, None) is original:
                setattr(module, name, wrapper)

    stream = getattr(modules["rng"], "RandomStream", None)
    if stream is None:
        raise BoundaryError("avereg.rng.RandomStream is missing")
    count_variates = variates_counter(tracer)
    for method in RNG_METHODS:
        original = getattr(stream, method, None)
        if original is None:
            raise BoundaryError(f"avereg.rng.RandomStream.{method} is missing")
        setattr(stream, method, tracer.wrap("rng", original, before=count_variates))


def install_setup_stamp(target: str, stamps: dict) -> None:
    """Record the monotonic time at which ``module.name`` first returns."""
    module_name, name = target.split(".")
    module = importlib.import_module(f"avereg.{module_name}")
    original = getattr(module, name, None)
    if original is None:
        raise BoundaryError(f"avereg.{target} is missing")

    @functools.wraps(original)
    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        stamps.setdefault("setup_end", time.monotonic())
        return result

    setattr(module, name, stamped)


def _blas_threads() -> int | None:
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        import ctypes

        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def probe() -> dict:
    import numpy
    import scipy

    avereg = importlib.import_module("avereg")
    for name in MODULES:
        importlib.import_module(f"avereg.{name}")
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "avereg_file": os.path.abspath(avereg.__file__),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "avereg": getattr(avereg, "__version__", "unknown"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
    }


def main(argv: list[str]) -> int:
    mode, report_path = argv[0], argv[1]
    if mode == "probe":
        with open(report_path, "w") as fh:
            json.dump(probe(), fh)
        return 0

    split = argv.index("--")
    cli_args = argv[split + 1:]
    report: dict = {}
    cli = importlib.import_module("avereg.cli")
    tracer = None
    if mode == "plain":
        install_setup_stamp(argv[2], report)
    elif mode == "trace":
        tracer = Tracer()
        install_tracer(tracer)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    code = 1
    try:
        if tracer is None:
            code = cli.main(cli_args)
        else:
            tracer.enter("cli")
            try:
                code = cli.main(cli_args)
            finally:
                tracer.exit()
            report.update(tracer.report())
    finally:
        with open(report_path, "w") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
