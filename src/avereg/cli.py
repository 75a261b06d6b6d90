"""Command-line interface.

Subcommands::

    solve            one-shot solve from a matrix CSV and a measurements CSV
    simulate         run a Monte-Carlo study from a JSON config
    counterexample   the divergence construction of the discrepancy principle
    heat             severely ill-posed heavy-tail study (built-in defaults)
    binopt           binary-option differentiation study (built-in defaults)
    verify-filters   grid certification of the filter constants

Exit codes: 0 success, 1 I/O or parse errors and running out of memory,
2 degenerate statistics, 3 verification failure.  Every command is
deterministic given its flags, config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import (AveregError, DegenerateBatchError, InputError, NonTerminationError,
                     NumericalError, StudyError)
# perfbench's tracer requires cli to bind apply_regularizer and discrepancy_principle
from .filters import (KINDS, FilterSpec, apply_regularizer,  # noqa: F401
                      residual_norm, verify_filter_constants)
from .measurements import DELTA_RULES, load_batch_csv
from .selection import discrepancy_principle  # noqa: F401
from .spectral import embed_solution, load_matrix_csv, project_data, svd
from .study import (
    _SEED,
    DELTAS,
    FILTERS,
    RULE_NAMES,
    RULES,
    SCENARIOS,
    StudyConfig,
    _budget,
    atomic_write,
    default_binopt_config,
    default_counterexample_config,
    default_heat_config,
    failure_reasons,
    format_summary_table,
    held_bytes,
    matrix_rank_check,
    read_config,
    resolve,
    rule_delta,
    run_study,
    solve_rule,
    write_study_csvs,
)


def _given(args, label: str, table: dict, section: dict, *names) -> dict:
    """``section``, whose first key is its choice in ``table``, with the options among
    ``names`` given on the command line, as ``resolve`` completes it; an option the
    choice does not take, or that fails its check, is an InputError naming the flag."""
    choice, name = next(iter(section.items()))
    owner, keys = f"{label} {name}", table[name]
    for flag in names:
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in keys:
            raise InputError(f"--{flag} {value}: {owner} does not take {flag}")
        what, test, _ = keys[flag][0]
        if not test(value):
            raise InputError(f"--{flag} {value}: {owner} {flag} must be {what}")
        section[flag] = value
    return resolve(label, table, section, [], choice)  # every key given is checked


def _cmd_solve(args) -> int:
    spec = FilterSpec(**_given(args, "filter", FILTERS, {"kind": args.filter}, "order",
                               "relaxation"))
    # the CLI's apriori rule is inv_sqrt_n_alpha, which reads no delta rule
    rule = _given(args, "rule", RULES, {"name": args.rule}, "q",
                  *(("delta", "tau") if args.rule == "apriori" else ()))
    name = args.delta or "sample_std"
    delta = _given(args, "delta_rule", DELTAS,
                   {"name": name, **({"tau": 1.5} if name == "lil" else {})}, "tau")
    matrix = load_matrix_csv(args.matrix)
    batch = load_batch_csv(args.measurements)
    if batch.dimension != matrix.shape[0]:
        raise InputError(
            f"measurement rows have {batch.dimension} columns, "
            f"matrix has {matrix.shape[0]} rows"
        )
    op = matrix_rank_check(svd(matrix), args.matrix)
    y_bar = project_data(op, batch.mean)
    estimate = rule_delta(rule, batch, delta)
    [solved] = solve_rule(op, spec, rule, [y_bar], [estimate], batch.n)
    if isinstance(solved, NonTerminationError):
        raise solved
    choice, x = solved
    # an inf coefficient times a zero basis entry is nan: both mean overflow
    with np.errstate(over="ignore", invalid="ignore"):
        x = embed_solution(op, x)
    if not np.all(np.isfinite(x)):
        raise NumericalError("the solution overflows double precision")
    residual = float(residual_norm(op, spec, choice.alpha, [y_bar])[0, 0])
    # iterations_evaluated: the grid points up to and including the stop, 0 a priori
    report = {**dataclasses.asdict(choice), "delta_est_used": estimate, "residual": residual,
              "iterations_evaluated": choice.k + 1, "residual_at_stop": residual}

    os.makedirs(args.out, exist_ok=True)
    solution_path = os.path.join(args.out, "solution.csv")
    atomic_write(solution_path, "\n".join(f"{value:.17g}" for value in x) + "\n")
    choice_path = os.path.join(args.out, "choice.json")
    atomic_write(choice_path, json.dumps(report, sort_keys=True) + "\n")
    print(f"wrote {solution_path} and {choice_path} "
          f"(alpha={choice.alpha:.6g}, residual={residual:.6g})")
    return 0


def _load_config(path: str | None, default: dict, seed: int | None) -> StudyConfig:
    what, test, _ = _SEED
    if seed is not None and not test(seed):
        raise InputError(f"--seed {seed}: base_seed must be {what}")
    raw = default if path is None else read_config(path)
    if seed is not None and isinstance(raw, dict):
        # set before validation, so --seed stands in for a config without base_seed
        raw = {**raw, "base_seed": seed}
    return StudyConfig.from_dict(raw)


def _cmd_study(args) -> int:
    """simulate's --config study, or the heat or binopt default."""
    result = run_study(_load_config(args.config, args.default, args.seed))
    write_study_csvs(result, args.out)
    for (rule, n), records in result.items():
        failed = [rec for rec in records if rec.failed]
        line = f"completed rule={rule} n={n} ({len(records) - len(failed)} replications"
        if failed:
            line += f", {len(failed)} failed: {failure_reasons(failed)}"
        print(line + ")")
    print(format_summary_table(result))
    return 0


def _cmd_counterexample(args) -> int:
    if args.forced and args.seed is not None:
        raise InputError("--seed is ignored with --forced: the forced noise draws nothing")
    if args.n_max < 2:
        raise InputError(f"--n-max must be at least 2, not {args.n_max}")
    # each sample size 2..n_max is one pair of one replication and one rule;
    # the list of them would outgrow memory before run_study's own check
    m = SCENARIOS["counterexample"]["m"][1]
    need, budget = held_bytes(args.n_max - 1, 1, m, 1), _budget()
    if need > budget:
        raise InputError(f"--n-max {args.n_max}: its {args.n_max - 1} sample sizes take "
                         f"{need} bytes, above the {budget} bytes available")
    raw = default_counterexample_config(args.n_max, forced=args.forced,
                                        emergency=args.emergency)
    result = run_study(_load_config(None, raw, args.seed))
    write_study_csvs(result, args.out)
    for (_, n), [record] in result.items():
        print(f"n={n} alpha={record.alpha:.6g} k={record.k} "
              f"emergency={int(record.emergency)} error={record.error:.6g}")
    return 0


def _cmd_verify_filters(args) -> int:
    all_passed = True
    for kind in KINDS:
        # each kind at its config defaults, certified up to its qualification or 20
        spec = FilterSpec(**resolve("filter", FILTERS, {"kind": kind}, [], "kind"))
        nu = min(spec.qualification, 20.0)
        report = verify_filter_constants(spec, nu=nu)
        status = "pass" if report.passed else "FAIL"
        print(f"{spec.name}: C_R {report.c_r:.6g}/{spec.c_r:.6g} "
              f"C_F {report.c_f:.6g}/{spec.c_f:.6g} "
              f"C_nu(nu={nu:g}) {report.c_nu:.6g}/{spec.c_nu(nu):.6g} "
              f"monotone={report.monotone} -> {status}")
        for violation in report.violations:
            print(f"  violation: {violation}")
        all_passed = all_passed and report.passed
    return 0 if all_passed else 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as other parse errors do; 2 is reserved for
    degenerate statistics."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="avereg",
        description="Regularized solution of ill-posed linear equations "
                    "from repeated noisy measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve from a matrix and measurement CSVs")
    solve.add_argument("--matrix", required=True, help="operator matrix CSV (row-major)")
    solve.add_argument("--measurements", required=True,
                       help="measurements CSV, one sample per row")
    solve.add_argument("--filter", default="tikhonov", choices=KINDS)
    solve.add_argument("--order", type=int, default=None, help="iterated Tikhonov order "
                       f"(default {FILTERS['iterated_tikhonov']['order'][1]})")
    solve.add_argument("--relaxation", type=float, default=None, help="Landweber relaxation "
                       f"(default {FILTERS['landweber']['relaxation'][1]})")
    solve.add_argument("--rule", default="dp", choices=RULE_NAMES)
    solve.add_argument("--delta", default=None, choices=DELTA_RULES, help="default sample_std")
    solve.add_argument("--q", type=float, default=None,
                       help=f"discrepancy search factor (default {RULES['dp']['q'][1]})")
    solve.add_argument("--tau", type=float, default=None,
                       help="lil envelope factor, > 1 (default 1.5; lil only)")
    solve.add_argument("--out", default=".")
    solve.set_defaults(func=_cmd_solve)

    studies = (
        ("simulate", "run a study from a JSON config", None),
        ("heat", "severely ill-posed heavy-tail study", default_heat_config()),
        ("binopt", "binary-option differentiation study", default_binopt_config()),
    )
    for name, text, default in studies:
        study = sub.add_parser(name, help=text)
        if default is None:
            study.add_argument("--config", required=True)
        study.add_argument("--seed", type=int, default=None)
        study.add_argument("--out", default="study_out")
        study.set_defaults(func=_cmd_study, default=default, config=None)

    counter = sub.add_parser("counterexample", help="the divergence construction")
    counter.add_argument("--n-max", type=int, default=6)
    counter.add_argument("--forced", action="store_true",
                         help="force all latent normals to 1")
    counter.add_argument("--emergency", action="store_true",
                         help="enable the emergency stop")
    counter.add_argument("--seed", type=int, default=None)
    counter.add_argument("--out", default="study_out")
    counter.set_defaults(func=_cmd_counterexample)

    verify = sub.add_parser("verify-filters", help="certify the filter constants")
    verify.set_defaults(func=_cmd_verify_filters)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateBatchError, StudyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AveregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
