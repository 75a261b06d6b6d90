"""Monte-Carlo experiment harness.

A study runs replicated end-to-end solves — draw a measurement batch,
estimate the noise level, choose alpha by one or more rules, regularize,
record the solution error — over a grid of sample sizes, then summarizes the
error distributions (mean, quartiles, IQR outliers) and fits log-log
convergence rates.  Three scenario families are packaged: synthetic diagonal
operators, the divergence counterexample, a severely ill-posed exponential
surrogate with heavy-tailed noise, the binary-option differentiation problem,
and arbitrary operators imported from CSV matrices.

All randomness flows from ``base_seed`` through one substream per
(sample-size index, replication) pair, so studies are bit-reproducible and
each rule sees the same batches.  No such pair depends on another, so a
study spreads them over one forked process per core, unless each pair draws a
full sample matrix, whose draw is spread over the cores instead; the records
come back in their serial order, and the outputs do not depend on the number
of cores.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import (
    ConfigError,
    DegenerateBatchError,
    InputError,
    NonTerminationError,
    StudyError,
)
from .filters import KINDS, FilterSpec, RegularizedSolution, apply_regularizer
from .measurements import (
    DELTA_RULES,
    LIL_MIN_N,
    BernoulliPayoff,
    BinaryOptionParams,
    CoefficientGaussian,
    DirectionGaussian,
    HeavyTailed,
    MeasurementBatch,
    delta_est,
    delta_true,
    draw_batch,
    heavy_tail_weights,
)
from .selection import (
    APRIORI_VARIANTS,
    AprioriRule,
    ChoiceResult,
    apriori_alpha,
    discrepancy_principle,
)
from .spectral import (
    CoefficientVector,
    SourceCondition,
    SpectralDecomposition,
    counterexample_operator,
    embed_solution,
    load_matrix_csv,
    project_data,
    project_solution,
    svd,
    synthesize_source,
)

#: sigma_l = exp(-decay l); at m=100 this puts sigma_m/sigma_1 near 1e-14
DEFAULT_HEAT_DECAY = 0.326

CONFIG_VERSION = 1


# ---------------------------------------------------------------------------
# operators and analytic truths


def heat_like_operator(m: int, decay: float = DEFAULT_HEAT_DECAY) -> SpectralDecomposition:
    """Diagonal severely ill-posed operator with sigma_l = exp(-decay l)."""
    if m < 2:
        raise InputError("need m >= 2")
    if decay <= 0:
        raise InputError("decay must be positive")
    return SpectralDecomposition(np.exp(-decay * np.arange(1, m + 1)))


def integration_operator(m: int) -> SpectralDecomposition:
    """SVD of the cumulative-integration operator f -> int_0^x f on [0, 1].

    The operator is discretised on the uniform grid {h, 2h, ..., 1}, h = 1/m,
    as the lower-triangular trapezoid matrix A with A_ij = h for j < i and
    h/2 for j = i; its singular values track 1/((l - 1/2) pi).
    """
    if m < 2:
        raise InputError("need m >= 2")
    h = 1.0 / m
    a = np.tril(np.full((m, m), h), -1) + np.eye(m) * (h / 2.0)
    return svd(a)


def binary_option_truth(params: BinaryOptionParams) -> dict:
    """Analytic value curve V(S_0) = e^{-rT} Q Phi(d) and its S_0-derivative."""
    s0 = params.s0_grid
    vol_sqrt_t = params.volatility * math.sqrt(params.expiry)
    d = (np.log(s0 / params.strike) + params.expiry * params.latent_mean()) / vol_sqrt_t
    disc = params.discounted_payoff
    density = np.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
    return {
        "value_curve": disc * np.array([0.5 * math.erfc(x) for x in -d / math.sqrt(2.0)]),
        "derivative_curve": disc * density / (s0 * vol_sqrt_t),
    }


# ---------------------------------------------------------------------------
# summaries and rate fits


@dataclass(frozen=True)
class Summary:
    mean: float
    median: float
    q1: float
    q3: float
    outliers: int
    max: float
    count: int


def summarize(errors) -> Summary:
    """Mean, median, linearly interpolated quartiles and 1.5-IQR upper-fence
    outlier count of an error sample."""
    values = np.atleast_1d(np.asarray(errors, dtype=float))
    if values.size == 0:
        raise InputError("cannot summarize an empty error list")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise InputError("errors must be finite and nonnegative")
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    fence = q3 + 1.5 * (q3 - q1)
    return Summary(
        mean=float(values.mean()),
        median=float(median),
        q1=float(q1),
        q3=float(q3),
        outliers=int(np.sum(values > fence)),
        max=float(values.max()),
        count=int(values.size),
    )


def rate_fit(ns, medians) -> dict:
    """Ordinary least squares of ln(median) on ln(n): {slope, intercept, r_squared}."""
    ns = np.asarray(ns, dtype=float)
    medians = np.asarray(medians, dtype=float)
    if ns.size < 3 or medians.size != ns.size:
        raise InputError("rate fit needs at least 3 (n, median) pairs")
    if np.any(ns <= 0) or np.any(medians <= 0):
        raise InputError("sample sizes and medians must be positive")
    x = np.log(ns)
    y = np.log(medians)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r_squared}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class DiscrepancyRule:
    """Algorithm-style rule: geometric search with factor q, optional floor."""

    q: float
    emergency: bool = False

    @property
    def name(self) -> str:
        return "dp+es" if self.emergency else "dp"


@dataclass(frozen=True)
class AprioriStudyRule:
    rule: AprioriRule

    @property
    def name(self) -> str:
        return "apriori"


def _is_int(value) -> bool:
    """JSON integer check; bool is an int subclass but not a count or a seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """JSON number check that rejects NaN, infinities and integers beyond the
    float range; ``true`` is not the number 1.0."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


# Each check is (what a value must be, test, conversion of a value that passes).
_DIMENSION = ("an integer >= 2", lambda v: _is_int(v) and v >= 2, int)
_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1, int)
_SEED = ("an integer in [0, 2^64)", lambda v: _is_int(v) and 0 <= v < 2**64, int)
# an integral float such as 3.0 is the order 3
_ORDER = ("an integer >= 1", lambda v: _is_finite(v) and v >= 1 and v == int(v), int)
_FINITE = ("a finite number", _is_finite, float)
_POSITIVE = ("positive and finite", lambda v: _is_finite(v) and v > 0, float)
_UNIT = ("in (0, 1)", lambda v: _is_finite(v) and 0 < v < 1, float)
_ABOVE_ONE = ("finite and > 1", lambda v: _is_finite(v) and v > 1, float)
_STRING = ("a string", lambda v: isinstance(v, str), str)
_APRIORI = (f"one of {list(APRIORI_VARIANTS)}", lambda v: v in APRIORI_VARIANTS, str)
_SIZES = ("a non-empty list of integers >= 2",
          lambda v: isinstance(v, list) and v and all(_is_int(n) and n >= 2 for n in v), tuple)
_LIST = ("a non-empty list", lambda v: isinstance(v, list) and v, list)

#: the default of a key that must be given
_REQUIRED = object()

# Each table maps a key to (check, default); a choice table maps each value
# of the section's choice key to the table of the keys that choice takes.
SCENARIOS = {
    "diagonal_synthetic": {"m": (_DIMENSION, 200), "decay": (_POSITIVE, 1.0)},
    "counterexample": {"m": (_DIMENSION, 100), "forced_value": (_FINITE, None)},
    "heat_like": {"m": (_DIMENSION, 100), "decay": (_POSITIVE, DEFAULT_HEAT_DECAY)},
    "binary_option": {"grid": (_DIMENSION, 512)},
    "matrix_file": {"path": (_STRING, _REQUIRED)},
}
#: the noise variant of a config without a noise section; the scenarios not
#: named here fix their noise and their source and take neither section
DEFAULT_NOISE = {"diagonal_synthetic": "direction_gaussian", "heat_like": "heavy_tailed",
                 "matrix_file": "direction_gaussian"}
SOURCE = {"nu": (_POSITIVE, 1.0), "rho": (_POSITIVE, 1.0)}
NOISES = {
    "direction_gaussian": {"scale": (_POSITIVE, 1.0)},
    "coefficient_gaussian": {"scale": (_POSITIVE, 1.0)},
    "heavy_tailed": {"shape": (_FINITE, 1.0 / 3.0), "scale": (_POSITIVE, 0.5),
                     "location": (_FINITE, 1.5), "weight_seed": (_SEED, 5)},
}
FILTERS = {kind: {} for kind in KINDS} | {
    "iterated_tikhonov": {"order": (_ORDER, 2)},
    "landweber": {"relaxation": (_POSITIVE, 0.9)},
}
RULES = {
    "dp": {"q": (_UNIT, 0.7)},
    "dp+es": {"q": (_UNIT, 0.7)},
    "apriori": {"variant": (_APRIORI, "inv_sqrt_n_alpha"), "c": (_POSITIVE, 1.0),
                "nu": (_POSITIVE, 1.0), "rho": (_POSITIVE, 1.0)},
}
RULE_NAMES = tuple(RULES)
DELTAS = {rule: {} for rule in DELTA_RULES} | {"lil": {"tau": (_ABOVE_ONE, _REQUIRED)}}
#: the top-level keys besides the sections
STUDY = {"rules": (_LIST, _REQUIRED), "sample_sizes": (_SIZES, _REQUIRED),
         "replications": (_COUNT, _REQUIRED), "base_seed": (_SEED, _REQUIRED)}
_SECTIONS = ("version", "scenario", "source", "noise", "filter", "delta_rule")


def resolve(label: str, table: dict, section, violations: list, choice: str | None = None):
    """``section`` checked against ``table``, with each absent key set to its
    default and each value converted.

    With ``choice``, ``table`` is a choice table and the section's ``choice``
    key selects the key table.  Each violation is appended to ``violations``;
    a key that fails its check is left out of the result, and a section that
    is not an object, or names no known choice, resolves to None.
    """
    if not isinstance(section, dict):
        violations.append(f"{label} must be an object" + (f" with a {choice!r}" if choice else ""))
        return None
    resolved, owner = {}, label
    if choice is not None:
        name = section.get(choice)
        if not (isinstance(name, str) and name in table):
            violations.append(f"unknown {label} {choice} {name!r}")
            return None
        resolved[choice], table, owner = name, table[name], f"{label} {name}"
    unknown = sorted(set(section) - set(table) - {choice})
    if unknown:
        violations.append(f"{owner} does not take {unknown}")
    for key, ((what, test, convert), default) in table.items():
        if key in section and test(section[key]):
            resolved[key] = convert(section[key])
        elif key in section or default is _REQUIRED:
            violations.append(f"{label} {key} must be {what}")
        else:
            resolved[key] = default
    return resolved


def _rule(entry: dict) -> DiscrepancyRule | AprioriStudyRule:
    if entry["name"] == "apriori":
        return AprioriStudyRule(
            AprioriRule(entry["variant"], entry["c"], entry["nu"], entry["rho"]))
    return DiscrepancyRule(entry["q"], emergency=entry["name"] == "dp+es")


def solve_settings(filter_section: dict, rule_entry: dict) -> tuple:
    """The FilterSpec and rule of a filter section and a rules entry, checked
    and completed as in a study config; raises ConfigError."""
    violations = []
    spec = resolve("filter", FILTERS, filter_section, violations, "kind")
    rule = resolve("rule", RULES, rule_entry, violations, "name")
    if violations:
        raise ConfigError(violations)
    return FilterSpec(**spec), _rule(rule)


@dataclass(frozen=True)
class StudyConfig:
    """A valid study config.  ``scenario``, ``source`` and ``noise`` are the
    resolved sections, with every key of their choice; ``source`` and
    ``noise`` are None for the scenarios that fix them."""

    scenario: dict
    source: dict | None
    noise: dict | None
    filter_spec: FilterSpec
    rules: tuple
    delta_rule: str
    delta_tau: float | None
    sample_sizes: tuple
    replications: int
    base_seed: int

    @classmethod
    def from_dict(cls, raw: dict) -> "StudyConfig":
        if not isinstance(raw, dict):
            raise ConfigError(["configuration must be a JSON object"])
        violations = []
        if not (_is_int(raw.get("version")) and raw["version"] == CONFIG_VERSION):
            violations.append(f"version must be {CONFIG_VERSION}")
        study = resolve("config", STUDY,
                        {key: value for key, value in raw.items() if key not in _SECTIONS},
                        violations)
        scenario = resolve("scenario", SCENARIOS, raw.get("scenario"), violations, "name")
        filter_section = resolve("filter", FILTERS, raw.get("filter"), violations, "kind")
        rules = [resolve("rule", RULES, entry, violations, "name")
                 for entry in study.get("rules", [])]
        delta = resolve("delta_rule", DELTAS, raw.get("delta_rule"), violations, "name")

        name = scenario["name"] if scenario else None
        source = noise = None
        if name and name not in DEFAULT_NOISE:
            violations.extend(f"scenario {name!r} does not take a {key} section"
                              for key in ("source", "noise") if key in raw)
        else:
            source = resolve("source", SOURCE, raw.get("source", {}), violations)
            if name or "noise" in raw:
                default = {"variant": DEFAULT_NOISE.get(name)}
                noise = resolve("noise", NOISES, raw.get("noise", default), violations, "variant")
        if name == "matrix_file" and noise and noise["variant"] == "heavy_tailed":
            violations.append("scenario 'matrix_file' does not take heavy_tailed noise")
        names = [entry["name"] for entry in rules if entry]
        if len(set(names)) != len(names):
            violations.append("rule names must be unique")
        sizes = study.get("sample_sizes", ())
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            violations.append("sample_sizes must be strictly increasing")
        if delta and delta["name"] == "lil" and sizes and min(sizes) < LIL_MIN_N:
            violations.append(f"lil delta rule needs every sample size >= {LIL_MIN_N}")

        if violations:
            raise ConfigError(violations)
        return cls(scenario, source, noise, FilterSpec(**filter_section),
                   tuple(map(_rule, rules)), delta["name"], delta.get("tau"), sizes,
                   study["replications"], study["base_seed"])


def read_config(path: str):
    """The JSON value in the config file ``path``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc


def default_heat_config(replications: int = 200, base_seed: int = 99) -> dict:
    """Severely ill-posed heavy-tail protocol: Tikhonov, dp / dp+es / a priori."""
    return {
        "version": CONFIG_VERSION,
        "scenario": {"name": "heat_like", "m": 100},
        "source": {"nu": 1.0, "rho": 1.0},
        "filter": {"kind": "tikhonov"},
        "rules": [
            {"name": "dp", "q": 0.7},
            {"name": "dp+es", "q": 0.7},
            {"name": "apriori", "variant": "inv_sqrt_n_alpha"},
        ],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [1000, 10000, 100000],
        "replications": replications,
        "base_seed": base_seed,
    }


def default_binopt_config(replications: int = 20, base_seed: int = 20240502) -> dict:
    """Binary-option differentiation: Tikhonov + discrepancy principle."""
    return {
        "version": CONFIG_VERSION,
        "scenario": {"name": "binary_option", "grid": 512},
        "filter": {"kind": "tikhonov"},
        "rules": [{"name": "dp", "q": 0.7}],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [1000, 10000],
        "replications": replications,
        "base_seed": base_seed,
    }


def default_counterexample_config(n_max: int = 6, forced: bool = False,
                                  emergency: bool = False, base_seed: int = 1) -> dict:
    """The divergence construction: TSVD with the 1/sqrt(n) noise estimate."""
    scenario = {"name": "counterexample", "m": 100}
    if forced:
        scenario["forced_value"] = 1.0
    rule = {"name": "dp+es" if emergency else "dp", "q": 0.5}
    return {
        "version": CONFIG_VERSION,
        "scenario": scenario,
        "filter": {"kind": "tsvd"},
        "rules": [rule],
        "delta_rule": {"name": "inv_sqrt_n"},
        "sample_sizes": list(range(2, n_max + 1)),
        "replications": 1,
        "base_seed": base_seed,
    }


# ---------------------------------------------------------------------------
# scenario assembly


@dataclass(frozen=True)
class Scenario:
    """Everything a study replication needs: operator, truth and noise model."""

    op: SpectralDecomposition
    x_hat: CoefficientVector
    y_hat: CoefficientVector
    model: object
    ambient: bool = False
    x_hat_ambient: np.ndarray | None = None
    forced_value: float | None = None


def _smooth_source(m: int, source: dict, alternating: bool) -> SourceCondition:
    levels = np.arange(1, m + 1, dtype=float)
    if alternating:
        w = np.exp(-3.0 * levels / m)
        w[1::2] *= -1.0
    else:
        w = levels**-0.55
    w *= source["rho"] / np.linalg.norm(w)
    return SourceCondition(source["nu"], source["rho"], w)


def _noise_model(noise: dict, m: int, basis: np.ndarray | None = None):
    """The model of a resolved noise section for m levels.  The direction of
    Gaussian noise is the unit power law l^-3/4, mapped by ``basis`` when the
    data live in ambient coordinates."""
    if noise["variant"] == "coefficient_gaussian":
        return CoefficientGaussian(noise["scale"])
    if noise["variant"] == "heavy_tailed":
        return HeavyTailed(noise["shape"], noise["scale"], noise["location"],
                           heavy_tail_weights(m, noise["weight_seed"]))
    weights = np.arange(1, m + 1, dtype=float) ** -0.75
    direction = weights / np.linalg.norm(weights)
    if basis is not None:
        direction = basis @ direction
    return DirectionGaussian(CoefficientVector(noise["scale"] * direction, 0.0))


def build_scenario(config: StudyConfig) -> Scenario:
    params = config.scenario
    name = params["name"]

    if name == "diagonal_synthetic":
        m = params["m"]
        op = SpectralDecomposition(np.arange(1, m + 1, dtype=float) ** -params["decay"])
        sc = _smooth_source(m, config.source, alternating=False)
        x_hat, y_hat = synthesize_source(op, sc)
        return Scenario(op, x_hat, y_hat, _noise_model(config.noise, m))

    if name == "counterexample":
        m = params["m"]
        op, direction = counterexample_operator(m)
        zero = CoefficientVector(np.zeros(m), 0.0)
        return Scenario(op, zero, zero, DirectionGaussian(direction),
                        forced_value=params["forced_value"])

    if name == "heat_like":
        m = params["m"]
        op = heat_like_operator(m, params["decay"])
        sc = _smooth_source(m, config.source, alternating=True)
        x_hat, y_hat = synthesize_source(op, sc)
        return Scenario(op, x_hat, y_hat, _noise_model(config.noise, m))

    if name == "binary_option":
        option = BinaryOptionParams.default(params["grid"])
        op = integration_operator(params["grid"])
        truth = binary_option_truth(option)
        root_h = math.sqrt(option.grid_weight)
        x_hat_ambient = root_h * truth["derivative_curve"]
        y_hat = CoefficientVector(root_h * truth["value_curve"], 0.0)
        x_hat = project_solution(op, x_hat_ambient)
        return Scenario(op, x_hat, y_hat, BernoulliPayoff(option),
                        ambient=True, x_hat_ambient=x_hat_ambient)

    op = svd(load_matrix_csv(params["path"]))
    m = op.rank
    sc = _smooth_source(m, config.source, alternating=True)
    x_hat, y_hat = synthesize_source(op, sc)
    x_hat_ambient = embed_solution(op, x_hat)
    y_hat_ambient = CoefficientVector(op.left_basis @ y_hat.coefficients, 0.0)
    return Scenario(op, x_hat, y_hat_ambient, _noise_model(config.noise, m, op.left_basis),
                    ambient=True, x_hat_ambient=x_hat_ambient)


# ---------------------------------------------------------------------------
# execution


def solve_rule(
    op: SpectralDecomposition, spec: FilterSpec, rule: DiscrepancyRule | AprioriStudyRule,
    batch: MeasurementBatch, y_bar: CoefficientVector, delta_rule: str, tau: float | None = None,
) -> tuple[ChoiceResult, RegularizedSolution]:
    """Estimate the noise level of ``batch``, choose alpha by ``rule`` and
    regularize ``y_bar``, the batch mean in the left singular basis of ``op``.

    An a priori choice has k = -1 and no evaluations; alpha = 1/sqrt(n) is
    paired with the estimate 1/sqrt(n) whatever ``delta_rule`` says.  Raises
    DegenerateBatchError when a sample-based estimate is undefined and
    NonTerminationError when the discrepancy search cannot stop.
    """
    if isinstance(rule, AprioriStudyRule) and rule.rule.variant == "inv_sqrt_n_alpha":
        delta = delta_est(batch, "inv_sqrt_n")
    else:
        delta = delta_est(batch, delta_rule, tau)
    if isinstance(rule, DiscrepancyRule):
        choice = discrepancy_principle(op, spec, y_bar, delta, q=rule.q,
                                       emergency_n=batch.n if rule.emergency else None)
        return choice, apply_regularizer(op, spec, choice.alpha, y_bar)
    alpha = apriori_alpha(rule.rule, delta, batch.n)
    solution = apply_regularizer(op, spec, alpha, y_bar)
    return ChoiceResult(alpha, -1, solution.residual, False, delta, 0), solution


@dataclass(frozen=True)
class ReplicationRecord:
    replication: int
    error: float
    alpha: float
    k: int
    emergency: bool
    delta_true: float
    delta_est: float
    failed: bool = False
    reason: str = ""


@dataclass(frozen=True)
class StudyResult:
    """Per-(rule, n) replication records plus their summaries."""

    rule_names: tuple
    sample_sizes: tuple
    records: dict
    summaries: dict
    failed_count: int

    def errors(self, rule: str, n: int) -> list:
        return [rec.error for rec in self.records[(rule, n)] if not rec.failed]


def run_study(config: StudyConfig) -> StudyResult:
    """Run every (rule, sample size, replication) cell; deterministic.

    All rules share the batch of a given (sample size, replication) pair.
    Replications whose sample-based noise estimate degenerates, or whose
    discrepancy search cannot stop, are recorded as failed with the reason and
    excluded from summaries; more than 5% failures abort the study.  The
    (sample size, replication) pairs run in ``_fan_out``, one run per core
    unless each pair draws a full n x m sample matrix.
    """
    scenario = build_scenario(config)
    rule_names = tuple(rule.name for rule in config.rules)

    def cell(item):
        n_index, rep = item
        n = config.sample_sizes[n_index]
        forced = None
        if scenario.forced_value is not None:
            forced = np.full(n, scenario.forced_value)
        batch = draw_batch(scenario.model, scenario.y_hat, n,
                           config.base_seed, (n_index << 32) | rep, forced)
        if scenario.ambient:
            y_bar = project_data(scenario.op, batch.mean.coefficients)
        else:
            y_bar = batch.mean
        d_true = delta_true(batch, scenario.y_hat)
        # the batch is released on return, before the next is drawn: a
        # full-sample batch holds an n x m matrix
        return [_run_rule(config, scenario, rule, y_bar, batch, d_true, rep)
                for rule in config.rules]

    items = [(n_index, rep) for n_index in range(len(config.sample_sizes))
             for rep in range(config.replications)]
    # a full-sample cell holds an n x m matrix whose draw already spreads over
    # the cores: one run keeps one such matrix alive at a time
    runs = 1 if isinstance(scenario.model, CoefficientGaussian) else rng._cores()
    records = {(name, n): [] for name in rule_names for n in config.sample_sizes}
    for (n_index, _), cell_records in zip(items, _fan_out(cell, items, runs)):
        for name, record in zip(rule_names, cell_records):
            records[(name, config.sample_sizes[n_index])].append(record)

    total = len(items) * len(rule_names)
    failed = sum(rec.failed for recs in records.values() for rec in recs)
    if failed > 0.05 * total:
        detail = failure_reasons(rec for recs in records.values() for rec in recs)
        raise StudyError(
            f"{failed} of {total} replications failed ({detail}); "
            "summaries would be meaningless"
        )
    summaries = {}
    for key, recs in records.items():
        errors = [rec.error for rec in recs if not rec.failed]
        if errors:
            summaries[key] = summarize(errors)
    return StudyResult(rule_names, tuple(config.sample_sizes), records, summaries, failed)


def _fan_out(func, items: list, runs: int) -> list:
    """``[func(item) for item in items]``, computed in up to ``runs`` strided runs.

    Run r computes ``items[r::runs]``.  Each run but the first is a forked
    child that keeps its draws on one thread and pickles its results into a
    pipe; the caller computes the first run, then reads and reaps every child.
    A run stops at its first exception, and once all children are reaped the
    exception of the lowest item is raised, a child's with its traceback text
    as the cause.  A child that ends without a result raises StudyError, a
    child whose caller has gone exits before its next item, and an interrupt
    of the caller kills the children.  ``func`` must depend only on its item,
    so neither the results nor the error depend on the number of runs.
    """
    runs = min(runs, len(items)) if hasattr(os, "fork") else 1
    if runs == 1:
        results, failure = _run(func, items, 0, 1)
        if failure:
            raise failure[1]
        return results

    caller = os.getpid()
    children = []  # (pid, read end of its pipe) of each forked run
    try:
        for r in range(1, runs):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                for _, pipe in children:  # so a sibling's writes fail once the caller is gone
                    pipe.close()
                _serve(func, items, r, runs, caller, write_end)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb")))
        own, failure = _run(func, items, 0, runs)
        payloads = [pipe.read() for _, pipe in children]
    except BaseException:
        # a child may be blocked writing to a pipe nobody will read
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = []
        for pid, pipe in children:
            pipe.close()
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

    outputs, failures = [own], [failure] if failure else []
    for (pid, _), code, payload in zip(children, codes, payloads):
        if code != 0 or not payload:
            raise StudyError(f"study process {pid} ended with exit status {code} "
                             "and sent no result")
        output, failure = pickle.loads(payload)  # written by _serve in a fork of this process
        outputs.append(output)
        if failure:
            # a traceback does not pickle; its text becomes the cause
            index, error, trace = failure
            error.__cause__ = StudyError(f"in study process {pid}:\n{trace}")
            failures.append((index, error))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for r, output in enumerate(outputs):
        results[r::runs] = output
    return results


def _run(func, items: list, r: int, runs: int, caller: int = 0) -> tuple:
    """Run r of ``runs``: the results of ``items[r::runs]`` up to the first
    that raises an ``Exception``, and ``(index, exception)`` of that item or
    None.  A run given its ``caller``'s pid ends the process with status 2
    before an item once the caller is gone."""
    results = []
    for index in range(r, len(items), runs):
        if caller and os.getppid() != caller:
            os._exit(2)
        try:
            results.append(func(items[index]))
        except Exception as exc:  # raised by _fan_out once every run has ended
            return results, (index, exc)
    return results, None


def _serve(func, items: list, r: int, runs: int, caller: int, write_end: int) -> None:
    """The body of a forked run: with draws on one thread, pickle the results
    of ``_run`` into ``write_end``, a failure with its traceback text, and
    exit with status 0, or 2 if they cannot be sent.  It never returns into
    the caller's stack."""
    code = 2
    rng._cores = lambda: 1
    try:
        results, failure = _run(func, items, r, runs, caller)
        if failure:
            index, exc = failure
            failure = index, exc, "".join(traceback.format_exception(exc))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps((results, failure), pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def failure_reasons(records) -> str:
    """The reasons of the failed records with their counts, most common first:
    ``"3 x reason; 1 x other reason"``."""
    reasons = Counter(rec.reason for rec in records if rec.failed)
    return "; ".join(f"{count} x {reason}" for reason, count in reasons.most_common())


def _run_rule(config, scenario, rule, y_bar, batch, d_true, rep) -> ReplicationRecord:
    try:
        choice, solution = solve_rule(scenario.op, config.filter_spec, rule, batch, y_bar,
                                      config.delta_rule, config.delta_tau)
    except (DegenerateBatchError, NonTerminationError) as exc:
        # a degenerate batch has no estimate; a search that cannot stop carries it
        d_est = getattr(exc, "delta_est", math.nan)
        return ReplicationRecord(rep, math.nan, math.nan, -1, False, d_true,
                                 d_est, failed=True, reason=str(exc))

    if scenario.ambient:
        estimate = embed_solution(scenario.op, solution.x)
        error = float(np.linalg.norm(estimate - scenario.x_hat_ambient))
    else:
        error = float(np.linalg.norm(solution.x.coefficients - scenario.x_hat.coefficients))
    return ReplicationRecord(rep, error, choice.alpha, choice.k, choice.emergency_triggered,
                             d_true, choice.delta_est_used)


# ---------------------------------------------------------------------------
# output


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` by ``text`` through a temporary file in its directory,
    with the mode ``open`` would give (0666 less the umask), not mkstemp's 0600."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _rule_slug(name: str) -> str:
    return name.replace("+", "_plus_")


def write_study_csvs(result: StudyResult, out_dir: str) -> list:
    """One CSV per (rule, n) plus summary.csv; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for rule in result.rule_names:
        for n in result.sample_sizes:
            rows = ["replication,error,alpha,k,emergency,delta_true,delta_est"]
            for rec in result.records[(rule, n)]:
                if rec.failed:
                    continue
                rows.append(",".join([
                    str(rec.replication), _fmt(rec.error), _fmt(rec.alpha),
                    str(rec.k), str(int(rec.emergency)),
                    _fmt(rec.delta_true), _fmt(rec.delta_est),
                ]))
            path = os.path.join(out_dir, f"{_rule_slug(rule)}_n{n}.csv")
            atomic_write(path, "\n".join(rows) + "\n")
            paths.append(path)

    rows = ["rule,n,mean,median,q1,q3,outliers,max"]
    for rule in result.rule_names:
        for n in result.sample_sizes:
            summary = result.summaries.get((rule, n))
            if summary is None:
                continue
            rows.append(",".join([
                rule, str(n), _fmt(summary.mean), _fmt(summary.median),
                _fmt(summary.q1), _fmt(summary.q3), str(summary.outliers),
                _fmt(summary.max),
            ]))
    path = os.path.join(out_dir, "summary.csv")
    atomic_write(path, "\n".join(rows) + "\n")
    paths.append(path)
    return paths


def format_summary_table(result: StudyResult) -> str:
    """Mean-error table with one row per sample size and one column per rule."""
    header = ["n".ljust(10)] + [rule.ljust(16) for rule in result.rule_names]
    lines = ["".join(header).rstrip()]
    for n in result.sample_sizes:
        cells = [str(n).ljust(10)]
        for rule in result.rule_names:
            summary = result.summaries.get((rule, n))
            cells.append(("-" if summary is None else f"{summary.mean:.6g}").ljust(16))
        lines.append("".join(cells).rstrip())
    return "\n".join(lines)
