"""Monte-Carlo experiment harness.

A study runs replicated end-to-end solves — draw a measurement batch,
estimate the noise level, choose alpha by one or more rules, regularize,
record the solution error — over a grid of sample sizes, then summarizes the
error distributions (mean, quartiles, IQR outliers).  Five scenario families
are packaged: synthetic diagonal operators, the divergence counterexample, a
severely ill-posed exponential surrogate with heavy-tailed noise, the
binary-option differentiation problem, and arbitrary operators imported from
CSV matrices.

All randomness flows from ``base_seed`` through one substream per
(sample-size index, replication) pair, so studies are bit-reproducible and
each rule sees the same batches.  No such pair depends on another, so a
study draws, projects and estimates them in forked processes: one per core,
as long as the available memory holds one batch per process.  Each pair
comes back as its projected mean, about 8 m bytes that the caller holds
until it solves each (rule, sample size) as one stack of replications.
Each process draws its pairs largest sample size first: glibc serves a batch
below its mmap threshold from the heap, which keeps it after it is freed, so
a smaller batch drawn before a larger one would stay resident beneath it.
The outputs depend on neither the order nor the number of processes.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import resource
import signal
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    BatchOverflowError,
    ConfigError,
    DegenerateBatchError,
    InputError,
    StudyError,
)
from .filters import _CHUNK, KINDS, FilterSpec, apply_regularizer, residual_factor
from .measurements import (
    DELTA_RULES,
    LIL_MIN_N,
    BinaryOptionParams,
    CoefficientGaussian,
    DirectionGaussian,
    HeavyTailed,
    MeasurementBatch,
    NoiseModel,
    batch_bytes,
    delta_est,
    delta_true,
    draw_batch,
    heavy_tail_weights,
)
from .selection import (
    _BLOCK,
    APRIORI_VARIANTS,
    AprioriRule,
    ChoiceResult,
    apriori_alpha,
    discrepancy_principle,
)
from .spectral import (
    SpectralDecomposition,
    counterexample_operator,
    embed_solution,
    load_matrix_csv,
    project_data,
    # perfbench's tracer requires study to bind project_solution
    project_solution,  # noqa: F401
    svd,
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
    d = (np.log(s0 / params.strike) + params.expiry * params.latent_mean) / vol_sqrt_t
    disc = params.discounted_payoff
    density = np.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
    return {
        "value_curve": disc * np.array([0.5 * math.erfc(x) for x in -d / math.sqrt(2.0)]),
        "derivative_curve": disc * density / (s0 * vol_sqrt_t),
    }


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class Summary:
    mean: float
    median: float
    q1: float
    q3: float
    outliers: int
    max: float


def _quartiles(values: np.ndarray) -> list:
    """q1, median and q3 of ``values`` by numpy's linear method, bit for bit:
    the virtual index h = (n - 1) q, and numpy's lerp between the order
    statistics either side of it.  ``np.quantile`` itself imports numpy.ma."""
    ordered, last = np.sort(values), values.size - 1
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        lo = math.floor(last * q)
        t, a, b = last * q - lo, float(ordered[lo]), float(ordered[min(lo + 1, last)])
        quartiles.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return quartiles


def summarize(errors) -> Summary:
    """Mean, median, linearly interpolated quartiles and 1.5-IQR upper-fence
    outlier count of an error sample."""
    values = np.atleast_1d(np.asarray(errors, dtype=float))
    if values.size == 0:
        raise InputError("cannot summarize an empty error list")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise InputError("errors must be finite and nonnegative")
    q1, median, q3 = _quartiles(values)
    fence = q3 + 1.5 * (q3 - q1)
    return Summary(
        mean=float(values.mean()),
        median=median,
        q1=q1,
        q3=q3,
        outliers=int(np.sum(values > fence)),
        max=float(values.max()),
    )


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
# a setting that scales the data is at most 1e100 in magnitude, so s_n's sum
# of n m squared deviations stays finite for n m up to 1e108
_MAGNITUDE = ("a finite number of magnitude <= 1e100",
              lambda v: _is_finite(v) and abs(v) <= 1e100, float)
_SCALE = ("positive and <= 1e100", lambda v: _is_finite(v) and 0 < v <= 1e100, float)
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
    "counterexample": {"m": (_DIMENSION, 100), "forced_value": (_MAGNITUDE, None)},
    "heat_like": {"m": (_DIMENSION, 100), "decay": (_POSITIVE, DEFAULT_HEAT_DECAY)},
    "binary_option": {"grid": (_DIMENSION, 512)},
    "matrix_file": {"path": (_STRING, _REQUIRED)},
}
#: the noise variant of a config without a noise section; the scenarios not
#: named here fix their noise and their source and take neither section
DEFAULT_NOISE = {"diagonal_synthetic": "direction_gaussian", "heat_like": "heavy_tailed",
                 "matrix_file": "direction_gaussian"}
SOURCE = {"nu": (_POSITIVE, 1.0), "rho": (_SCALE, 1.0)}
NOISES = {
    "direction_gaussian": {"scale": (_SCALE, 1.0)},
    "coefficient_gaussian": {"scale": (_SCALE, 1.0)},
    "heavy_tailed": {"shape": (_FINITE, 1.0 / 3.0), "scale": (_SCALE, 0.5),
                     "location": (_MAGNITUDE, 1.5), "weight_seed": (_SEED, 5)},
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


def _resolve_rule(entry, violations: list) -> dict | None:
    """A rules entry resolved like a section; the inv_sqrt_n_alpha variant
    reads none of the keys of the scaled_source formula."""
    rule = resolve("rule", RULES, entry, violations, "name")
    if rule and rule.get("variant") == "inv_sqrt_n_alpha":
        ignored = sorted(set(entry) & {"c", "nu", "rho"})
        if ignored:
            violations.append(f"rule apriori inv_sqrt_n_alpha does not take {ignored}")
    return rule


def _rule(entry: dict) -> DiscrepancyRule | AprioriRule:
    if entry["name"] == "apriori":
        return AprioriRule(entry["variant"], entry["c"], entry["nu"], entry["rho"])
    return DiscrepancyRule(entry["q"], emergency=entry["name"] == "dp+es")


@dataclass(frozen=True)
class StudyConfig:
    """A valid study config.  ``scenario``, ``source``, ``noise`` and
    ``delta_rule`` are the resolved sections, with every key of their choice, or
    None where the scenario fixes them or, for ``delta_rule``, no rule reads one."""

    scenario: dict
    source: dict | None
    noise: dict | None
    filter_spec: FilterSpec
    rules: tuple
    delta_rule: dict | None
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
        rules = [_resolve_rule(entry, violations) for entry in study.get("rules", [])]
        apriori_only = [rule and rule.get("variant") for rule in rules] == ["inv_sqrt_n_alpha"]
        delta = None if apriori_only else resolve("delta_rule", DELTAS, raw.get("delta_rule"),
                                                  violations, "name")
        if apriori_only and "delta_rule" in raw:
            violations.append("rule apriori inv_sqrt_n_alpha does not take a delta_rule section")

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
                   tuple(map(_rule, rules)), delta, sizes,
                   study["replications"], study["base_seed"])


def read_config(path: str):
    """The JSON value in the config file ``path``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # a deep nesting recurses
        raise InputError(f"cannot read config {path}: {exc}") from exc


def default_heat_config() -> dict:
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
        "replications": 200,
        "base_seed": 99,
    }


def default_binopt_config() -> dict:
    """Binary-option differentiation: Tikhonov + discrepancy principle."""
    return {
        "version": CONFIG_VERSION,
        "scenario": {"name": "binary_option", "grid": 512},
        "filter": {"kind": "tikhonov"},
        "rules": [{"name": "dp", "q": 0.7}],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [1000, 10000],
        "replications": 20,
        "base_seed": 20240502,
    }


def default_counterexample_config(n_max: int = 6, forced: bool = False,
                                  emergency: bool = False) -> dict:
    """The divergence construction: TSVD with the 1/sqrt(n) noise estimate,
    at the scenario's default m."""
    scenario = {"name": "counterexample"}
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
        "base_seed": 1,
    }


# ---------------------------------------------------------------------------
# scenario assembly


@dataclass(frozen=True)
class Scenario:
    """Everything a study replication needs: the operator, the true solution
    ``x_hat`` and the exact data ``y_hat`` as arrays in the operator's
    solution and data coordinates, and the noise model.  An operator without
    bases is diagonal and its coordinates are its coefficients; otherwise
    they are ambient, and ``project_data`` and ``embed_solution`` map to and
    from coefficients."""

    op: SpectralDecomposition
    x_hat: np.ndarray
    y_hat: np.ndarray
    model: NoiseModel


def _noise_model(noise: dict, m: int, basis: np.ndarray | None):
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
    return DirectionGaussian(noise["scale"] * direction)


def _smooth_scenario(op: SpectralDecomposition, config: StudyConfig,
                     alternating: bool) -> Scenario:
    """The scenario of the smooth solution x = (K*K)^{nu/2} w on ``op``, with
    ||w|| = rho and w_l proportional to l^-0.55, or with ``alternating`` to
    (-1)^(l-1) exp(-3 l/m).  The data and the noise direction are mapped
    into ambient coordinates when ``op`` has a left basis.  A solution or
    data that overflow double precision are a ConfigError."""
    m, source = op.rank, config.source
    levels = np.arange(1, m + 1, dtype=float)
    if alternating:
        w = np.exp(-3.0 * levels / m)
        w[1::2] *= -1.0
    else:
        w = levels**-0.55
    w *= source["rho"] / np.linalg.norm(w)
    # an inf coefficient times a zero basis entry is nan: both mean overflow
    with np.errstate(over="ignore", invalid="ignore"):
        x_hat = op.singular_values ** source["nu"] * w
        y_hat = op.singular_values * x_hat
        if op.left_basis is not None:
            y_hat = op.left_basis @ y_hat
        x_hat = embed_solution(op, x_hat)
    if not (np.all(np.isfinite(x_hat)) and np.all(np.isfinite(y_hat))):
        raise ConfigError([f"source nu: the solution or data at nu = {source['nu']:g} and "
                           f"rho = {source['rho']:g} overflow double precision"])
    return Scenario(op, x_hat, y_hat, _noise_model(config.noise, m, op.left_basis))


def build_scenario(config: StudyConfig) -> Scenario:
    """The scenario of a config: the counterexample's zero truth with its
    adversarial noise direction, forced to ``forced_value`` when that is set,
    the binary option's analytic truth with Bernoulli payoffs, or a smooth
    source on a diagonal, heat-like or CSV-matrix operator.  A diagonal
    spectrum that underflows is a ConfigError that names the scenario's m."""
    params = config.scenario
    name, m = params["name"], params.get("m")
    try:
        if name == "counterexample":
            op, direction = counterexample_operator(m)
        elif name == "heat_like":
            op = heat_like_operator(m, params["decay"])
        elif name == "diagonal_synthetic":
            op = SpectralDecomposition(np.arange(1, m + 1, dtype=float) ** -params["decay"])
    except InputError as exc:
        at = " and ".join(f"{key} = {params[key]:g}" for key in ("m", "decay") if key in params)
        raise ConfigError([f"scenario m: {name} at {at}: {exc}"]) from exc

    if name == "counterexample":
        zero = np.zeros(m)
        return Scenario(op, zero, zero, DirectionGaussian(direction, params["forced_value"]))

    if name == "binary_option":
        option = BinaryOptionParams.default(params["grid"])
        truth = binary_option_truth(option)
        root_h = math.sqrt(option.grid_weight)
        return Scenario(integration_operator(params["grid"]),
                        root_h * truth["derivative_curve"],
                        root_h * truth["value_curve"], option)

    if name == "matrix_file":
        op = matrix_rank_check(svd(load_matrix_csv(params["path"])), params["path"])
    return _smooth_scenario(op, config, alternating=name != "diagonal_synthetic")


def matrix_rank_check(op: SpectralDecomposition, path: str) -> SpectralDecomposition:
    """``op``, the SVD of the matrix CSV ``path``, unless it keeps no singular
    value: a rank-0 operator maps every solution to 0."""
    if op.rank == 0:
        raise InputError(f"matrix CSV {path} has rank 0: no singular value is above "
                         "1e-14 times the largest")
    return op


# ---------------------------------------------------------------------------
# execution


def rule_delta(rule: DiscrepancyRule | AprioriRule, batch: MeasurementBatch,
               delta_rule: dict | None) -> float:
    """The noise estimate ``rule`` takes from ``batch``: by the resolved
    ``delta_rule`` section, but 1/sqrt(n), its alpha, for ``inv_sqrt_n_alpha``.
    Raises DegenerateBatchError when a sample-based estimate is undefined."""
    if isinstance(rule, AprioriRule) and rule.variant == "inv_sqrt_n_alpha":
        return delta_est(batch, "inv_sqrt_n")
    return delta_est(batch, delta_rule["name"], delta_rule.get("tau"))


def solve_rule(op: SpectralDecomposition, spec: FilterSpec, rule: DiscrepancyRule | AprioriRule,
               y_bar, delta, n: int):
    """Choose alpha by ``rule`` and regularize each row of ``y_bar``, means
    of n measurements in the left singular basis of ``op`` with one noise
    estimate each in ``delta``: per row a (ChoiceResult, solution coefficients)
    pair, or the NonTerminationError its search raises.
    An a priori choice has k = -1."""
    if isinstance(rule, DiscrepancyRule):
        choices = discrepancy_principle(op, spec, y_bar, delta, q=rule.q,
                                        emergency_n=n if rule.emergency else None)
    else:
        choices = [ChoiceResult(apriori_alpha(rule, d), -1, False) for d in delta]
    chosen = [i for i, choice in enumerate(choices) if isinstance(choice, ChoiceResult)]
    solutions = apply_regularizer(op, spec, [choices[i].alpha for i in chosen],
                                  [y_bar[i] for i in chosen])
    for i, x in zip(chosen, solutions):
        choices[i] = choices[i], x
    return choices


@dataclass(frozen=True, slots=True)
class ReplicationRecord:
    """One rule's outcome on one batch; a failed replication has a ``reason``."""

    error: float
    alpha: float
    k: int
    emergency: bool
    delta_true: float
    delta_est: float
    reason: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.reason)


#: bytes a held (sample size, replication) pair takes beside its 8 m bytes of
#: projected mean; tracemalloc read 300 to 375 for one to three rules
_CELL_OVERHEAD = 384
#: bytes of the record of each pair and rule; tracemalloc read 175 to 300
_RECORD_BYTES = 320
#: (_BLOCK, m) arrays of the search's shared power form, and filter temporaries of a
#: chunk of rows (at most the stack and _CHUNK elements, or one row), beside the one
#: m-vector and _BLOCK search residuals of each row of a stack being solved;
#: tracemalloc read 3.0 and 7.1, and 1.0-1.4 m-vectors a row with the choices
_SOLVE_BLOCKS, _SOLVE_CHUNKS = 3, 8
#: (size key, its power, bytes per 8 size^power) of the scenarios whose arrays grow
#: with a key, above build_scenario's tracemalloc peaks of 11.3 (m 200), 15.1 (m 100)
#: and 8.3 (grid 64).  The counterexample caps m at 161; a matrix_file is its file's size
_SCENARIO_BYTES = {"diagonal_synthetic": ("m", 1, 12), "heat_like": ("m", 1, 16),
                   "binary_option": ("grid", 2, 12)}


def held_bytes(pairs: int, replications: int, m: int, rules: int) -> int:
    """Bytes the caller of a study holds for ``pairs`` (sample size,
    replication) pairs of m coefficients and the records of ``rules`` rules,
    while it solves a stack of ``replications``."""
    solve = (replications * (m + _BLOCK) + _SOLVE_BLOCKS * _BLOCK * m
             + _SOLVE_CHUNKS * min(replications * m, max(_CHUNK, m)))
    return pairs * (8 * m + _CELL_OVERHEAD + rules * _RECORD_BYTES) + 8 * solve


def _check_budget(budget: int, need: int, head: str, tail: str = "") -> None:
    """Raise a ConfigError of ``head``, ``need`` bytes and ``tail`` if need > budget."""
    if need > budget:
        raise ConfigError([f"{head} {need} bytes{tail}, above the {budget} bytes available"])


def run_study(config: StudyConfig) -> dict:
    """Run every (rule, sample size, replication) cell; deterministic.  Returns
    ``{(rule name, n): [ReplicationRecord, ...]}`` in the config's order.

    All rules share the batch of a given (sample size, replication) pair.
    Replications whose batch overflows, whose sample-based noise estimate
    degenerates, whose search cannot stop or whose solution error overflows
    are recorded as failed with the reason and excluded from summaries; over
    5% failures abort it.  The (sample size, replication) pairs are drawn,
    projected and estimated in ``_fan_out``, one run per core as long as the
    memory budget holds the largest batch once per run; the caller then
    solves each (rule, sample size) as one stack of its replications.  A
    scenario, a largest batch or pairs and a solve stack above the budget
    are a ConfigError before any of them is allocated.
    """
    budget, params = _budget(), config.scenario
    if params["name"] in _SCENARIO_BYTES:
        key, power, factor = _SCENARIO_BYTES[params["name"]]
        _check_budget(budget, factor * 8 * params[key] ** power,
                      f"scenario {key}: {params['name']} at {key} = {params[key]} holds")
    scenario = build_scenario(config)
    # a filter the spectrum makes divergent fails before any batch is drawn
    residual_factor(config.filter_spec, 1.0, scenario.op.squares)

    def cell(index):
        n_index, rep = divmod(index, config.replications)
        try:
            batch = draw_batch(scenario.model, scenario.y_hat, config.sample_sizes[n_index],
                               config.base_seed, (n_index << 32) | rep)
        except BatchOverflowError as exc:  # the reason of every rule's record
            return None, math.nan, [str(exc)] * len(config.rules)
        deltas = []
        for rule in config.rules:
            try:
                deltas.append(rule_delta(rule, batch, config.delta_rule))
            except DegenerateBatchError as exc:
                deltas.append(str(exc))  # the reason there is no estimate
        # the batch is released on return, before the next is drawn: a
        # full-sample batch holds an n x m matrix
        return project_data(scenario.op, batch.mean), delta_true(batch, scenario.y_hat), deltas

    pairs = len(config.sample_sizes) * config.replications
    n_max, m = max(config.sample_sizes), len(scenario.y_hat)
    cell_bytes = batch_bytes(scenario.model, n_max, m)
    _check_budget(budget, cell_bytes, f"sample_sizes: one batch of n = {n_max} holds")
    _check_budget(budget, held_bytes(pairs, config.replications, m, len(config.rules)),
                  f"replications: {pairs} pairs of sample size and replication take",
                  f" while a stack of {config.replications} is solved")
    # each run draws its pairs largest sample size first: once glibc has freed
    # one mmapped batch it raises its mmap threshold, so a smaller batch drawn
    # before a larger one can stay on the heap beneath it
    cells = _fan_out(cell, range(pairs - 1, -1, -1), min(_cores(), budget // cell_bytes))[::-1]
    records = {}
    for r, rule in enumerate(config.rules):
        for n_index, n in enumerate(config.sample_sizes):
            stack = cells[n_index * config.replications:(n_index + 1) * config.replications]
            records[(rule.name, n)] = _solve_stack(config, scenario, rule, n, r, stack)

    total = pairs * len(config.rules)
    failed = sum(rec.failed for recs in records.values() for rec in recs)
    if failed > 0.05 * total:
        detail = failure_reasons(rec for recs in records.values() for rec in recs)
        raise StudyError(
            f"{failed} of {total} replications failed ({detail}); "
            "summaries would be meaningless"
        )
    return records


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


#: the directory prefix and the limit and usage files of a memory controller
#: by its controller field in ``/proc/self/cgroup``: v2 (empty) and v1
_MEMORY_FILES = {"": ("", "memory.max", "memory.current"),
                 "memory": ("/memory", "memory.limit_in_bytes", "memory.usage_in_bytes")}


def _kib_field(path: str, key: str) -> int:
    """Bytes of the ``key: N kB`` line of the proc file ``path``; raises
    OSError or StopIteration when it cannot be read."""
    with open(path) as file:
        return next(int(line.split()[1]) * 1024 for line in file if line.startswith(key))


def _budget() -> int:
    """Bytes of memory a study may fill: ``MemAvailable``, or else the
    physical memory, capped by what the process's cgroup has left under each
    memory controller it can read, v2 (``0::/path``) or v1 (``N:memory:/path``),
    and by what its soft ``RLIMIT_AS`` leaves above its ``VmSize``."""
    try:
        budget = _kib_field("/proc/meminfo", "MemAvailable:")
    except (OSError, StopIteration):
        budget = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    address_space = resource.getrlimit(resource.RLIMIT_AS)[0]
    if address_space != resource.RLIM_INFINITY:
        try:
            mapped = _kib_field("/proc/self/status", "VmSize:")
        except (OSError, StopIteration):
            mapped = 0
        budget = min(budget, address_space - mapped)
    try:
        with open("/proc/self/cgroup") as file:
            lines = file.read().splitlines()
    except OSError:
        lines = []
    for line in lines:
        try:
            _, controller, group = line.split(":", 2)
            prefix, limit_file, used_file = _MEMORY_FILES[controller]
            directory = f"/sys/fs/cgroup{prefix}{group.rstrip('/')}"
            with open(f"{directory}/{limit_file}") as file:
                limit = file.read().strip()
            with open(f"{directory}/{used_file}") as file:
                used = int(file.read())
            if limit != "max":
                budget = min(budget, int(limit) - used)
        except (KeyError, OSError, ValueError):
            pass  # not a memory controller, or not one this process can read
    return budget


def _fan_out(func, items, runs: int) -> list:
    """``[func(item) for item in items]``, computed in up to ``runs`` strided runs.

    Run r computes ``items[r::runs]``.  Each run but the first is a forked
    child that pickles its results into a pipe; the caller computes the first
    run, then reads and reaps every child.  A run stops at its first
    exception, and once all children are reaped the exception of the lowest
    item is raised, a child's with its traceback text as the cause.  A child
    that ends without a result raises StudyError, a child whose caller has
    gone exits before its next item, and an interrupt of the caller kills the
    children.  ``func`` must depend only on its item, so neither the results
    nor the error depend on the number of runs.
    """
    runs = min(runs, len(items)) if hasattr(os, "fork") else 1
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


def _run(func, items, r: int, runs: int, caller: int = 0) -> tuple:
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


def _serve(func, items, r: int, runs: int, caller: int, write_end: int) -> None:
    """The body of a forked run: pickle the results of ``_run`` into
    ``write_end``, a failure with its traceback text, and exit with status 0,
    or 2 if they cannot be sent.  It never returns into the caller's stack."""
    code = 2
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


def _solve_stack(config, scenario, rule, n: int, r: int, stack: list) -> list:
    """The records of the config's r-th rule on the cells of sample size n,
    (y_bar, delta_true, estimates) triples whose r-th estimate is a float or
    the reason there is none; the cells with an estimate are one stack."""
    outcomes = [deltas[r] for _, _, deltas in stack]
    rows = [i for i, delta in enumerate(outcomes) if not isinstance(delta, str)]
    solved = solve_rule(scenario.op, config.filter_spec, rule, [stack[i][0] for i in rows],
                        [outcomes[i] for i in rows], n)
    for i, outcome in zip(rows, solved):
        outcomes[i] = outcome
    records = []
    # an inf coefficient times a zero basis entry is nan: both mean overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for (_, d_true, deltas), outcome in zip(stack, outcomes):
            estimate = math.nan if isinstance(deltas[r], str) else deltas[r]
            if isinstance(outcome, tuple):
                choice, x = outcome
                # np.linalg.norm of a 1-D float array, which is sqrt(d . d)
                d = embed_solution(scenario.op, x) - scenario.x_hat
                error = math.sqrt(d.dot(d))
                reason = ("" if math.isfinite(error)
                          else "the solution error overflows double precision")
                records.append(ReplicationRecord(error, choice.alpha, choice.k,
                                                 choice.emergency_triggered, d_true, estimate,
                                                 reason))
            else:  # a degenerate batch has no estimate; a search that cannot stop has one
                records.append(ReplicationRecord(math.nan, math.nan, -1, False, d_true,
                                                 estimate, str(outcome)))
    return records


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


def write_study_csvs(records: dict, out_dir: str) -> list:
    """One CSV per (rule, n) of the records plus summary.csv; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths, summaries = [], ["rule,n,mean,median,q1,q3,outliers,max"]
    for (rule, n), recs in records.items():
        rows = ["replication,error,alpha,k,emergency,delta_true,delta_est"]
        for replication, rec in enumerate(recs):
            if rec.failed:
                continue
            rows.append(",".join([
                str(replication), _fmt(rec.error), _fmt(rec.alpha),
                str(rec.k), str(int(rec.emergency)),
                _fmt(rec.delta_true), _fmt(rec.delta_est),
            ]))
        path = os.path.join(out_dir, f"{rule.replace('+', '_plus_')}_n{n}.csv")
        atomic_write(path, "\n".join(rows) + "\n")
        paths.append(path)
        errors = [rec.error for rec in recs if not rec.failed]
        if errors:
            summary = summarize(errors)
            summaries.append(",".join([
                rule, str(n), _fmt(summary.mean), _fmt(summary.median),
                _fmt(summary.q1), _fmt(summary.q3), str(summary.outliers),
                _fmt(summary.max),
            ]))
    path = os.path.join(out_dir, "summary.csv")
    atomic_write(path, "\n".join(summaries) + "\n")
    paths.append(path)
    return paths


def format_summary_table(records: dict) -> str:
    """Mean-error table with one row per sample size and one column per rule."""
    rules = dict.fromkeys(rule for rule, _ in records)
    header = ["n".ljust(10)] + [rule.ljust(16) for rule in rules]
    lines = ["".join(header).rstrip()]
    for n in dict.fromkeys(n for _, n in records):
        cells = [str(n).ljust(10)]
        for rule in rules:
            errors = [rec.error for rec in records[(rule, n)] if not rec.failed]
            # the mean that summarize gives, without its quartiles
            cells.append(("-" if not errors else f"{float(np.mean(errors)):.6g}").ljust(16))
        lines.append("".join(cells).rstrip())
    return "\n".join(lines)
