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
each rule sees the same batches.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatchError,
    InputError,
    NonTerminationError,
    StudyError,
)
from .filters import FilterSpec, RegularizedSolution, apply_regularizer
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
)
from .selection import AprioriRule, ChoiceResult, apriori_alpha, discrepancy_principle
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
    # imported here, not at the top: scipy.special costs about 0.3 s of
    # start-up that no other scenario needs
    from scipy.special import ndtr

    s0 = params.s0_grid
    vol_sqrt_t = params.volatility * math.sqrt(params.expiry)
    d = (np.log(s0 / params.strike) + params.expiry * params.latent_mean()) / vol_sqrt_t
    disc = params.discounted_payoff
    density = np.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
    return {
        "value_curve": disc * ndtr(d),
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

    q: float = 0.7
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


RULE_NAMES = ("dp", "dp+es", "apriori")


def rule_from_config(entry) -> DiscrepancyRule | AprioriStudyRule:
    """Build a rule from ``{"name": ...}`` plus ``q`` for ``dp`` / ``dp+es``,
    or ``variant``, ``c``, ``nu`` and ``rho`` for ``apriori``."""
    if not isinstance(entry, dict):
        raise InputError("each rule must be an object with a 'name'")
    name = entry.get("name")
    if name not in RULE_NAMES:
        raise InputError(f"unknown rule {name!r}")
    settings = {"variant", "c", "nu", "rho"} if name == "apriori" else {"q"}
    unknown = sorted(set(entry) - {"name", *settings})
    if unknown:
        raise InputError(f"rule {name} does not take {unknown}")
    if name != "apriori":
        q = entry.get("q", 0.7)
        if not (_is_finite(q) and 0.0 < q < 1.0):
            raise InputError("rule q must lie in (0, 1)")
        return DiscrepancyRule(q=float(q), emergency=(name == "dp+es"))
    params = {key: entry.get(key, 1.0) for key in ("c", "nu", "rho")}
    not_numbers = [key for key, value in params.items() if not _is_finite(value)]
    if not_numbers:
        raise InputError(f"apriori rule {', '.join(not_numbers)} must be finite numbers")
    variant = entry.get("variant", "inv_sqrt_n_alpha")
    return AprioriStudyRule(AprioriRule(
        variant, **{key: float(value) for key, value in params.items()}
    ))


_SCENARIOS = ("diagonal_synthetic", "counterexample", "heat_like", "binary_option", "matrix_file")


@dataclass(frozen=True)
class StudyConfig:
    scenario_name: str
    scenario_params: dict
    filter_spec: FilterSpec
    rules: tuple
    delta_rule: str
    delta_tau: float | None
    sample_sizes: tuple
    replications: int
    base_seed: int
    source_nu: float = 1.0
    source_rho: float = 1.0
    noise: dict | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "StudyConfig":
        violations = []
        if not isinstance(raw, dict):
            raise ConfigError(["configuration must be a JSON object"])
        known = {"version", "scenario", "source", "filter", "noise", "rules",
                 "delta_rule", "sample_sizes", "replications", "base_seed"}
        for key in sorted(set(raw) - known):
            violations.append(f"unknown key {key!r}")
        if raw.get("version") != CONFIG_VERSION:
            violations.append(f"version must be {CONFIG_VERSION}")

        scenario_name, scenario_params = _parse_scenario(raw.get("scenario"), violations)
        source_nu, source_rho = _parse_source(raw.get("source"), scenario_name, violations)
        filter_spec = _parse_filter(raw.get("filter"), violations)
        noise = _parse_noise(raw.get("noise"), scenario_name, violations)
        rules = _parse_rules(raw.get("rules"), violations)
        delta_rule, delta_tau = _parse_delta_rule(raw.get("delta_rule"), violations)
        sample_sizes = _parse_sample_sizes(raw.get("sample_sizes"), violations)
        if delta_rule == "lil" and min(sample_sizes) < LIL_MIN_N:
            violations.append(f"lil delta rule needs every sample size >= {LIL_MIN_N}")

        replications = raw.get("replications")
        if not _is_int(replications) or replications < 1:
            violations.append("replications must be an integer >= 1")
            replications = 1
        base_seed = raw.get("base_seed")
        if not _is_int(base_seed):
            violations.append("base_seed must be an integer")
            base_seed = 0

        if violations:
            raise ConfigError(violations)
        return cls(scenario_name, scenario_params, filter_spec, rules, delta_rule,
                   delta_tau, sample_sizes, replications, base_seed,
                   source_nu, source_rho, noise)

    @classmethod
    def from_json(cls, path: str) -> "StudyConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)


def _is_int(value) -> bool:
    """JSON integer check; bool is an int subclass but not a count or a seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """JSON number check that rejects NaN, infinities and integers beyond the
    float range; ``true`` is not the number 1.0."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _check_keys(section: dict, allowed: set, label: str, violations: list) -> None:
    for key in sorted(set(section) - allowed):
        violations.append(f"unknown key {key!r} in {label}")


def _parse_scenario(section, violations):
    if not isinstance(section, dict) or "name" not in section:
        violations.append("scenario must be an object with a 'name'")
        return "diagonal_synthetic", {}
    name = section["name"]
    if name not in _SCENARIOS:
        violations.append(f"unknown scenario {name!r}")
        return "diagonal_synthetic", {}
    allowed = {
        "diagonal_synthetic": {"name", "m", "decay"},
        "counterexample": {"name", "m", "forced_value"},
        "heat_like": {"name", "m", "decay"},
        "binary_option": {"name", "grid"},
        "matrix_file": {"name", "path"},
    }[name]
    _check_keys(section, allowed, "scenario", violations)
    params = {k: v for k, v in section.items() if k != "name"}
    if name == "matrix_file" and not isinstance(params.get("path"), str):
        violations.append("matrix_file scenario needs a 'path' string")
    # a key given as null is a violation too, not the default
    for key in ("m", "grid"):
        if key in params and not (_is_int(params[key]) and params[key] >= 2):
            violations.append("scenario dimension must be an integer >= 2")
    if "decay" in params and not (_is_finite(params["decay"]) and params["decay"] > 0):
        violations.append("scenario decay must be positive and finite")
    if "forced_value" in params and not _is_finite(params["forced_value"]):
        violations.append("scenario forced_value must be a finite number")
    return name, params


def _parse_source(section, scenario_name, violations):
    if section is None:
        return 1.0, 1.0
    if scenario_name in ("counterexample", "binary_option"):
        violations.append(f"scenario {scenario_name!r} does not take a source section")
        return 1.0, 1.0
    if not isinstance(section, dict):
        violations.append("source must be an object")
        return 1.0, 1.0
    _check_keys(section, {"nu", "rho"}, "source", violations)
    nu = section.get("nu", 1.0)
    rho = section.get("rho", 1.0)
    for label, value in (("nu", nu), ("rho", rho)):
        if not (_is_finite(value) and value > 0):
            violations.append(f"source {label} must be positive and finite")
            return 1.0, 1.0
    return float(nu), float(rho)


def _parse_filter(section, violations):
    try:
        return FilterSpec.from_config(section)
    except InputError as exc:
        violations.append(str(exc))
        return FilterSpec.tikhonov()


def _parse_noise(section, scenario_name, violations):
    if section is None:
        return None
    if scenario_name in ("counterexample", "binary_option"):
        violations.append(f"scenario {scenario_name!r} has a fixed noise model")
        return None
    if not isinstance(section, dict):
        violations.append("noise must be an object with a 'variant'")
        return None
    variant = section.get("variant")
    allowed = {
        "direction_gaussian": {"variant", "scale"},
        "coefficient_gaussian": {"variant", "scale"},
        "heavy_tailed": {"variant", "shape", "scale", "location", "weight_seed"},
    }.get(variant) if isinstance(variant, str) else None
    if allowed is None:
        violations.append(f"unknown noise variant {variant!r}")
        return None
    _check_keys(section, allowed, "noise", violations)
    if scenario_name == "matrix_file" and variant == "heavy_tailed":
        violations.append("scenario 'matrix_file' does not take heavy_tailed noise")
    if "scale" in section and not (_is_finite(section["scale"]) and section["scale"] > 0):
        violations.append("noise scale must be positive and finite")
    for key in ("shape", "location"):
        if key in section and not _is_finite(section[key]):
            violations.append(f"noise {key} must be a finite number")
    if "weight_seed" in section and not _is_int(section["weight_seed"]):
        violations.append("noise weight_seed must be an integer")
    return dict(section)


def _parse_rules(section, violations):
    if not isinstance(section, list) or not section:
        violations.append("rules must be a non-empty list")
        return (DiscrepancyRule(),)
    rules = []
    for entry in section:
        try:
            rules.append(rule_from_config(entry))
        except InputError as exc:
            violations.append(str(exc))
    names = [rule.name for rule in rules]
    if len(set(names)) != len(names):
        violations.append("rule names must be unique")
    return tuple(rules)


def _parse_delta_rule(section, violations):
    if not isinstance(section, dict):
        violations.append("delta_rule must be an object with a 'name'")
        return "sample_std", None
    _check_keys(section, {"name", "tau"}, "delta_rule", violations)
    name = section.get("name")
    if name not in DELTA_RULES:
        violations.append(f"unknown delta rule {name!r}")
        return "sample_std", None
    tau = section.get("tau")
    if name == "lil":
        if not (_is_finite(tau) and tau > 1):
            violations.append("lil delta rule needs a finite tau > 1")
            tau = 1.5
        return name, float(tau)
    if tau is not None:
        violations.append("tau is only meaningful for the lil delta rule")
    return name, None


def _parse_sample_sizes(section, violations):
    if not isinstance(section, list) or not section:
        violations.append("sample_sizes must be a non-empty list")
        return (100,)
    sizes = []
    for value in section:
        if not _is_int(value) or value < 2:
            violations.append("every sample size must be an integer >= 2")
            return (100,)
        sizes.append(value)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        violations.append("sample_sizes must be strictly increasing")
    return tuple(sizes)


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


def _smooth_source(m: int, nu: float, rho: float, alternating: bool) -> SourceCondition:
    levels = np.arange(1, m + 1, dtype=float)
    if alternating:
        w = np.exp(-3.0 * levels / m)
        w[1::2] *= -1.0
    else:
        w = levels**-0.55
    w *= rho / np.linalg.norm(w)
    return SourceCondition(nu, rho, w)


def _default_direction(m: int) -> CoefficientVector:
    weights = np.arange(1, m + 1, dtype=float) ** -0.75
    return CoefficientVector(weights / np.linalg.norm(weights), 0.0)


def _noise_model(config: StudyConfig, m: int, default):
    section = config.noise
    if section is None:
        return default
    variant = section["variant"]
    if variant == "direction_gaussian":
        base = _default_direction(m)
        scale = float(section.get("scale", 1.0))
        return DirectionGaussian(CoefficientVector(scale * base.coefficients, 0.0))
    if variant == "coefficient_gaussian":
        return CoefficientGaussian(float(section.get("scale", 1.0)))
    return HeavyTailed(
        float(section.get("shape", 1.0 / 3.0)),
        float(section.get("scale", 0.5)),
        float(section.get("location", 1.5)),
        np.asarray(HeavyTailed.default(m, int(section.get("weight_seed", 5))).weights),
    )


def build_scenario(config: StudyConfig) -> Scenario:
    name = config.scenario_name
    params = config.scenario_params

    if name == "diagonal_synthetic":
        m = int(params.get("m", 200))
        decay = float(params.get("decay", 1.0))
        op = SpectralDecomposition(np.arange(1, m + 1, dtype=float) ** -decay)
        sc = _smooth_source(m, config.source_nu, config.source_rho, alternating=False)
        x_hat, y_hat = synthesize_source(op, sc)
        model = _noise_model(config, m, DirectionGaussian(_default_direction(m)))
        return Scenario(op, x_hat, y_hat, model)

    if name == "counterexample":
        m = int(params.get("m", 100))
        op, direction = counterexample_operator(m)
        zero = CoefficientVector(np.zeros(m), 0.0)
        forced = params.get("forced_value")
        return Scenario(op, zero, zero, DirectionGaussian(direction),
                        forced_value=None if forced is None else float(forced))

    if name == "heat_like":
        m = int(params.get("m", 100))
        decay = float(params.get("decay", DEFAULT_HEAT_DECAY))
        op = heat_like_operator(m, decay)
        sc = _smooth_source(m, config.source_nu, config.source_rho, alternating=True)
        x_hat, y_hat = synthesize_source(op, sc)
        model = _noise_model(config, m, HeavyTailed.default(m))
        return Scenario(op, x_hat, y_hat, model)

    if name == "binary_option":
        grid = int(params.get("grid", 512))
        option = BinaryOptionParams.default(grid)
        op = integration_operator(grid)
        truth = binary_option_truth(option)
        root_h = math.sqrt(option.grid_weight)
        x_hat_ambient = root_h * truth["derivative_curve"]
        y_hat = CoefficientVector(root_h * truth["value_curve"], 0.0)
        x_hat = project_solution(op, x_hat_ambient)
        return Scenario(op, x_hat, y_hat, BernoulliPayoff(option),
                        ambient=True, x_hat_ambient=x_hat_ambient)

    if name == "matrix_file":
        op = svd(load_matrix_csv(params["path"]))
        m = op.rank
        sc = _smooth_source(m, config.source_nu, config.source_rho, alternating=True)
        x_hat, y_hat = synthesize_source(op, sc)
        x_hat_ambient = embed_solution(op, x_hat)
        y_hat_ambient = CoefficientVector(op.left_basis @ y_hat.coefficients, 0.0)
        noise = config.noise or {"variant": "direction_gaussian"}
        scale = float(noise.get("scale", 1.0))
        if noise["variant"] == "coefficient_gaussian":
            model = CoefficientGaussian(scale)
        else:
            direction = op.left_basis @ _default_direction(m).coefficients
            model = DirectionGaussian(CoefficientVector(scale * direction, 0.0))
        return Scenario(op, x_hat, y_hat_ambient, model,
                        ambient=True, x_hat_ambient=x_hat_ambient)

    raise InputError(f"unknown scenario {name!r}")


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
    excluded from summaries; more than 5% failures abort the study.
    """
    scenario = build_scenario(config)
    rule_names = tuple(rule.name for rule in config.rules)
    records = {(name, n): [] for name in rule_names for n in config.sample_sizes}
    failed = 0
    total = 0

    for n_index, n in enumerate(config.sample_sizes):
        stream_base = n_index << 32
        for rep in range(config.replications):
            forced = None
            if scenario.forced_value is not None:
                forced = np.full(n, scenario.forced_value)
            batch = draw_batch(scenario.model, scenario.y_hat, n,
                               config.base_seed, stream_base | rep, forced)
            if scenario.ambient:
                y_bar = project_data(scenario.op, batch.mean.coefficients)
            else:
                y_bar = batch.mean
            d_true = delta_true(batch, scenario.y_hat)
            for rule in config.rules:
                total += 1
                record = _run_rule(config, scenario, rule, y_bar, batch, d_true, rep)
                failed += record.failed
                records[(rule.name, n)].append(record)
            # release this batch before the next is drawn: a full-sample
            # batch holds an n x m matrix
            del batch, y_bar

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
