"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line and enforces a wall-clock budget.
The numbers asserted here come from independent oracles (closed forms,
explicit summation, analytic curves), not from the library's own helpers,
wherever the quantity admits one.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from avereg.filters import (
    FilterSpec,
    apply_regularizer,
    filter_value,
    verify_filter_constants,
)
from avereg.measurements import BinaryOptionParams, draw_batch
from avereg.selection import discrepancy_principle
from avereg.spectral import CoefficientVector, SpectralDecomposition
from avereg.study import (
    StudyConfig,
    default_binopt_config,
    default_counterexample_config,
    default_heat_config,
    run_study,
    write_study_csvs,
)

ALL_SPECS = [
    FilterSpec.tikhonov(),
    FilterSpec("iterated_tikhonov", order=2),
    FilterSpec("tsvd"),
    FilterSpec("landweber", relaxation=0.9),
]

#: one line per criterion, echoed by conftest in the terminal summary
REPORT_LINES = []


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number}: {status} - {detail}"
    REPORT_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def diagonal_study():
    """Shared mildly ill-posed convergence study (criteria 5 and 7)."""
    raw = {
        "version": 1,
        "scenario": {"name": "diagonal_synthetic", "m": 200, "decay": 1.0},
        "source": {"nu": 1.0, "rho": 1.0},
        "filter": {"kind": "tikhonov"},
        "rules": [
            {"name": "dp", "q": 0.7},
            {"name": "apriori", "variant": "inv_sqrt_n_alpha"},
        ],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [100, 1000, 10000, 100000],
        "replications": 200,
        "base_seed": 42,
    }
    start = time.perf_counter()
    result = run_study(StudyConfig.from_dict(raw))
    return result, time.perf_counter() - start


def test_acceptance_1_filter_constants():
    start = time.perf_counter()
    cases = [
        (FilterSpec.tikhonov(), 2.0),
        (FilterSpec("iterated_tikhonov", order=2), 4.0),
        (FilterSpec("tsvd"), 20.0),
        (FilterSpec("landweber", relaxation=0.9), 20.0),
    ]
    reports = [verify_filter_constants(spec, nu=nu)
               for spec, nu in cases]
    elapsed = time.perf_counter() - start
    passed = all(r.passed for r in reports) and elapsed < 5.0
    _report(1, passed,
            f"4/4 filter families certified on the grid in {elapsed:.2f}s")
    assert all(r.passed for r in reports), [r.violations for r in reports]
    assert elapsed < 5.0


def test_acceptance_2_norm_and_bias_bounds():
    start = time.perf_counter()
    alphas = np.logspace(-8, 0, 25)
    worst_norm = 0.0
    worst_bias = 0.0
    for case in range(50):
        rng = np.random.default_rng(1000 + case)
        m = int(rng.integers(5, 40))
        sigma = np.sort(rng.uniform(1e-3, 1.0, size=m))[::-1]
        op = SpectralDecomposition(sigma)
        spec = ALL_SPECS[case % len(ALL_SPECS)]
        nu = min(spec.qualification, 2.0)
        rho = float(rng.uniform(0.5, 3.0))
        w = rng.standard_normal(m)
        w *= rho / np.linalg.norm(w)
        x_hat = sigma**nu * w
        y_hat = CoefficientVector(sigma * x_hat)
        c_nu = spec.c_nu(nu)
        for alpha in alphas:
            alpha = float(alpha)
            # ||R_alpha|| = max_l sigma_l F_alpha(sigma_l^2)
            operator_norm = float(np.max(sigma * filter_value(spec, alpha, sigma**2)))
            norm_bound = math.sqrt(spec.c_r * spec.c_f / alpha)
            worst_norm = max(worst_norm, operator_norm / norm_bound)
            smooth = apply_regularizer(op, spec, alpha, y_hat)
            bias = float(np.linalg.norm(smooth.x - x_hat))
            bias_bound = c_nu * rho * alpha ** (nu / 2.0)
            if bias_bound > 0:
                worst_bias = max(worst_bias, bias / bias_bound)
    elapsed = time.perf_counter() - start
    passed = worst_norm <= 1.0 + 1e-9 and worst_bias <= 1.0 + 1e-9 and elapsed < 10.0
    _report(2, passed,
            f"50 operators x 25 alphas: worst norm ratio {worst_norm:.4f}, "
            f"worst bias ratio {worst_bias:.4f} in {elapsed:.2f}s")
    assert worst_norm <= 1.0 + 1e-9
    assert worst_bias <= 1.0 + 1e-9
    assert elapsed < 10.0


def test_acceptance_3_stop_certificates():
    start = time.perf_counter()

    def oracle_residual(sigma, spec, alpha, coef, orth):
        total = orth * orth
        for s, c in zip(sigma, coef):
            lam = s * s
            total += (1.0 - lam * filter_value(spec, alpha, lam)) ** 2 * c * c
        return math.sqrt(total)

    checked = 0
    for case in range(1000):
        rng = np.random.default_rng(20000 + case)
        m = int(rng.integers(1, 12))
        sigma = np.sort(rng.uniform(0.05, 1.0, size=m))[::-1]
        op = SpectralDecomposition(sigma)
        coef = rng.standard_normal(m)
        y = CoefficientVector(coef)
        spec = ALL_SPECS[case % len(ALL_SPECS)]
        q = float(rng.uniform(0.4, 0.9))
        base = oracle_residual(sigma, spec, 1.0, coef, 0.0)
        if base == 0.0:
            continue
        delta = base * float(rng.uniform(0.02, 0.98))
        result = discrepancy_principle(op, spec, y, delta, q=q)
        assert oracle_residual(sigma, spec, result.alpha, coef, 0.0) <= delta * (1 + 1e-12)
        if result.k > 0:
            assert oracle_residual(sigma, spec, result.alpha / q, coef, 0.0) > delta
        checked += 1
    elapsed = time.perf_counter() - start
    passed = checked >= 990 and elapsed < 30.0
    _report(3, passed,
            f"{checked}/1000 fuzzed stop certificates verified against an "
            f"independent residual oracle in {elapsed:.2f}s")
    assert checked >= 990
    assert elapsed < 30.0


def test_acceptance_4_counterexample():
    start = time.perf_counter()
    forced = run_study(StudyConfig.from_dict(
        default_counterexample_config(n_max=6, forced=True)))
    collapse_ok = True
    for n in range(2, 7):
        rec = forced.records[("dp", n)][0]
        collapse_ok &= rec.alpha < 100.0**-n and not rec.emergency
    rescued = run_study(StudyConfig.from_dict(
        default_counterexample_config(n_max=6, forced=True, emergency=True)))
    rescue_ok = True
    for n in range(2, 7):
        rec = rescued.records[("dp+es", n)][0]
        rescue_ok &= rec.emergency and 0.5 / n < rec.alpha <= 1.0 / n
    elapsed = time.perf_counter() - start
    passed = collapse_ok and rescue_ok and elapsed < 1.0
    _report(4, passed,
            f"forced-noise alpha < 100^-n for n=2..6 and emergency stop lands "
            f"in (q/n, 1/n] in {elapsed:.2f}s")
    assert collapse_ok
    assert rescue_ok
    assert elapsed < 1.0


def test_acceptance_5_convergence_rate(diagonal_study, rate_fit):
    result, elapsed = diagonal_study
    ns = result.sample_sizes
    medians = [result.summaries[("dp", n)].median for n in ns]
    fit = rate_fit(ns, medians)
    slope = fit["slope"]
    passed = -0.40 <= slope <= -0.10 and elapsed < 600.0
    _report(5, passed,
            f"discrepancy-principle error decays with log-log slope "
            f"{slope:.3f} (target -0.25 +/- 0.15) in {elapsed:.1f}s")
    assert -0.40 <= slope <= -0.10
    assert elapsed < 600.0


def test_acceptance_6_emergency_stop_study():
    start = time.perf_counter()
    raw = default_heat_config()
    raw["sample_sizes"] = [1000]
    raw["rules"] = [{"name": "dp", "q": 0.7}, {"name": "dp+es", "q": 0.7}]
    result = run_study(StudyConfig.from_dict(raw))
    n = 1000

    def fence_outliers(rule):
        errors = np.array(result.errors(rule, n))
        q1, q3 = np.quantile(errors, [0.25, 0.75])
        mask = errors > q3 + 1.5 * (q3 - q1)
        return errors, mask

    errors_dp, out_dp = fence_outliers("dp")
    errors_es, out_es = fence_outliers("dp+es")
    ratio = errors_dp.mean() / errors_es.mean()
    total_outliers = int(out_dp.sum() + out_es.sum())
    dp_fraction = out_dp.sum() / total_outliers if total_outliers else 0.0

    recs = result.records[("dp", n)]
    misest = np.array([rec.delta_true / rec.delta_est for rec in recs])
    sep = misest[out_dp].mean() > misest[~out_dp].mean() if out_dp.any() else False

    elapsed = time.perf_counter() - start
    passed = ratio > 10.0 and dp_fraction >= 0.9 and sep and elapsed < 300.0
    _report(6, passed,
            f"mean error without/with emergency stop = {ratio:.1f}x (>10), "
            f"{dp_fraction:.0%} of outliers in the unguarded arm, outlier "
            f"replications underestimate the noise, in {elapsed:.1f}s")
    assert ratio > 10.0
    assert dp_fraction >= 0.9
    assert sep
    assert elapsed < 300.0


def test_acceptance_7_apriori_monotonicity(diagonal_study):
    result, elapsed = diagonal_study
    ns = [100, 1000, 10000]
    mses = [float(np.mean(np.square(result.errors("apriori", n)))) for n in ns]
    inversions = [(a, b) for a, b in zip(mses, mses[1:]) if b > a]
    passed = (len(inversions) == 0
              or (len(inversions) == 1
                  and inversions[0][1] <= 1.05 * inversions[0][0]))
    _report(7, passed,
            f"a priori mean squared errors over n=1e2..1e4: "
            f"{', '.join(f'{m:.3g}' for m in mses)} "
            f"({len(inversions)} inversions) in {elapsed:.1f}s")
    assert passed
    assert elapsed < 120.0


def test_acceptance_8_binary_option():
    start = time.perf_counter()
    result = run_study(StudyConfig.from_dict(default_binopt_config()))
    med_small = result.summaries[("dp", 1000)].median
    med_large = result.summaries[("dp", 10000)].median
    factor = med_small / med_large

    params = BinaryOptionParams.default(512)
    batch = draw_batch(params, np.zeros(512), 10000, seed=424242)
    scale = params.discounted_payoff * math.sqrt(params.grid_weight)
    p_hat = batch.mean / scale
    vol_sqrt_t = params.volatility * math.sqrt(params.expiry)
    d = (np.log(params.s0_grid / params.strike)
         + params.expiry * params.latent_mean()) / vol_sqrt_t
    p_true = ndtr(d)
    se = np.sqrt(p_true * (1.0 - p_true) / 10000)
    coverage = float(np.mean(np.abs(p_hat - p_true) <= 3.0 * se + 1e-15))

    elapsed = time.perf_counter() - start
    passed = factor >= 1.3 and coverage >= 0.95 and elapsed < 300.0
    _report(8, passed,
            f"median derivative error shrinks {factor:.2f}x from n=1e3 to "
            f"n=1e4 (>=1.3) and the simulated exercise probabilities cover "
            f"the analytic curve at {coverage:.0%} of grid points in {elapsed:.1f}s")
    assert factor >= 1.3
    assert coverage >= 0.95
    assert elapsed < 300.0


def test_acceptance_9_determinism(tmp_path):
    start = time.perf_counter()
    raw = {
        "version": 1,
        "scenario": {"name": "heat_like", "m": 30},
        "filter": {"kind": "tikhonov"},
        "rules": [{"name": "dp", "q": 0.7}, {"name": "dp+es", "q": 0.7}],
        "delta_rule": {"name": "sample_std"},
        "sample_sizes": [100, 400],
        "replications": 10,
        "base_seed": 314,
    }
    config = StudyConfig.from_dict(raw)
    first = tmp_path / "a"
    second = tmp_path / "b"
    paths = write_study_csvs(run_study(config), str(first))
    write_study_csvs(run_study(config), str(second))
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in [p.split("/")[-1] for p in paths]
    )
    elapsed = time.perf_counter() - start
    passed = identical and elapsed < 60.0
    _report(9, passed,
            f"repeated runs produce byte-identical CSV output "
            f"({len(paths)} files) in {elapsed:.2f}s")
    assert identical
    assert elapsed < 60.0
