import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from avereg.errors import DegenerateBatchError, InputError
from avereg.measurements import (
    BernoulliPayoff,
    BinaryOptionParams,
    CoefficientGaussian,
    DirectionGaussian,
    HeavyTailed,
    delta_est,
    delta_true,
    draw_batch,
    heavy_tail_weights,
    load_batch_csv,
    save_batch_csv,
)
from avereg.rng import RandomStream
from avereg.spectral import CoefficientVector, counterexample_direction


def _zero(m):
    return CoefficientVector(np.zeros(m))


# ---------------------------------------------------------------------------
# batch generation


def test_direction_gaussian_mean_is_linear_in_latents():
    direction = counterexample_direction(6)
    batch = draw_batch(DirectionGaussian(direction), _zero(6), n=10, seed=321)
    z = RandomStream(321).normals(10)
    assert np.allclose(batch.mean.coefficients, z.mean() * direction.coefficients)


def test_bernoulli_with_tiny_strike_pays_everywhere():
    params = BinaryOptionParams(r=1e-4, expiry=30.0, strike=1e-12, payoff=1.0,
                                drift=0.01, volatility=0.1,
                                s0_grid=np.linspace(0.1, 1.0, 16))
    batch = draw_batch(BernoulliPayoff(params), _zero(16), n=5, seed=1)
    expected = params.discounted_payoff * math.sqrt(params.grid_weight)
    assert np.allclose(batch.samples, expected)
    assert batch.sample_std == 0.0


def test_heavy_tail_weight_norm_m4():
    weights = heavy_tail_weights(4, seed=0)
    expected = 1.0 + 2.0**-1.5 + 3.0**-1.5 + 4.0**-1.5
    assert float(np.sum(weights**2)) == pytest.approx(expected)
    assert expected == pytest.approx(1.671, abs=1e-3)


def test_draw_batch_requires_two_samples():
    with pytest.raises(InputError):
        draw_batch(CoefficientGaussian(1.0), _zero(3), n=1, seed=0)


def test_batch_mean_and_std_match_samples():
    model = CoefficientGaussian(0.7)
    y_hat = CoefficientVector([1.0, -2.0, 0.5])
    batch = draw_batch(model, y_hat, n=40, seed=5)
    samples = batch.samples
    assert np.allclose(samples.mean(axis=0), batch.mean.coefficients, rtol=1e-12)
    spread = math.sqrt(np.sum((samples - samples.mean(axis=0)) ** 2) / 39)
    assert batch.sample_std == pytest.approx(spread, rel=1e-12)


def test_coefficient_gaussian_batch_is_bitwise_the_out_of_place_formula():
    # n * m odd, so the Box-Muller draw drops its last sine
    y_hat = CoefficientVector([1.0, -2.0, 0.5])
    batch = draw_batch(CoefficientGaussian(0.7), y_hat, n=41, seed=5, stream=2)
    noise = 0.7 * RandomStream(5, 2).normals(41 * 3).reshape(41, 3)
    samples = y_hat.coefficients + noise
    assert np.array_equal(batch.samples, samples)
    mean = samples.mean(axis=0)
    assert np.array_equal(batch.mean.coefficients, mean)
    assert batch.sample_std == math.sqrt(np.sum((samples - mean) ** 2) / 40)


def test_rank_one_batches_match_materialised_samples():
    direction = counterexample_direction(5)
    batch = draw_batch(DirectionGaussian(direction), _zero(5), n=12, seed=9)
    samples = batch.samples
    assert np.allclose(samples.mean(axis=0), batch.mean.coefficients, rtol=1e-12)
    spread = math.sqrt(np.sum((samples - samples.mean(axis=0)) ** 2) / 11)
    assert batch.sample_std == pytest.approx(spread, rel=1e-12)


def test_determinism_bitwise():
    model = HeavyTailed.default(8)
    y_hat = CoefficientVector(np.linspace(0, 1, 8))
    a = draw_batch(model, y_hat, n=20, seed=13, stream=2)
    b = draw_batch(model, y_hat, n=20, seed=13, stream=2)
    assert np.array_equal(a.samples, b.samples)
    assert a.sample_std == b.sample_std
    c = draw_batch(model, y_hat, n=20, seed=13, stream=3)
    assert not np.array_equal(a.samples, c.samples)


def test_forced_latents_hook():
    direction = counterexample_direction(6)
    batch = draw_batch(DirectionGaussian(direction), _zero(6), n=4, seed=0,
                       forced_latents=np.ones(4))
    assert delta_true(batch, _zero(6)) == pytest.approx(direction.norm())
    assert batch.sample_std == 0.0


# ---------------------------------------------------------------------------
# estimators


def test_delta_est_inv_sqrt_n():
    batch = draw_batch(CoefficientGaussian(1.0), _zero(2), n=100, seed=0)
    assert delta_est(batch, "inv_sqrt_n") == pytest.approx(0.1)


def test_delta_est_sample_std_scalar_example():
    # scalar samples [1,2,3,4]: s = sqrt(5/3), delta = s/2
    class _Stub:
        n = 4
        sample_std = math.sqrt(5.0 / 3.0)

    assert delta_est(_Stub(), "sample_std") == pytest.approx(0.6455, abs=1e-4)


def test_delta_est_lil_closed_form():
    class _Stub:
        n = 100
        sample_std = 2.0

    value = delta_est(_Stub(), "lil", tau=1.5)
    assert value == pytest.approx(3.0 * math.sqrt(2.0 * math.log(math.log(100)) / 100))
    assert value == pytest.approx(0.5243, abs=1e-4)


def test_delta_est_degenerate_and_invalid():
    direction = counterexample_direction(4)
    batch = draw_batch(DirectionGaussian(direction), _zero(4), n=4, seed=0,
                       forced_latents=np.zeros(4))
    assert batch.sample_std == 0.0
    with pytest.raises(DegenerateBatchError):
        delta_est(batch, "sample_std")
    healthy = draw_batch(DirectionGaussian(direction), _zero(4), n=20, seed=0)
    with pytest.raises(InputError):
        delta_est(healthy, "lil", tau=1.0)
    small = draw_batch(DirectionGaussian(direction), _zero(4), n=8, seed=0)
    with pytest.raises(InputError):
        delta_est(small, "lil", tau=1.5)
    with pytest.raises(InputError):
        delta_est(healthy, "bogus")


def test_delta_true_examples():
    y_hat = CoefficientVector([1.0, 2.0])
    batch = draw_batch(CoefficientGaussian(1.0), y_hat, n=10, seed=3)
    direct = np.linalg.norm(batch.mean.coefficients - y_hat.coefficients)
    assert delta_true(batch, y_hat) == pytest.approx(direct)
    with pytest.raises(InputError):
        delta_true(batch, CoefficientVector([1.0]))


# ---------------------------------------------------------------------------
# statistical invariants


def test_unbiasedness_over_replications():
    m = 8
    y_hat = CoefficientVector(np.linspace(0.2, 1.0, m))
    option = BinaryOptionParams.default(m)
    truth_scale = option.discounted_payoff * math.sqrt(option.grid_weight)
    models = {
        "direction": (DirectionGaussian(counterexample_direction(m)), y_hat),
        "coefficient": (CoefficientGaussian(0.5), y_hat),
        "heavy": (HeavyTailed.default(m), y_hat),
    }
    reps, n = 2000, 50
    for label, (model, target) in models.items():
        acc = np.zeros(m)
        sq = 0.0
        for rep in range(reps):
            batch = draw_batch(model, target, n, seed=42, stream=rep)
            acc += batch.mean.coefficients - target.coefficients
            sq += batch.sample_std**2
        bias = np.linalg.norm(acc / reps)
        s = math.sqrt(sq / reps)
        assert bias <= 4.0 * s / math.sqrt(reps * n), label


def test_bernoulli_unbiasedness():
    from avereg.study import binary_option_truth

    option = BinaryOptionParams.default(32)
    truth = binary_option_truth(option)
    target = CoefficientVector(math.sqrt(option.grid_weight) * truth["value_curve"])
    reps, n = 2000, 50
    acc = np.zeros(32)
    sq = 0.0
    for rep in range(reps):
        batch = draw_batch(BernoulliPayoff(option), target, n, seed=17, stream=rep)
        acc += batch.mean.coefficients - target.coefficients
        sq += batch.sample_std**2
    bias = np.linalg.norm(acc / reps)
    s = math.sqrt(sq / reps)
    assert bias <= 4.0 * s / math.sqrt(reps * n)


def test_sqrt_n_delta_true_distribution_is_n_independent():
    direction = counterexample_direction(10)
    model = DirectionGaussian(direction)
    samples = {}
    for n in (100, 10000):
        values = []
        for rep in range(500):
            batch = draw_batch(model, _zero(10), n, seed=7, stream=(n << 20) | rep)
            values.append(math.sqrt(n) * delta_true(batch, _zero(10)))
        samples[n] = np.array(values)
    stat = ks_2samp(samples[100], samples[10000]).statistic
    # 1% critical value for two samples of 500: 1.628 sqrt(2/500)
    assert stat < 1.628 * math.sqrt(2.0 / 500.0)


def test_heavy_tailed_sample_std_consistency():
    # replication-averaged s_n approximates sqrt(E||Y - y_hat||^2) ~ 1.16
    model = HeavyTailed.default(100)
    y_hat = _zero(100)
    values = [draw_batch(model, y_hat, 10**5, seed=100 + rep).sample_std
              for rep in range(5)]
    assert abs(np.mean(values) - 1.16) <= 0.1 * 1.16


# ---------------------------------------------------------------------------
# IO


def test_batch_csv_round_trip(tmp_path):
    batch = draw_batch(CoefficientGaussian(1.0), _zero(3), n=6, seed=44)
    path = str(tmp_path / "batch.csv")
    save_batch_csv(batch, path)
    loaded = load_batch_csv(path)
    assert loaded.n == 6
    assert loaded.seed == 44
    assert loaded.model_tag == "coefficient_gaussian"
    assert np.allclose(loaded.samples, batch.samples)
    assert np.allclose(loaded.mean.coefficients, batch.mean.coefficients)
    assert loaded.sample_std == pytest.approx(batch.sample_std)


def test_batch_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,x\n2.0,3.0\n")
    with pytest.raises(InputError):
        load_batch_csv(str(bad))


def test_binary_option_params_validation():
    with pytest.raises(InputError):
        BinaryOptionParams(r=0.0, expiry=30.0, strike=0.5, payoff=1.0,
                           drift=0.0, volatility=0.0, s0_grid=[0.5, 1.0])
    with pytest.raises(InputError):
        BinaryOptionParams.default(1)
