import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from avereg import measurements
from avereg.errors import BatchOverflowError, DegenerateBatchError, InputError
from avereg.measurements import (
    BinaryOptionParams,
    CoefficientGaussian,
    DirectionGaussian,
    HeavyTailed,
    MeasurementBatch,
    delta_est,
    delta_true,
    draw_batch,
    heavy_tail_weights,
    load_batch_csv,
)
from avereg.rng import RandomStream, pareto_from_uniforms
from avereg.spectral import counterexample_direction


def _zero(m):
    return np.zeros(m)


def _heavy_tailed(m):
    """The heat study's heavy-tailed noise: shape 1/3, scale 1/2, location 3/2."""
    return HeavyTailed(1.0 / 3.0, 0.5, 1.5, heavy_tail_weights(m, 5))


# ---------------------------------------------------------------------------
# batch generation


def test_direction_gaussian_mean_is_linear_in_latents():
    direction = counterexample_direction(6)
    batch = draw_batch(DirectionGaussian(direction), _zero(6), n=10, seed=321)
    z = RandomStream(321).normals(10)
    assert np.allclose(batch.mean, z.mean() * direction)


def test_bernoulli_with_tiny_strike_pays_everywhere():
    # the fixed strike 0.5 against prices in [5e10, 5e11], as a strike of 1e-12 on [0.1, 1]
    params = BinaryOptionParams(1e12 * np.linspace(0.05, 0.5, 16))
    batch = draw_batch(params, _zero(16), n=5, seed=1)
    scale = params.discounted_payoff * math.sqrt(params.grid_weight)
    z = params.latent_mean + params.latent_std * RandomStream(1).normals(5)
    samples = scale * (z[:, None] >= np.log(params.strike / params.s0_grid) / params.expiry)
    assert np.allclose(samples, scale)
    assert np.allclose(batch.mean, scale)
    assert batch.samples is None
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
    y_hat = np.array([1.0, -2.0, 0.5])
    batch = draw_batch(model, y_hat, n=40, seed=5)
    samples = batch.samples
    assert np.allclose(samples.mean(axis=0), batch.mean, rtol=1e-12)
    spread = math.sqrt(np.sum((samples - samples.mean(axis=0)) ** 2) / 39)
    assert batch.sample_std == pytest.approx(spread, rel=1e-12)


def test_coefficient_gaussian_batch_is_bitwise_the_out_of_place_formula():
    # n * m odd, so the Box-Muller draw drops its last sine
    y_hat = np.array([1.0, -2.0, 0.5])
    batch = draw_batch(CoefficientGaussian(0.7), y_hat, n=41, seed=5, stream=2)
    noise = 0.7 * RandomStream(5, 2).normals(41 * 3).reshape(41, 3)
    samples = y_hat + noise
    assert np.array_equal(batch.samples, samples)
    mean = samples.mean(axis=0)
    assert np.array_equal(batch.mean, mean)
    assert batch.sample_std == math.sqrt(np.sum((samples - mean) ** 2) / 40)


def test_coefficient_gaussian_batch_of_many_leaves_is_the_out_of_place_formula():
    # 5000 * 30 values: s_n is summed in four leaves
    y_hat = np.linspace(-1.0, 1.0, 30)
    batch = draw_batch(CoefficientGaussian(2.0), y_hat, n=5000, seed=3, stream=1)
    samples = y_hat + 2.0 * RandomStream(3, 1).normals(5000 * 30).reshape(5000, 30)
    assert np.array_equal(batch.samples, samples)
    mean = samples.mean(axis=0)
    assert batch.sample_std == math.sqrt(np.sum((samples - mean) ** 2) / 4999)


def test_a_dropped_full_sample_batch_is_freed_without_the_cycle_collector():
    # a study draws one n x m batch per cell: a reference cycle through the
    # sample matrix would keep every batch alive until a collection runs
    gc.disable()
    tracemalloc.start()
    try:
        batch = draw_batch(CoefficientGaussian(1.0), _zero(30), n=5000, seed=3)
        del batch
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 8 * 5000 * 30 // 10


# (n, m) shapes whose n * m lies around 8, 128 and the leaf size: at the
# leaf size 128 of numpy's unrolled block, and at the real one.  With m > 1
# most leaves start mid-row; n = 2 and m = 1 are the edge shapes.
_LEAF_SHAPES = {
    128: [(1, 7), (2, 4), (3, 3), (2, 64), (129, 1), (17, 8), (2, 129), (37, 7),
          (3, 100), (1000, 1), (64, 33)],
    measurements._LEAF: [(2**16 - 1, 1), (2**16, 1), (2**16 + 1, 1), (2, 2**15 + 1),
                         (9363, 7), (2**17 + 8, 1), (3001, 100), (12345, 37)],
}


@pytest.mark.parametrize("leaf, shape", [(leaf, shape) for leaf, shapes in
                                         _LEAF_SHAPES.items() for shape in shapes])
def test_squared_deviation_leaf_sum_is_bitwise_np_sum(monkeypatch, leaf, shape):
    monkeypatch.setattr(measurements, "_LEAF", leaf)
    samples = 3.0 * np.random.default_rng(sum(shape)).standard_normal(shape) - 1.0
    mean = samples.mean(axis=0)
    expected = np.sum(np.square(samples - mean))
    assert measurements._squared_deviation_sum(samples, mean) == expected


@pytest.mark.parametrize("model, m", [
    (DirectionGaussian(counterexample_direction(50)), 50),
    (DirectionGaussian(counterexample_direction(50), forced=1.0), 50),
    (_heavy_tailed(100), 100),
    (CoefficientGaussian(1.0), 20),
    (BinaryOptionParams.default(64), 64),
])
def test_batch_bytes_is_within_a_factor_of_two_of_the_traced_peak(model, m):
    n = 100_000
    tracemalloc.start()
    try:
        draw_batch(model, _zero(m), n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 <= measurements.batch_bytes(model, n, m) <= 2 * peak


def test_heavy_tailed_batch_holds_one_array_of_latents():
    # the Pareto factors are drawn a block at a time into the n uniforms,
    # which turn into the latents and their squared deviations in place, so
    # the blocks of the draw are all it holds beside them
    n = 100_000
    tracemalloc.start()
    try:
        draw_batch(_heavy_tailed(100), _zero(100), n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n


def test_bernoulli_batch_holds_one_array_of_latents():
    # the normals are scaled, shifted and sorted in place
    n = 100_000
    tracemalloc.start()
    try:
        draw_batch(BinaryOptionParams.default(64), _zero(64), n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n


def test_heavy_tailed_draw_requests_2n_uniforms_and_keeps_their_bits(monkeypatch):
    # n spans two whole blocks of Pareto factors and part of a third
    model, n = _heavy_tailed(7), 2 * 2**14 + 5
    requests, uniforms = [], RandomStream.uniforms

    def counted(self, size):
        requests.append(size)
        return uniforms(self, size)

    monkeypatch.setattr(RandomStream, "uniforms", counted)
    batch = draw_batch(model, _zero(7), n, seed=4, stream=2)
    assert sum(requests) == 2 * n
    # the latents of one draw of 2n uniforms: the first n times the Pareto
    # variates of the second n
    words = uniforms(RandomStream(4, 2), 2 * n)
    z = (words[:n] - 0.5) * pareto_from_uniforms(words[n:], model.shape, model.scale,
                                                 model.location)
    z_bar = z.mean()
    assert np.array_equal(batch.mean, z_bar * model.weights)
    deviations = np.sum(np.square(z - z_bar))
    assert batch.sample_std == math.sqrt(deviations / (n - 1)) * np.linalg.norm(model.weights)


def test_rank_one_batches_match_materialised_samples():
    direction = counterexample_direction(5)
    batch = draw_batch(DirectionGaussian(direction), _zero(5), n=12, seed=9)
    samples = RandomStream(9).normals(12)[:, None] * direction
    assert batch.samples is None
    assert np.allclose(samples.mean(axis=0), batch.mean, rtol=1e-12)
    spread = math.sqrt(np.sum((samples - samples.mean(axis=0)) ** 2) / 11)
    assert batch.sample_std == pytest.approx(spread, rel=1e-12)


def test_determinism_bitwise():
    model = _heavy_tailed(8)
    y_hat = np.linspace(0, 1, 8)
    a = draw_batch(model, y_hat, n=20, seed=13, stream=2)
    b = draw_batch(model, y_hat, n=20, seed=13, stream=2)
    assert np.array_equal(a.mean, b.mean)
    assert a.sample_std == b.sample_std
    c = draw_batch(model, y_hat, n=20, seed=13, stream=3)
    assert not np.array_equal(a.mean, c.mean)


def test_forced_direction_gaussian_pins_every_latent():
    direction = counterexample_direction(6)
    batch = draw_batch(DirectionGaussian(direction, forced=1.0), _zero(6), n=4, seed=0)
    assert delta_true(batch, _zero(6)) == pytest.approx(np.linalg.norm(direction))
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
    batch = draw_batch(DirectionGaussian(direction, forced=0.0), _zero(4), n=4, seed=0)
    assert batch.sample_std == 0.0
    with pytest.raises(DegenerateBatchError):
        delta_est(batch, "sample_std")
    healthy = draw_batch(DirectionGaussian(direction), _zero(4), n=20, seed=0)
    for tau in (1.0, math.inf, math.nan):
        with pytest.raises(InputError):
            delta_est(healthy, "lil", tau=tau)
    small = draw_batch(DirectionGaussian(direction), _zero(4), n=8, seed=0)
    with pytest.raises(InputError):
        delta_est(small, "lil", tau=1.5)
    with pytest.raises(InputError):
        delta_est(healthy, "bogus")


def test_delta_true_examples():
    y_hat = np.array([1.0, 2.0])
    batch = draw_batch(CoefficientGaussian(1.0), y_hat, n=10, seed=3)
    direct = np.linalg.norm(batch.mean - y_hat)
    assert delta_true(batch, y_hat) == pytest.approx(direct)
    with pytest.raises(InputError):
        delta_true(batch, np.array([1.0]))


# ---------------------------------------------------------------------------
# statistical invariants


def test_unbiasedness_over_replications():
    m = 8
    y_hat = np.linspace(0.2, 1.0, m)
    option = BinaryOptionParams.default(m)
    truth_scale = option.discounted_payoff * math.sqrt(option.grid_weight)
    models = {
        "direction": (DirectionGaussian(counterexample_direction(m)), y_hat),
        "coefficient": (CoefficientGaussian(0.5), y_hat),
        "heavy": (_heavy_tailed(m), y_hat),
    }
    reps, n = 2000, 50
    for label, (model, target) in models.items():
        acc = np.zeros(m)
        sq = 0.0
        for rep in range(reps):
            batch = draw_batch(model, target, n, seed=42, stream=rep)
            acc += batch.mean - target
            sq += batch.sample_std**2
        bias = np.linalg.norm(acc / reps)
        s = math.sqrt(sq / reps)
        assert bias <= 4.0 * s / math.sqrt(reps * n), label


def test_bernoulli_unbiasedness():
    from avereg.study import binary_option_truth

    option = BinaryOptionParams.default(32)
    truth = binary_option_truth(option)
    target = math.sqrt(option.grid_weight) * truth["value_curve"]
    reps, n = 2000, 50
    acc = np.zeros(32)
    sq = 0.0
    for rep in range(reps):
        batch = draw_batch(option, target, n, seed=17, stream=rep)
        acc += batch.mean - target
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
    model = _heavy_tailed(100)
    y_hat = _zero(100)
    values = [draw_batch(model, y_hat, 10**5, seed=100 + rep).sample_std
              for rep in range(5)]
    assert abs(np.mean(values) - 1.16) <= 0.1 * 1.16


# ---------------------------------------------------------------------------
# IO


def test_batch_csv_round_trip(tmp_path):
    batch = draw_batch(CoefficientGaussian(1.0), _zero(3), n=6, seed=44)
    path = str(tmp_path / "batch.csv")
    np.savetxt(path, batch.samples, delimiter=",")
    loaded = load_batch_csv(path)
    assert loaded.n == 6
    assert np.allclose(loaded.samples, batch.samples)
    assert np.allclose(loaded.mean, batch.mean)
    assert loaded.sample_std == pytest.approx(batch.sample_std)


def test_batch_csv_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,x\n2.0,3.0\n")
    with pytest.raises(InputError):
        load_batch_csv(str(bad))


@pytest.mark.parametrize("rows", [
    # squared deviations beyond the float range
    [[1e200, 2e200], [3e200, 1e200], [2e200, 2e200]],
    # a column whose pairwise sum meets +inf and -inf, which is nan
    [[1e308]] * 1024 + [[-1e308]] * 1024,
], ids=["spread", "opposite-sums"])
def test_batch_csv_mean_or_spread_beyond_the_float_range_is_an_input_error(tmp_path, rows):
    path = tmp_path / "big.csv"
    np.savetxt(path, np.array(rows), delimiter=",", fmt="%.17g")
    with pytest.raises(InputError, match="mean or spread overflows double precision"):
        load_batch_csv(str(path))


def test_a_pareto_uniform_of_one_is_an_overflowing_batch_without_a_warning():
    # word 2 of this seed has its top 53 bits set, so the first of the two
    # Pareto uniforms of n = 2 is 1.0 and its latent is inf; log1p(-1) used to
    # warn, which the suite and perfbench's smoke runs turn into an error
    assert RandomStream(4512904957461064033).uniforms(4)[2] == 1.0
    with pytest.raises(BatchOverflowError):
        draw_batch(HeavyTailed(1.0 / 3.0, 0.5, 1.5, np.ones(3)), _zero(3), 2,
                   4512904957461064033)


def test_binary_option_params_validation():
    with pytest.raises(InputError):
        BinaryOptionParams([1.0, 0.5])
    with pytest.raises(InputError):
        BinaryOptionParams.default(1)


@pytest.mark.parametrize("build, message", [
    (lambda: DirectionGaussian(np.array([1.0, math.nan])), "direction must be a 1-D array"),
    (lambda: DirectionGaussian(np.array([1.0, math.inf])), "direction must be a 1-D array"),
    (lambda: DirectionGaussian(np.ones((2, 2))), "direction must be a 1-D array"),
    (lambda: DirectionGaussian(np.ones(2), math.nan), "forced must be finite, not nan"),
    (lambda: DirectionGaussian(np.ones(2), -math.inf), "forced must be finite, not -inf"),
    (lambda: CoefficientGaussian(math.inf), "scale must be positive and finite"),
    (lambda: HeavyTailed(1.0 / 3.0, math.inf, 1.5, np.ones(2)),
     "generalized Pareto scale must be positive and finite"),
    (lambda: HeavyTailed(1.0 / 3.0, 0.5, 1.5, np.ones((3, 3))),
     "weights must be a 1-D array of finite values"),
    (lambda: BinaryOptionParams(np.array([[0.1, 0.2], [0.3, 0.4]])),
     "s0_grid must be a 1-D array of increasing positive prices"),
], ids=["nan direction", "inf direction", "2-D direction", "nan forced", "inf forced",
        "inf gaussian scale", "inf pareto scale", "2-D weights", "2-D price grid"])
def test_noise_model_with_a_non_finite_or_misshapen_parameter_is_an_input_error(build, message):
    # such a model used to build, and its draw then blamed an overflow, a
    # length or numpy broadcasting, or gave a batch with a 2-D mean
    with pytest.raises(InputError, match=message):
        build()


@pytest.mark.parametrize("call, message", [
    (lambda: heavy_tail_weights(0, 5), "m must be positive"),
    (lambda: HeavyTailed(1.0 / 3.0, 0.5, 1.5, np.array([1.0, math.nan])),
     "weights must be a 1-D array of finite values"),
    (lambda: MeasurementBatch(0, np.zeros(2), 0.0), "a batch needs n >= 1 samples"),
    (lambda: MeasurementBatch(2, np.zeros(2), -1.0), "sample_std must be nonnegative"),
    (lambda: draw_batch(object(), np.zeros(2), 10, 1), "unknown noise model object"),
    (lambda: draw_batch(DirectionGaussian(np.ones(3)), np.zeros(2), 10, 1),
     "direction length must match y_hat"),
], ids=["no weights", "nan weight", "empty batch", "negative spread", "unknown model",
        "direction length"])
def test_measurement_guards_raise_input_errors(call, message):
    with pytest.raises(InputError, match=message):
        call()
