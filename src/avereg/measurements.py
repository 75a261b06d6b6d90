"""Measurement batches, noise models and noise-level estimators.

The statistical model is n i.i.d. data-space measurements ``Y_i`` with
``E Y_i = y_hat``.  Batches cache the sample mean ``Y_bar`` and the sample
standard deviation ``s_n = sqrt(sum ||Y_i - Y_bar||^2 / (n-1))``, from which
the noise-level estimates ``1/sqrt(n)``, ``s_n/sqrt(n)`` and the
iterated-logarithm envelope ``tau s_n sqrt(2 log log n / n)`` are computed.

Each noise model is one class whose ``draw(y_hat, n, rng)`` forms its batch;
``draw_batch`` checks n and the model and hands it a ``RandomStream``.  Noise
with a common random direction (``DirectionGaussian``, ``HeavyTailed``) is
stored in factored form — per-sample scalar latents times a fixed vector — so
batches with n = 1e5 samples cost O(n + m) rather than O(n m); its draw holds
one array of latents and squares their deviations in it.  Heavy-tailed noise
multiplies its Pareto factors into that array a block at a time, and the
Bernoulli payoffs of ``BinaryOptionParams`` form and sort their latents in
theirs, so every batch but a coefficient-Gaussian one holds 8 n bytes.  A
forced direction-Gaussian noise sets every latent to one value.
``CoefficientGaussian`` noise is not rank-one: its draw builds the n x m
sample matrix in place in the array of drawn normals, the batch's only n x m
array, and ``s_n`` sums the squared deviations leaf by leaf in the tree of
numpy's pairwise summation, so it equals the sum over a full deviation matrix
bit for bit.  ``batch_bytes`` states what one batch of each model holds,
which bounds how many batches a study draws at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BatchOverflowError, DegenerateBatchError, InputError
from .rng import _BLOCK, RandomStream, pareto_from_uniforms
from .spectral import _load_csv

DELTA_RULES = ("inv_sqrt_n", "sample_std", "lil")

#: the iterated-logarithm estimate needs ln ln n well above zero
LIL_MIN_N = 16

#: largest leaf of the squared-deviation sum; numpy sums a leaf of more than
#: 128 elements by the same pairwise rule as the whole array
_LEAF = 1 << 16


@dataclass(frozen=True)
class BinaryOptionParams:
    """The cash-or-nothing option scenario, and its Bernoulli payoffs as a
    noise model: Y_i(s0) = e^{-rT} Q 1{s0 exp(T Z_i) >= strike}, curves in
    sqrt(h)-scaled grid coordinates, with Z_i normal with mean drift -
    volatility^2/2 and standard deviation volatility/sqrt(expiry).

    The option is fixed: ``r`` is the risk-free rate per day, ``expiry`` the
    maturity in days, ``strike`` the barrier, ``payoff`` the cash amount Q,
    and ``drift`` and ``volatility`` the parameters of the underlying.
    ``s0_grid`` holds the initial prices at which the value curve is sampled.
    """

    r = 1e-4
    expiry = 30.0
    strike = 0.5
    payoff = 1.0
    drift = 0.01
    volatility = 0.1
    discounted_payoff = payoff * math.exp(-r * expiry)
    latent_mean = drift - 0.5 * volatility**2
    latent_std = volatility / math.sqrt(expiry)

    s0_grid: np.ndarray

    def __post_init__(self):
        grid = np.atleast_1d(np.asarray(self.s0_grid, dtype=float))
        if grid.ndim != 1 or grid.size < 2 or not (np.all(grid > 0) and np.all(np.diff(grid) > 0)):
            raise InputError("s0_grid must be a 1-D array of increasing positive prices")
        object.__setattr__(self, "s0_grid", grid)

    @classmethod
    def default(cls, grid_size: int) -> "BinaryOptionParams":
        """The option on the uniform grid {1/m, ..., 1} of initial prices."""
        return cls(np.arange(1, grid_size + 1, dtype=float) / grid_size)

    @property
    def grid_weight(self) -> float:
        """Quadrature weight h of the uniform grid (curves are stored as
        sqrt(h)-scaled coordinates so Euclidean norms approximate L2 norms)."""
        return 1.0 / self.s0_grid.size

    def draw(self, y_hat, n, rng) -> MeasurementBatch:
        z = rng.normals(n)
        z *= self.latent_std
        z += self.latent_mean
        z.sort()
        # indicator threshold per grid point: Z_i >= ln(strike/s0)/T
        thresholds = np.log(self.strike / self.s0_grid) / self.expiry
        hit_counts = n - np.searchsorted(z, thresholds, side="left")
        p_hat = hit_counts / n
        scale = self.discounted_payoff * math.sqrt(self.grid_weight)
        # ||Y_i - Y_bar||^2 summed over i is n p(1-p) per grid point
        std = scale * math.sqrt(n * float(np.sum(p_hat * (1.0 - p_hat))) / (n - 1))
        return MeasurementBatch(n, scale * p_hat, std)


@dataclass(frozen=True)
class DirectionGaussian:
    """Y_i = y_hat + Z_i * direction with Z_i standard normal, or with every
    Z_i equal to ``forced`` when it is set (a deterministic noise)."""

    direction: np.ndarray
    forced: float | None = None

    def __post_init__(self):
        direction = np.asarray(self.direction, dtype=float)
        if direction.ndim != 1 or not np.all(np.isfinite(direction)):
            raise InputError("direction must be a 1-D array of finite values")
        if self.forced is not None and not math.isfinite(self.forced):
            raise InputError(f"forced must be finite, not {self.forced!r}")
        object.__setattr__(self, "direction", direction)

    def draw(self, y_hat, n, rng) -> MeasurementBatch:
        z = rng.normals(n) if self.forced is None else np.full(n, self.forced)
        return _rank_one_batch(y_hat, self.direction, z, n)


@dataclass(frozen=True)
class CoefficientGaussian:
    """Independent N(0, scale^2) noise on every coefficient."""

    scale: float

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise InputError("scale must be positive and finite")

    def draw(self, y_hat, n, rng) -> MeasurementBatch:
        m = len(y_hat)
        samples = rng.normals(n * m).reshape(n, m)
        samples *= self.scale
        samples += y_hat
        return _finalize_full(samples)


def heavy_tail_weights(m: int, seed: int) -> np.ndarray:
    """Seeded uniformly-random permutation of (1, 1/2^{3/4}, ..., 1/m^{3/4})."""
    if m < 1:
        raise InputError("m must be positive")
    base = np.arange(1, m + 1, dtype=float) ** -0.75
    return base[RandomStream(seed).permutation(m)]


@dataclass(frozen=True)
class HeavyTailed:
    """Y_i = y_hat + U_i * Z_i * weights with U_i uniform on (-1/2, 1/2) and
    Z_i generalized Pareto; the mean-zero uniform factor keeps samples unbiased."""

    shape: float
    scale: float
    location: float
    weights: np.ndarray

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise InputError("generalized Pareto scale must be positive and finite")
        for name, value in (("shape", self.shape), ("location", self.location)):
            if not math.isfinite(value):
                raise InputError(f"generalized Pareto {name} must be finite, not {value!r}")
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise InputError("weights must be a 1-D array of finite values")
        object.__setattr__(self, "weights", w)

    def draw(self, y_hat, n, rng) -> MeasurementBatch:
        # the words of symmetric_uniforms(n), then generalized_pareto(n) a
        # block at a time, each multiplied into its slice of the n latents
        u = rng.uniforms(n)
        u -= 0.5
        for lo in range(0, n, _BLOCK):
            u[lo:lo + _BLOCK] *= pareto_from_uniforms(
                rng.uniforms(min(_BLOCK, n - lo)), self.shape, self.scale, self.location)
        return _rank_one_batch(y_hat, self.weights, u, n)


NoiseModel = DirectionGaussian | CoefficientGaussian | HeavyTailed | BinaryOptionParams


class MeasurementBatch:
    """n i.i.d. measurements with cached mean and sample standard deviation.

    ``mean`` is the array Y_bar in the data coordinates of the measurements.
    ``samples`` is the full (n, dimension) array of a batch drawn or read
    sample by sample, and None for a factored batch.  A single measurement
    has no sample spread; its ``sample_std`` is 0.  A mean or spread beyond
    the float range, as every noise model can draw, is a BatchOverflowError.
    """

    def __init__(
        self,
        n: int,
        mean: np.ndarray,
        sample_std: float,
        samples: np.ndarray | None = None,
    ):
        if n < 1:
            raise InputError("a batch needs n >= 1 samples")
        if not (np.all(np.isfinite(mean)) and math.isfinite(sample_std)):
            raise BatchOverflowError("the measurements' mean or spread overflows double precision")
        if sample_std < 0:
            raise InputError("sample_std must be nonnegative")
        self.n = int(n)
        self.mean = mean
        self.sample_std = float(sample_std)
        self._samples = samples

    @property
    def dimension(self) -> int:
        return len(self.mean)

    @property
    def samples(self) -> np.ndarray | None:
        return self._samples


def _pairwise_sum(leaf_sum, lo: int, size: int) -> float:
    """``leaf_sum(start, length)`` of each leaf of numpy's pairwise summation
    tree over [lo, lo + size), cut at ``_LEAF`` elements, added up that tree."""
    if size <= _LEAF:
        return leaf_sum(lo, size)
    left = size // 2 - size // 2 % 8  # numpy's left half: rounded down to a multiple of 8
    return _pairwise_sum(leaf_sum, lo, left) + _pairwise_sum(leaf_sum, lo + left, size - left)


def _squared_deviation_sum(samples: np.ndarray, mean: np.ndarray) -> float:
    """``np.sum(np.square(samples - mean))`` bit for bit, with no n x m
    temporary: each leaf of the pairwise tree is formed, squared and summed in
    one reused buffer, and the leaf sums are added in tree order."""
    flat = samples.reshape(-1)
    m = mean.size
    longest = min(flat.size, _LEAF)
    # row-major element lo + j has mean[(lo + j) % m]
    tiled = np.tile(mean, -(-(longest + m - 1) // m))
    buffer = np.empty(longest)

    def leaf_sum(lo: int, size: int) -> float:
        dev = buffer[:size]
        np.subtract(flat[lo:lo + size], tiled[lo % m:lo % m + size], out=dev)
        return float(np.sum(np.square(dev, out=dev)))

    return _pairwise_sum(leaf_sum, 0, flat.size)


def _finalize_full(samples, source: str = "") -> MeasurementBatch:
    """Batch of a C-ordered (n, dim) sample matrix, which it keeps; ``source``
    begins the message of an error, which keeps its type."""
    n = samples.shape[0]
    # finite samples can still sum, or square their deviations, beyond the
    # float range; opposite overflows in a sum make nan
    with np.errstate(over="ignore", invalid="ignore"):
        mean = samples.mean(axis=0)
        sq = _squared_deviation_sum(samples, mean)
    try:
        return MeasurementBatch(n, mean, math.sqrt(sq / (n - 1)) if n > 1 else 0.0, samples)
    except InputError as exc:
        raise type(exc)(f"{source}{exc}") from None


def batch_bytes(model: NoiseModel, n: int, m: int) -> int:
    """Bytes a ``draw_batch`` of n measurements of dimension m holds at its
    peak, to within a factor of 2: the n x m sample matrix of coefficient-Gaussian
    noise, and the one array of n latents in which every other model draws."""
    return 8 * n * (m if isinstance(model, CoefficientGaussian) else 1)


# a large latent can sum, or square its deviation, beyond the float range, and
# a uniform of 1.0 is an infinite Pareto latent: each shows as the mean or
# spread that MeasurementBatch rejects
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def draw_batch(
    model: NoiseModel, y_hat: np.ndarray, n: int, seed: int, stream: int = 0
) -> MeasurementBatch:
    """n i.i.d. measurements, which the model's ``draw`` forms from stream ``stream``
    of ``seed``: deterministic, and a forced ``DirectionGaussian`` reads no words."""
    if n < 2:
        raise InputError("need n >= 2 measurements")
    rng = RandomStream(seed, stream)
    if not isinstance(model, NoiseModel):
        raise InputError(f"unknown noise model {type(model).__name__}")
    return model.draw(y_hat, n, rng)


def _rank_one_batch(y_hat, direction, z, n) -> MeasurementBatch:
    """Batch of the latents ``z`` times ``direction``; ``z`` ends as its squared deviations."""
    if direction.shape[0] != len(y_hat):
        raise InputError("direction length must match y_hat")
    z_bar = float(z.mean())
    dir_norm = float(np.linalg.norm(direction))
    z -= z_bar
    std = float(np.sqrt(np.sum(np.square(z, out=z)) / (n - 1))) * dir_norm
    return MeasurementBatch(n, y_hat + z_bar * direction, std)


def delta_est(batch: MeasurementBatch, rule: str, tau: float | None = None) -> float:
    """Noise-level estimate for the averaged data Y_bar_n.

    ``inv_sqrt_n`` -> 1/sqrt(n); ``sample_std`` -> s_n/sqrt(n);
    ``lil`` -> tau s_n sqrt(2 ln ln n / n) with tau > 1 and n >= 16.
    The sample-based estimates are degenerate for a single measurement and
    for coinciding measurements.
    """
    if rule not in DELTA_RULES:
        raise InputError(f"unknown delta rule {rule!r}")
    n = batch.n
    if rule == "inv_sqrt_n":
        return 1.0 / math.sqrt(n)
    if n < 2:
        raise DegenerateBatchError("sample-based noise estimates need n >= 2 measurements")
    if batch.sample_std == 0.0:
        raise DegenerateBatchError(
            "all measurements coincide; sample-based noise estimate undefined"
        )
    if rule == "sample_std":
        return batch.sample_std / math.sqrt(n)
    if tau is None or not (1 < tau < math.inf):
        raise InputError("lil rule requires a finite tau > 1")
    if n < LIL_MIN_N:
        raise InputError(f"lil rule requires n >= {LIL_MIN_N}")
    return tau * batch.sample_std * math.sqrt(2.0 * math.log(math.log(n)) / n)


def delta_true(batch: MeasurementBatch, y_hat: np.ndarray) -> float:
    """Actual averaging error ||Y_bar_n - y_hat||."""
    if len(y_hat) != batch.dimension:
        raise InputError("y_hat dimension does not match the batch")
    return float(np.linalg.norm(batch.mean - y_hat))


def load_batch_csv(path: str) -> MeasurementBatch:
    """Read a batch from headerless CSV, one measurement per row; every
    failure is an InputError naming the file."""
    return _finalize_full(_load_csv(path, "measurements"), f"measurements CSV {path}: ")
