"""Measurement batches, noise models and noise-level estimators.

The statistical model is n i.i.d. data-space measurements ``Y_i`` with
``E Y_i = y_hat``.  Batches cache the sample mean ``Y_bar`` and the sample
standard deviation ``s_n = sqrt(sum ||Y_i - Y_bar||^2 / (n-1))``, from which
the noise-level estimates ``1/sqrt(n)``, ``s_n/sqrt(n)`` and the
iterated-logarithm envelope ``tau s_n sqrt(2 log log n / n)`` are computed.

Noise with a common random direction (``direction_gaussian``, ``heavy_tailed``)
is stored in factored form — per-sample scalar latents times a fixed vector —
so batches with n = 1e5 samples cost O(n + m) rather than O(n m); full sample
matrices are materialised lazily only when requested.  Noise that is not
rank-one (``coefficient_gaussian``) needs the full n x m sample matrix; it is
built in place in the array of drawn normals, and the squared deviations
behind ``s_n`` are formed in place in one more n x m array.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatchError, InputError
from .rng import RandomStream
from .spectral import CoefficientVector

DELTA_RULES = ("inv_sqrt_n", "sample_std", "lil")


@dataclass(frozen=True)
class BinaryOptionParams:
    """Parameters of the cash-or-nothing option scenario.

    ``r`` is the risk-free rate per day, ``expiry`` the maturity in days,
    ``strike`` the barrier, ``payoff`` the cash amount, ``drift`` and
    ``volatility`` the parameters of the underlying, and ``s0_grid`` the
    initial prices at which the value curve is sampled.
    """

    r: float
    expiry: float
    strike: float
    payoff: float
    drift: float
    volatility: float
    s0_grid: np.ndarray

    def __post_init__(self):
        if self.volatility <= 0 or self.expiry <= 0 or self.strike <= 0:
            raise InputError("volatility, expiry and strike must be positive")
        grid = np.atleast_1d(np.asarray(self.s0_grid, dtype=float))
        if grid.size < 2 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise InputError("s0_grid must be increasing positive prices")
        object.__setattr__(self, "s0_grid", grid)

    @classmethod
    def default(cls, grid_size: int = 512) -> "BinaryOptionParams":
        """r=1e-4/day, 30-day expiry, strike 0.5, unit payoff, drift 0.01,
        volatility 0.1, on the uniform grid {1/m, ..., 1} of initial prices."""
        if grid_size < 2:
            raise InputError("grid_size must be at least 2")
        grid = np.arange(1, grid_size + 1, dtype=float) / grid_size
        return cls(r=1e-4, expiry=30.0, strike=0.5, payoff=1.0, drift=0.01,
                   volatility=0.1, s0_grid=grid)

    @property
    def discounted_payoff(self) -> float:
        return self.payoff * math.exp(-self.r * self.expiry)

    @property
    def grid_weight(self) -> float:
        """Quadrature weight h of the uniform grid (curves are stored as
        sqrt(h)-scaled coordinates so Euclidean norms approximate L2 norms)."""
        return 1.0 / self.s0_grid.size

    def latent_mean(self) -> float:
        return self.drift - 0.5 * self.volatility**2

    def latent_std(self) -> float:
        return self.volatility / math.sqrt(self.expiry)


@dataclass(frozen=True)
class DirectionGaussian:
    """Y_i = y_hat + Z_i * direction with Z_i standard normal."""

    direction: CoefficientVector
    tag: str = "direction_gaussian"

    def __post_init__(self):
        if self.direction.orthogonal_norm != 0:
            raise InputError("noise direction must lie in the spanned basis")


@dataclass(frozen=True)
class CoefficientGaussian:
    """Independent N(0, scale^2) noise on every coefficient."""

    scale: float
    tag: str = "coefficient_gaussian"

    def __post_init__(self):
        if self.scale <= 0:
            raise InputError("scale must be positive")


def heavy_tail_weights(m: int, seed: int = 0) -> np.ndarray:
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
    tag: str = "heavy_tailed"

    def __post_init__(self):
        if self.scale <= 0:
            raise InputError("generalized Pareto scale must be positive")
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if not np.all(np.isfinite(w)):
            raise InputError("weights must be finite")
        object.__setattr__(self, "weights", w)

    @classmethod
    def default(cls, m: int, weight_seed: int = 5) -> "HeavyTailed":
        """Shape 1/3, scale 1/2, location 3/2 with permuted power-law weights."""
        return cls(1.0 / 3.0, 0.5, 1.5, heavy_tail_weights(m, weight_seed))


@dataclass(frozen=True)
class BernoulliPayoff:
    """Y_i(s0) = e^{-rT} Q 1{s0 exp(T Z_i) >= strike}, curves in sqrt(h)-scaled
    grid coordinates; Z_i normal with mean drift - volatility^2/2 and standard
    deviation volatility/sqrt(expiry)."""

    params: BinaryOptionParams
    tag: str = "bernoulli_payoff"


NoiseModel = DirectionGaussian | CoefficientGaussian | HeavyTailed | BernoulliPayoff


class MeasurementBatch:
    """n i.i.d. measurements with cached mean and sample standard deviation.

    ``samples`` materialises the full (n, dimension) array on first access;
    factored batches avoid this for everything except export and inspection.
    """

    def __init__(
        self,
        n: int,
        seed: int,
        model_tag: str,
        mean: CoefficientVector,
        sample_std: float,
        samples: np.ndarray | None = None,
        factory=None,
    ):
        if n < 2:
            raise InputError("a batch needs n >= 2 samples")
        if sample_std < 0 or not math.isfinite(sample_std):
            raise InputError("sample_std must be finite and nonnegative")
        self.n = int(n)
        self.seed = int(seed)
        self.model_tag = str(model_tag)
        self.mean = mean
        self.sample_std = float(sample_std)
        self._samples = samples
        self._factory = factory

    @property
    def dimension(self) -> int:
        return len(self.mean)

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = self._factory()
            self._factory = None
        return self._samples


def _finalize_full(n, seed, tag, y_hat, samples) -> MeasurementBatch:
    mean_coef = samples.mean(axis=0)
    dev = samples - mean_coef
    sq = np.sum(np.square(dev, out=dev))
    std = math.sqrt(sq / (n - 1))
    mean = CoefficientVector(mean_coef, y_hat.orthogonal_norm)
    return MeasurementBatch(n, seed, tag, mean, std, samples=samples)


def draw_batch(
    model: NoiseModel,
    y_hat: CoefficientVector,
    n: int,
    seed: int,
    stream: int = 0,
    forced_latents: np.ndarray | None = None,
) -> MeasurementBatch:
    """Draw n i.i.d. measurements; deterministic given (model, n, seed, stream).

    ``forced_latents`` is a test hook replacing the scalar latent variables
    (the normals Z_i for direction_gaussian / bernoulli_payoff) by given
    values, so conditional claims can be checked deterministically.
    """
    if n < 2:
        raise InputError("need n >= 2 measurements")
    rng = RandomStream(seed, stream)

    if isinstance(model, DirectionGaussian):
        z = rng.normals(n) if forced_latents is None else _coerce_latents(forced_latents, n)
        return _rank_one_batch(model.tag, y_hat, model.direction.coefficients, z, n, seed)

    if isinstance(model, HeavyTailed):
        if forced_latents is not None:
            z = _coerce_latents(forced_latents, n)
        else:
            u = rng.symmetric_uniforms(n)
            z = u * rng.generalized_pareto(n, model.shape, model.scale, model.location)
        if model.weights.shape[0] != len(y_hat):
            raise InputError("weight vector length must match y_hat")
        return _rank_one_batch(model.tag, y_hat, model.weights, z, n, seed)

    if isinstance(model, CoefficientGaussian):
        if forced_latents is not None:
            raise InputError("coefficient_gaussian has no scalar latent to force")
        m = len(y_hat)
        samples = rng.normals(n * m).reshape(n, m)
        samples *= model.scale
        samples += y_hat.coefficients
        return _finalize_full(n, seed, model.tag, y_hat, samples)

    if isinstance(model, BernoulliPayoff):
        return _bernoulli_batch(model, n, seed, rng, forced_latents)

    raise InputError(f"unknown noise model {type(model).__name__}")


def _coerce_latents(latents, n) -> np.ndarray:
    z = np.atleast_1d(np.asarray(latents, dtype=float))
    if z.shape != (n,):
        raise InputError(f"forced latents must have shape ({n},)")
    return z


def _rank_one_batch(tag, y_hat, direction, z, n, seed) -> MeasurementBatch:
    direction = np.asarray(direction, dtype=float)
    if direction.shape[0] != len(y_hat):
        raise InputError("direction length must match y_hat")
    z_bar = float(z.mean())
    dir_norm = float(np.linalg.norm(direction))
    std = float(np.sqrt(np.sum((z - z_bar) ** 2) / (n - 1))) * dir_norm
    mean = CoefficientVector(
        y_hat.coefficients + z_bar * direction, y_hat.orthogonal_norm
    )

    def materialise(base=y_hat.coefficients, d=direction, lat=z):
        return base[None, :] + lat[:, None] * d[None, :]

    return MeasurementBatch(n, seed, tag, mean, std, factory=materialise)


def _bernoulli_batch(model, n, seed, rng, forced_latents) -> MeasurementBatch:
    p = model.params
    if forced_latents is None:
        z = p.latent_mean() + p.latent_std() * rng.normals(n)
    else:
        z = _coerce_latents(forced_latents, n)
    # indicator threshold per grid point: Z_i >= ln(strike/s0)/T
    thresholds = np.log(p.strike / p.s0_grid) / p.expiry
    z_sorted = np.sort(z)
    hit_counts = n - np.searchsorted(z_sorted, thresholds, side="left")
    p_hat = hit_counts / n
    scale = p.discounted_payoff * math.sqrt(p.grid_weight)
    mean = CoefficientVector(scale * p_hat, 0.0)
    # ||Y_i - Y_bar||^2 summed over i is n p(1-p) per grid point
    std = scale * math.sqrt(n * float(np.sum(p_hat * (1.0 - p_hat))) / (n - 1))

    def materialise(latents=z, thr=thresholds, s=scale):
        return s * (latents[:, None] >= thr[None, :]).astype(float)

    return MeasurementBatch(n, seed, model.tag, mean, std, factory=materialise)


def delta_est(batch: MeasurementBatch, rule: str, tau: float | None = None) -> float:
    """Noise-level estimate for the averaged data Y_bar_n.

    ``inv_sqrt_n`` -> 1/sqrt(n); ``sample_std`` -> s_n/sqrt(n);
    ``lil`` -> tau s_n sqrt(2 ln ln n / n) with tau > 1 and n >= 16.
    """
    if rule not in DELTA_RULES:
        raise InputError(f"unknown delta rule {rule!r}")
    n = batch.n
    if rule == "inv_sqrt_n":
        return 1.0 / math.sqrt(n)
    if batch.sample_std == 0.0:
        raise DegenerateBatchError(
            "all measurements coincide; sample-based noise estimate undefined"
        )
    if rule == "sample_std":
        return batch.sample_std / math.sqrt(n)
    if tau is None or tau <= 1:
        raise InputError("lil rule requires tau > 1")
    if n < 16:
        raise InputError("lil rule requires n >= 16")
    return tau * batch.sample_std * math.sqrt(2.0 * math.log(math.log(n)) / n)


def delta_true(batch: MeasurementBatch, y_hat: CoefficientVector) -> float:
    """Actual averaging error ||Y_bar_n - y_hat||."""
    if len(y_hat) != batch.dimension:
        raise InputError("y_hat dimension does not match the batch")
    coef = batch.mean.coefficients - y_hat.coefficients
    # the orthogonal components of mean and y_hat are collinear by construction
    orth = batch.mean.orthogonal_norm - y_hat.orthogonal_norm
    return float(np.hypot(np.linalg.norm(coef), orth))


def save_batch_csv(batch: MeasurementBatch, path: str) -> None:
    """Write one row per sample plus a JSON sidecar {n, seed, model_tag}."""
    tmp_fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(tmp_fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in batch.samples:
                writer.writerow([f"{value:.17g}" for value in row])
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    sidecar = {"n": batch.n, "seed": batch.seed, "model_tag": batch.model_tag}
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh)


def load_batch_csv(path: str) -> MeasurementBatch:
    """Read a batch written by :func:`save_batch_csv` (sidecar optional)."""
    try:
        samples = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot parse batch CSV {path}: {exc}") from exc
    if samples.shape[0] < 2:
        raise InputError("a batch needs at least 2 samples")
    meta = {"n": samples.shape[0], "seed": 0, "model_tag": "imported"}
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        try:
            with open(sidecar) as fh:
                meta.update(json.load(fh))
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot parse batch sidecar {sidecar}: {exc}") from exc
    if int(meta["n"]) != samples.shape[0]:
        raise InputError("sidecar n does not match the number of CSV rows")
    zero = CoefficientVector(np.zeros(samples.shape[1]), 0.0)
    batch = _finalize_full(samples.shape[0], int(meta["seed"]), str(meta["model_tag"]),
                           zero, samples)
    return batch
