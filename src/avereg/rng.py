"""Seedable counter-based random number generation.

Every random quantity in the package flows through :class:`RandomStream`, a
small counter-based generator built on the splitmix64 mixing function.  A
stream is addressed by ``(seed, stream)``; replicated experiments use one
substream per replication index so that runs are bit-reproducible and
replications can be generated independently in any order.

Output word ``i`` of a stream is ``mix(base + i * PHI)`` where ``base`` is a
mix of seed and stream id, ``PHI`` is the 64-bit golden-ratio constant and
``mix`` the splitmix64 finalizer.  Normals are produced by Box-Muller,
generalized Pareto variates by inverse transform.

Words are generated in blocks of ``_BLOCK`` counters: each block is mixed in
place in a scratch buffer that stays in cache and is then converted straight
into the caller's output array, so a draw of n variates allocates its output
and two blocks rather than several n-long temporaries.  Every output value is
the same floating-point expression of its own word, so the output does not
depend on the block size or on how a draw is split across calls.  It does
depend on the SIMD kernels numpy dispatches to where it takes ``np.log``
(normals), ``np.log1p`` or ``np.expm1`` (generalized Pareto variates); the
uniforms and permutations, exactly rounded arithmetic of the words, do not.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

_PHI = 0x9E3779B97F4A7C15
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_STREAM_MUL = 0xD1342543DE82EF95

_INV_2_53 = 2.0 ** -53

_BLOCK = 1 << 14
_STEPS = np.arange(_BLOCK, dtype=np.uint64) * np.uint64(_PHI)


def _mix(z: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64 finalizer, in place over a uint64 array; ``scratch`` has
    the shape of ``z``."""
    for shift, mul in ((30, _MUL1), (27, _MUL2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= mul
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch


def _to_u64(value: int) -> np.uint64:
    return np.uint64(int(value) % (1 << 64))


class RandomStream:
    """Counter-based generator addressed by a 64-bit (seed, stream) pair.

    Identical ``(seed, stream)`` pairs and call sequences produce bitwise
    identical output on one set of numpy's kernels (see the module docstring).
    """

    def __init__(self, seed: int, stream: int = 0):
        key_sub = np.array([_to_u64(seed), _to_u64(int(stream) * _STREAM_MUL)])
        _mix(key_sub, np.empty_like(key_sub))
        self._base = int(key_sub[0] ^ key_sub[1])
        self._counter = 0

    def _take(self, n: int) -> int:
        """Reserve the next n words; returns the counter of the first."""
        start = self._counter
        self._counter += n
        return start

    def _fill_uniforms(self, start: int, out: np.ndarray) -> None:
        """Write the uniforms of words start, start + 1, ... into ``out``."""
        words = np.empty(min(out.size, _BLOCK), dtype=np.uint64)
        scratch = np.empty_like(words)
        for lo in range(0, out.size, _BLOCK):
            dest = out[lo:lo + _BLOCK]
            z, t = words[:dest.size], scratch[:dest.size]
            np.add(_STEPS[:dest.size], _to_u64(self._base + (start + lo) * _PHI), out=z)
            _mix(z, t)
            z >>= np.uint64(11)
            np.add(z, 0.5, out=dest)
            dest *= _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms on the open interval (0, 1)."""
        out = np.empty(n)
        self._fill_uniforms(self._take(n), out)
        return out

    def symmetric_uniforms(self, n: int) -> np.ndarray:
        """n uniforms on (-1/2, 1/2)."""
        out = self.uniforms(n)
        out -= 0.5
        return out

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller.

        Pair j takes its radius from word j and its angle from word half + j
        of the request; the cosines fill the first half of the output, the
        sines the second, and an odd request drops the last sine.
        """
        half = (n + 1) // 2
        start = self._take(2 * half)
        out = np.empty(2 * half)
        radius = np.empty(min(half, _BLOCK))
        for a in range(0, half, _BLOCK):
            b = min(a + _BLOCK, half)
            r = radius[:b - a]
            self._fill_uniforms(start + a, r)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            cos_part, sin_part = out[a:b], out[half + a:half + b]
            self._fill_uniforms(start + half + a, sin_part)
            sin_part *= 2.0 * np.pi
            np.cos(sin_part, out=cos_part)
            np.sin(sin_part, out=sin_part)
            cos_part *= r
            sin_part *= r
        return out[:n]

    def generalized_pareto(self, n: int, shape: float, scale: float, location: float) -> np.ndarray:
        """n generalized-Pareto variates; see :func:`pareto_from_uniforms`."""
        return pareto_from_uniforms(self.uniforms(n), shape, scale, location)

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of range(n) (Fisher-Yates)."""
        perm = np.arange(n)
        u = self.uniforms(max(n - 1, 0))
        for i in range(n - 1, 0, -1):
            j = int(u[n - 1 - i] * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def pareto_from_uniforms(x: np.ndarray, shape: float, scale: float, location: float) -> np.ndarray:
    """Generalized-Pareto variates X = location + scale ((1 - U)^{-shape} - 1)
    / shape of the uniforms U in ``x``, in place; the shape -> 0 limit is
    exponential."""
    if not scale > 0:
        raise InputError(f"generalized Pareto scale must be positive, got {scale}")
    np.negative(x, out=x)
    np.log1p(x, out=x)
    if abs(shape) < 1e-12:
        x *= scale
        return np.subtract(location, x, out=x)
    x *= -shape
    np.expm1(x, out=x)
    x *= scale
    x /= shape
    x += location
    return x
