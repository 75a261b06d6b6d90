import hashlib

import numpy as np
import pytest

from avereg.errors import InputError
from avereg.rng import RandomStream


def test_streams_are_deterministic():
    a = RandomStream(1234, stream=7).uniforms(100)
    b = RandomStream(1234, stream=7).uniforms(100)
    assert np.array_equal(a, b)


def test_streams_differ_by_seed_and_stream():
    base = RandomStream(1, stream=0).uniforms(64)
    assert not np.array_equal(base, RandomStream(2, stream=0).uniforms(64))
    assert not np.array_equal(base, RandomStream(1, stream=1).uniforms(64))


def test_counter_continuation_is_stateless():
    whole = RandomStream(99).uniforms(50)
    split = RandomStream(99)
    parts = np.concatenate([split.uniforms(20), split.uniforms(30)])
    assert np.array_equal(whole, parts)


def test_uniforms_lie_in_open_unit_interval():
    u = RandomStream(5).uniforms(100000)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_symmetric_uniforms_are_centered():
    u = RandomStream(6).symmetric_uniforms(100000)
    assert u.min() > -0.5 and u.max() < 0.5
    assert abs(u.mean()) < 0.005


def test_normals_have_standard_moments():
    z = RandomStream(7).normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # odd request lengths are honoured exactly
    assert RandomStream(7).normals(7).shape == (7,)


def test_generalized_pareto_matches_closed_form_moments():
    # shape 1/3, scale 1/2, location 3/2: mean = loc + scale/(1-k) = 2.25
    z = RandomStream(8).generalized_pareto(400000, 1.0 / 3.0, 0.5, 1.5)
    assert z.min() >= 1.5
    assert abs(z.mean() - 2.25) < 0.02


def test_generalized_pareto_shape_zero_is_exponential():
    z = RandomStream(9).generalized_pareto(200000, 0.0, 2.0, 0.0)
    assert abs(z.mean() - 2.0) < 0.03


def test_generalized_pareto_rejects_bad_scale():
    with pytest.raises(InputError):
        RandomStream(1).generalized_pareto(10, 0.5, 0.0, 0.0)


def test_permutation_is_a_permutation():
    perm = RandomStream(11).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_a_uniform_of_one_still_gives_a_permutation():
    # the first word of this seed has its top 53 bits set: (2^53 - 1) + 1/2
    # rounds to 2^53, and Fisher-Yates used to swap with the index past its end
    assert RandomStream(2330121759143012144).uniforms(1)[0] == 1.0
    perm = RandomStream(2330121759143012144).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_permutation_is_roughly_uniform():
    # the first element should land anywhere with equal probability
    firsts = [RandomStream(s).permutation(4)[0] for s in range(2000)]
    counts = np.bincount(firsts, minlength=4)
    assert counts.min() > 2000 / 4 * 0.8


# sha256 prefixes of the .tobytes() output of RandomStream(99, (2 << 32) | 17),
# one per request size; the sizes straddle the 2^14-word generation block.
# Any change to the bits of a draw fails here, whatever its moments.
_GOLDEN_SIZES = (1, 2, 7, 2**14 - 1, 2**14, 2**14 + 1, 2 * 2**14 + 3, 100001)
_GOLDEN = {
    "uniforms": ("0efbd491e55e545f", "001cbd7716f74121", "36725d00d0e57250",
                 "2db2156afcdb0645", "2290066919cabd2f", "6c109a6f4fea5904",
                 "896192b3c14c0630", "e3d15a4776881e0c"),
    "symmetric_uniforms": ("70f4867721e890c6", "0c0b14a6725a2359", "a264475c4d9062aa",
                           "576b83f2d69dbb79", "49acc0cee97f61cf", "eea2f50151b0c92b",
                           "b92eca2b429b5fec", "4cd40a1c02e82a60"),
    "normals": ("dbadaa008edc2086", "8496940abd209249", "2823d775cc5094fc",
                "aa8f7ec43a713347", "1896158a5f5bb1ba", "6ce623025c56e397",
                "b4e1e3e6fbd28a6b", "a3737599e46646dc"),
    "generalized_pareto": ("6f1b2b90b97eaec6", "4b31a94121ca2ce6", "14a20c0c4473afc9",
                           "ab4e77cd306052f2", "d6f0a059c441e95a", "b097535890bc809d",
                           "bd0cef198376e4fd", "b10e17e234d2e53b"),
}


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()[:16]


def _golden_stream() -> RandomStream:
    return RandomStream(99, (2 << 32) | 17)


@pytest.mark.golden_bits
@pytest.mark.parametrize("method", sorted(_GOLDEN))
@pytest.mark.parametrize("size_index", range(len(_GOLDEN_SIZES)))
def test_draws_match_golden_bits(method, size_index):
    n = _GOLDEN_SIZES[size_index]
    extra = (1.0 / 3.0, 0.5, 1.5) if method == "generalized_pareto" else ()
    values = getattr(_golden_stream(), method)(n, *extra)
    assert values.shape == (n,)
    assert _digest(values) == _GOLDEN[method][size_index]


def test_draws_split_across_a_block_boundary_match_golden_bits():
    stream = _golden_stream()
    parts = [stream.uniforms(2**14 - 5), stream.normals(11), stream.uniforms(40000)]
    assert _digest(np.concatenate(parts)) == "143234ebcc1fac27"
