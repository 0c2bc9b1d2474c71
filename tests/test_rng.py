import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

from stochpend.rng import (
    BLOCK,
    ensemble_seeds,
    philox,
    philox_at,
    splitmix64,
    standard_normals,
    stream_key,
)


def test_splitmix64_known_values():
    # first outputs of the published SplitMix64 sequence (states 0 and 1)
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_stream_key_distinguishes_seed_and_stream():
    assert stream_key(1, 0) != stream_key(2, 0)
    assert stream_key(1, 0) != stream_key(1, 1)
    # nearby seeds give unrelated keys (avalanche): no shared words
    k1 = stream_key(100, 0)
    k2 = stream_key(101, 0)
    assert k1[0] != k2[0] and k1[1] != k2[1]


def test_determinism_bitwise():
    a = standard_normals(philox(42, 1), 1000, np.empty(1000))
    b = standard_normals(philox(42, 1), 1000, np.empty(1000))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, standard_normals(philox(43, 1), 1000, np.empty(1000)))
    assert not np.array_equal(a, standard_normals(philox(42, 2), 1000, np.empty(1000)))


def test_uniforms_open_interval():
    # ndtri maps 0 and 1 to -inf and inf, so finite normals mean uniforms in (0, 1)
    assert np.isfinite(standard_normals(philox(7, 0), 100000, np.empty(100000))).all()


def test_normals_distribution():
    z = standard_normals(philox(3, 0), 200000, np.empty(200000))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # quantile inversion gives the right tails
    _, p = stats.kstest(z[:5000], "norm")
    assert p > 1e-3


def test_ensemble_seeds_sorted_and_distinct():
    seeds = ensemble_seeds(1000, 50)
    assert len(set(seeds.tolist())) == 50
    assert np.all(np.diff(seeds.astype(np.int64)) == 1)


def one_shot_normals(seed, stream, n):
    """The whole stream from one Philox call, as the formula reads."""
    key = np.array(stream_key(seed, stream), dtype=np.uint64)
    return ndtri((np.random.Philox(key=key).random_raw(n) >> np.uint64(11))
                 * 2.0**-53 + 2.0**-54)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_blocked_normals_equal_one_shot_formula(n):
    expected = one_shot_normals(17, 2, n)
    assert standard_normals(philox(17, 2), n, np.empty(n)).tobytes() == expected.tobytes()
    # into a strided view, such as one row of a path array past its z0 node
    rows = np.full((2, n + 1), np.nan)
    got = standard_normals(philox(17, 2), n, out=rows[1, 1:])
    assert got.base is rows
    assert rows[1, 1:].tobytes() == expected.tobytes()
    assert np.isnan(rows[0]).all() and np.isnan(rows[1, 0])
    # into a column of a time-major tile (a stride of 24 bytes)
    tile = np.full((n, 3), np.nan)
    got = standard_normals(philox(17, 2), n, out=tile[:, 1])
    assert got.base is tile and got.strides == (24,)
    assert tile[:, 1].tobytes() == expected.tobytes()
    assert np.isnan(tile[:, [0, 2]]).all()


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4 * BLOCK - 2, 4 * BLOCK + 1, 4 * BLOCK + 3])
@pytest.mark.parametrize("n", [1, BLOCK + 2])
def test_normals_resume_at_any_start(m, n):
    """A carried generator resumes where its last draw stopped: m values and
    then n equal m + n drawn at once, across ``BLOCK`` edges and off the
    four words of a Philox counter step."""
    whole = standard_normals(philox(17, 2), m + n, np.empty(m + n))
    bg = philox(17, 2)
    head = standard_normals(bg, m, np.empty(m))
    tail = standard_normals(bg, n, np.empty(n))
    assert head.tobytes() + tail.tobytes() == whole.tobytes()


@pytest.mark.parametrize("residue", range(4))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(block=st.sampled_from([BLOCK, 5, 16]), edge=st.integers(0, 3),
       steps=st.integers(-2, 2), n=st.integers(0, 40))
def test_positioned_generator_reads_the_stream_from_its_word(residue, block, edge, steps, n):
    """A generator positioned at raw word r draws values r, r + 1, ... of the
    one-shot stream: at every residue of r mod 4, with r on, just before and
    just past an edge of ``BLOCK`` (the real one or a small one, which the
    draw then also crosses)."""
    word = 4 * max(0, edge * block // 4 + steps) + residue
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("stochpend.rng.BLOCK", block)
        got = standard_normals(philox_at(17, 2, word), n, np.empty(n))
    assert got.tobytes() == one_shot_normals(17, 2, word + n)[word:].tobytes()


def test_normals_out_must_match_n():
    with pytest.raises(ValueError):
        standard_normals(philox(1, 0), 10, out=np.empty(9))
    with pytest.raises(ValueError):
        standard_normals(philox(1, 0), 10, out=np.empty(10, dtype=np.float32))


def test_ensemble_seeds_fit_in_64_bits():
    top = ensemble_seeds(2**64 - 3, 3)
    assert top.dtype == np.uint64 and int(top[-1]) == 2**64 - 1
    for master, n in ((2**64 - 2, 3), (10**30, 1), (-1, 2)):
        with pytest.raises(ValueError):
            ensemble_seeds(master, n)
