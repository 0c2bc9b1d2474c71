import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from stochpend.rng import (
    BLOCK,
    ensemble_seeds,
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
    a = standard_normals(42, 1, 1000)
    b = standard_normals(42, 1, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, standard_normals(43, 1, 1000))
    assert not np.array_equal(a, standard_normals(42, 2, 1000))


def test_uniforms_open_interval():
    # ndtri maps 0 and 1 to -inf and inf, so finite normals mean uniforms in (0, 1)
    assert np.isfinite(standard_normals(7, 0, 100000)).all()


def test_normals_distribution():
    z = standard_normals(3, 0, 200000)
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
    assert standard_normals(17, 2, n).tobytes() == expected.tobytes()
    # into a strided view, such as one row of a path array past its z0 node
    rows = np.full((2, n + 1), np.nan)
    got = standard_normals(17, 2, n, out=rows[1, 1:])
    assert got.base is rows
    assert rows[1, 1:].tobytes() == expected.tobytes()
    assert np.isnan(rows[0]).all() and np.isnan(rows[1, 0])


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4 * BLOCK - 2, 4 * BLOCK + 1, 4 * BLOCK + 3])
@pytest.mark.parametrize("n", [1, BLOCK + 2])
def test_normals_resume_at_any_start(m, n):
    whole = standard_normals(17, 2, m + n)
    assert standard_normals(17, 2, n, start=m).tobytes() == whole[m:].tobytes()


def test_normals_out_must_match_n():
    with pytest.raises(ValueError):
        standard_normals(1, 0, 10, out=np.empty(9))
    with pytest.raises(ValueError):
        standard_normals(1, 0, 10, out=np.empty(10, dtype=np.float32))


def test_ensemble_seeds_fit_in_64_bits():
    top = ensemble_seeds(2**64 - 3, 3)
    assert top.dtype == np.uint64 and int(top[-1]) == 2**64 - 1
    for master, n in ((2**64 - 2, 3), (10**30, 1), (-1, 2)):
        with pytest.raises(ValueError):
            ensemble_seeds(master, n)
