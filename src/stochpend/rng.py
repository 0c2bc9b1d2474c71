"""Deterministic random-number streams for noise-path simulation.

Every stochastic quantity in this package is a pure function of a 64-bit
seed and a small integer stream label.  The construction:

* generator: Philox 4x64 (counter-based), keyed per stream;
* key derivation: the (seed, stream) pair is mixed through SplitMix64
  avalanche steps (Steele, Lea & Flood 2014), so nearby seeds give
  unrelated streams;
* Gaussian variates: 53-bit uniforms from the raw counter output,
  inverted through the standard normal quantile function
  (``scipy.special.ndtri``, Cephes rational approximation).

Variates are generated in blocks of :data:`BLOCK` values, each one drawn,
converted and inverted in place in its block of raw words and then written
once into the caller's output array (a strided view, such as one column of
a time-major tile, costs one strided pass), so the only memory beyond the
output is one block of raw words.  The uniforms exist only inside that
block; the module hands out normals.  Because Philox is
counter-based, the blocked stream equals the one-shot formula
``ndtri((Philox(key).random_raw(n) >> 11) * 2**-53 + 2**-54)`` bit for bit.

The stream is carried: :func:`philox` builds a (seed, stream) pair's bit
generator once, and each :func:`standard_normals` call draws the next
values of it, so a long path drawn one span at a time reads the same
values as in one call.  :func:`philox_at` reaches any share of a stream
without drawing what lies before it: the value at index r of the stream
comes from raw word r.

Identical (seed, stream) inputs reproduce identical variates bit for bit
on every run of the same library versions (checked with scipy 1.17.1 and
numpy 2.4.6; every ``manifest.json`` names them); the scheme contains no
global state and no platform-dependent sampling loop (no rejection steps).

Stream labels used by :mod:`stochpend.rpsde`:

===== =====================================================
0     shared Wiener driver (both channels read the same increments)
1, 2  per-channel drivers for ``independent`` mode
===== =====================================================
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 avalanche step on a 64-bit word."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stream_key(seed: int, stream: int) -> tuple[int, int]:
    """Philox key words for a (seed, stream) pair.

    The seed and stream label are each avalanched before combining, so
    streams of consecutive seeds (ensemble members) and consecutive
    labels (noise channels) are decorrelated.
    """
    a = splitmix64(seed & _MASK64)
    b = splitmix64(a ^ splitmix64(stream & _MASK64))
    return b, splitmix64(b)


#: Values drawn per Philox call.  A block of raw words (256 KiB), turned
#: into doubles in place, stays in a core's L2 cache while it is transformed.
BLOCK = 1 << 15


def philox(seed: int, stream: int) -> np.random.Philox:
    """The bit generator of the (seed, stream) pair, at the start of its stream."""
    return np.random.Philox(key=np.array(stream_key(seed, stream), dtype=np.uint64))


def philox_at(seed: int, stream: int, word: int) -> np.random.Philox:
    """The bit generator of the (seed, stream) pair, positioned at raw word ``word``.

    Philox is counter-based, four raw words per counter step, so
    ``advance(word // 4)`` lands on the first word of ``word``'s step, and
    ``word % 4`` words drawn and discarded land on ``word`` itself.  Any
    process can thus draw any share of a stream and read the same values.
    """
    bg = philox(seed, stream).advance(word // 4)
    bg.random_raw(word % 4)
    return bg


def standard_normals(bg: np.random.Philox, n: int, out: np.ndarray) -> np.ndarray:
    """The next ``n`` unit normals of ``bg``'s stream by quantile inversion,
    written into ``out``.

    ``out`` is a float64 vector of length ``n`` (a view, such as one column
    of a tile, is fine); it is filled and returned.
    """
    if out.shape != (n,) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 vector of length {n}")
    for lo in range(0, n, BLOCK):
        seg = out[lo:lo + BLOCK]
        raw = bg.random_raw(len(seg))
        # 53 high bits -> (0, 1); the half-ulp offset excludes both endpoints.
        raw >>= np.uint64(11)
        f = raw.view(np.float64)  # converted in the raw block, so ``out`` is written once
        np.multiply(raw, 2.0**-53, out=f)
        f += 2.0**-54
        seg[:] = ndtri(f, out=f)
    return out


def ensemble_seeds(master_seed: int, n: int) -> np.ndarray:
    """Member seeds for an ensemble of size ``n``.

    Consecutive integers starting at ``master_seed``; the avalanche in
    :func:`stream_key` turns them into unrelated streams.  Reductions over
    ensembles should iterate members in this (sorted) order so results do
    not depend on scheduling.
    """
    if not 0 <= master_seed <= (1 << 64) - n:
        raise ValueError(f"ensemble seeds {master_seed} + k, k < {n}, "
                         "must lie in [0, 2**64)")
    return np.arange(master_seed, master_seed + n, dtype=np.uint64)
