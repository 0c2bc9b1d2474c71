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
converted and inverted in place in the caller's output array, so the only
memory beyond the output is one block of raw words.  The uniforms exist
only inside that block; the module hands out normals.  Because Philox is
counter-based, the blocked stream equals the one-shot formula
``ndtri((Philox(key).random_raw(n) >> 11) * 2**-53 + 2**-54)`` bit for bit.

The stream is also resumable: ``standard_normals(seed, stream, n, start=m)``
is values m .. m + n - 1 of it, bit for bit, without drawing the first m.
Each Philox counter step gives four raw words, so the generator skips
``m // 4`` steps and drops the ``m % 4`` words left before value m.  A long
path can thus be drawn one span at a time.

Identical (seed, stream) inputs reproduce identical variates bit for bit
on every run of the same library versions; the scheme contains no global
state and no platform-dependent sampling loop (no rejection steps).

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


#: Values drawn per Philox call.  A block of raw words and one of doubles
#: (256 KiB each) stay in a core's L2 cache while they are transformed.
BLOCK = 1 << 15


def standard_normals(seed: int, stream: int, n: int,
                     out: np.ndarray | None = None, start: int = 0) -> np.ndarray:
    """Unit normals ``start`` .. ``start + n - 1`` of the stream by quantile
    inversion, written into ``out`` if given.

    ``out`` is a float64 vector of length ``n`` (a view, such as one row of
    a path array, is fine); it is filled and returned.
    """
    if out is None:
        out = np.empty(n)
    elif out.shape != (n,) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 vector of length {n}")
    k0, k1 = stream_key(seed, stream)
    bg = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64))
    # four raw words per counter step
    bg.advance(start // 4)
    bg.random_raw(start % 4)
    for lo in range(0, n, BLOCK):
        seg = out[lo:lo + BLOCK]
        raw = bg.random_raw(len(seg))
        # 53 high bits -> (0, 1); the half-ulp offset excludes both endpoints.
        raw >>= np.uint64(11)
        np.multiply(raw, 2.0**-53, out=seg)
        seg += 2.0**-54
        ndtri(seg, out=seg)
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
