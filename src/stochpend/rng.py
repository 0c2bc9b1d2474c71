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


def uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """``n`` doubles in the open interval (0, 1)."""
    k0, k1 = stream_key(seed, stream)
    bg = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64))
    raw = bg.random_raw(n)
    # 53 high bits -> (0, 1); the half-ulp offset excludes both endpoints.
    return (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54


def standard_normals(seed: int, stream: int, n: int) -> np.ndarray:
    """``n`` unit normals by quantile inversion."""
    return ndtri(uniforms(seed, stream, n))


def ensemble_seeds(master_seed: int, n: int) -> np.ndarray:
    """Member seeds for an ensemble of size ``n``.

    Consecutive integers starting at ``master_seed``; the avalanche in
    :func:`stream_key` turns them into unrelated streams.  Reductions over
    ensembles should iterate members in this (sorted) order so results do
    not depend on scheduling.
    """
    return np.arange(master_seed, master_seed + n, dtype=np.uint64)
