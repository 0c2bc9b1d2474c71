"""Random tau-periodic noise paths and their ergodic statistics.

Each noise channel is a periodically forced Ornstein-Uhlenbeck process

    dX = -alpha (X - A sin(2 pi t / tau + phi)) dt + beta dW,

the simplest family whose drift is tau-periodic and Lipschitz (constant
alpha) and which admits a random periodic solution.  Its long-run
statistics are available in closed form and serve as oracles in the test
suite:

    period-averaged mean          0
    second moment  E[X^2]         beta^2/(2 alpha) + A^2 alpha^2 / (2 (alpha^2 + omega^2))
    cross moment   E[X1 X2]       beta1 beta2 / (alpha1 + alpha2)
                                  (shared driver, A1 = A2 = 0)

with omega = 2 pi / tau.  Two channels may ride on one Wiener process
("shared" driver, making the cross moment nonzero) or on disjoint
substreams ("independent").

Discretization is Euler-Maruyama on a uniform grid, evaluated in the
fused form

    x_{k+1} = (1 - alpha h) x_k + alpha h A sin(2 pi t_k / tau + phi)
              + beta sqrt(h) z_k,

where z_k are the unit normals of the channel's stream (see
:mod:`stochpend.rng`).  One generator serves :func:`simulate_pair_ensemble`,
its one-seed view :func:`simulate_pair` and :func:`estimate_ergodic_stats`.
It fills one span of nodes of one seed's paths at a time.
:func:`stochpend.rng.standard_normals` writes the span's normals straight
into a row per channel, starting at the span's place in the stream (on
a shared driver they are drawn once and copied to channel 2); node 0
holds z0.  Then each row is turned into its path in place, one block of
:data:`stochpend.rng.BLOCK` nodes at a time: scale by beta sqrt(h), add
the forcing, and run the recurrence as a compiled linear filter whose
state is carried from block to block and from span to span, so
y_0 = z0 and y_{k+1} = u_k + (1 - alpha h) y_k.  This is bit-identical
to the literal step-by-step loop, however the path is cut into spans.
The ensemble entry points fill whole rows of a (seeds, n + 1) array per
channel, and their peak memory is the output plus a few blocks.  The
ensemble experiments take the pair :data:`SEED_CHUNK` seeds at a time from
one loop, :func:`_noise_chunks`, which hands the nodes over time-major
and releases each chunk before it draws the next.
:func:`estimate_ergodic_stats` draws the pair one batch at a time into
two reused rows and reduces each batch before drawing the next, so its
peak memory is three batches plus a few blocks, whatever the horizon.

The forcing term and its time grid are built only when A != 0.  At
A = 0 the term is alpha h * (+-0), and x + (+-0) = x for every x != 0,
so skipping it changes no value, with one exception: where
beta sqrt(h) z_k underflows to -0 (beta below about 1e-290), adding a +0
term gave +0, and the skipped form keeps -0.
:func:`law_periodicity_check` uses the generator's one-channel form,
which draws and filters channel 1 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .errors import BlowUpError, ConfigError, SampleLengthError
from .rng import BLOCK, standard_normals

SHARED = "shared"
INDEPENDENT = "independent"

#: Wiener substream label for the shared driver.
SHARED_STREAM = 0
#: Seeds per noise chunk of the ensemble experiments (see :func:`_noise_chunks`).
SEED_CHUNK = 500
#: Relative tolerance within which a time is a grid node.
GRID_TOL = 1e-9


@dataclass(frozen=True)
class PeriodicDriftSpec:
    """Drift b(t, x) = -alpha (x - A sin(2 pi t / tau + phi)).

    The drift is exactly tau-periodic in t and Lipschitz in x with
    constant alpha.
    """

    tau: float
    alpha: float
    forcing_amp: float = 0.0
    forcing_phase: float = 0.0

    def __post_init__(self):
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not (self.forcing_amp >= 0 and math.isfinite(self.forcing_amp)):
            raise ValueError(f"forcing_amp must be >= 0, got {self.forcing_amp}")
        if not math.isfinite(self.forcing_phase):
            raise ValueError("forcing_phase must be finite")

    def target(self, t):
        """Moving relaxation target A sin(2 pi t / tau + phi)."""
        t = np.asarray(t, dtype=float)
        return self.forcing_amp * np.sin(2.0 * np.pi * t / self.tau + self.forcing_phase)


@dataclass(frozen=True)
class NoiseChannelConfig:
    """One noise channel: drift spec, diffusion, initial value, driver mode."""

    drift: PeriodicDriftSpec
    beta: float
    z0: float = 0.0
    driver: str = SHARED

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not math.isfinite(self.z0):
            raise ValueError("z0 must be finite")
        if self.driver not in (SHARED, INDEPENDENT):
            raise ValueError(f"driver must be '{SHARED}' or '{INDEPENDENT}', got {self.driver!r}")

    def stationary_second_moment(self) -> float:
        """Closed-form long-run E[X^2] (oracle for the estimator tests)."""
        d = self.drift
        omega = 2.0 * np.pi / d.tau
        return self.beta**2 / (2.0 * d.alpha) + (
            d.forcing_amp**2 * d.alpha**2 / (2.0 * (d.alpha**2 + omega**2))
        )


PairConfig = tuple[NoiseChannelConfig, NoiseChannelConfig]


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid t0 + k h, k = 0..n."""

    t0: float
    h: float
    n: int

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"h must be positive and finite, got {self.h}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not math.isfinite(self.t0):
            raise ValueError("t0 must be finite")

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.n + 1)

    def index_of(self, t: float) -> int:
        """Grid index of time ``t``; errors if ``t`` is off-grid."""
        k = round((t - self.t0) / self.h)
        if k < 0 or k > self.n or abs(self.t0 + k * self.h - t) > GRID_TOL * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not on the grid")
        return k


def period_stride(tau: float, h: float) -> int:
    """Grid steps per period; :class:`ConfigError` unless tau is a multiple of h."""
    k = round(tau / h) if tau / h < 2.0**53 else 0
    if k < 1 or abs(k * h - tau) > GRID_TOL * max(1.0, tau):
        raise ConfigError(f"tau = {tau} is not an integer multiple of the step h = {h}")
    return k


def grid_for_periods(tau: float, periods: float, steps_per_period: int = 1000) -> PathGrid:
    """Grid from t = 0 covering ``periods`` periods at ``steps_per_period`` steps each."""
    n = int(round(periods * steps_per_period))
    return PathGrid(t0=0.0, h=tau / steps_per_period, n=n)


@dataclass
class PathSample:
    """A discretized noise realization; reproducible from (config, grid, seed)."""

    grid: PathGrid
    values: np.ndarray

    def slice_from(self, start_index: int) -> "PathSample":
        """Tail of the sample starting at a grid index."""
        g = self.grid
        if not 0 <= start_index < g.n:
            raise ValueError(f"start_index {start_index} out of range")
        sub = PathGrid(t0=g.t0 + start_index * g.h, h=g.h, n=g.n - start_index)
        return PathSample(grid=sub, values=self.values[start_index:])


@dataclass
class ErgodicStats:
    """Time-averaged noise statistics with batch-means standard errors."""

    mean1: float
    mean2: float
    c1: float
    c2: float
    c12: float
    se_mean1: float
    se_mean2: float
    se_c1: float
    se_c2: float
    se_c12: float
    burn_in_periods: int
    avg_periods: int


@dataclass
class KSReport:
    """Two-sample Kolmogorov-Smirnov comparison of ensemble laws."""

    statistic: float
    critical_value: float
    n: int
    s: float
    lag: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.statistic < self.critical_value


def drift_eval(spec: PeriodicDriftSpec, t, x):
    """Evaluate b(t, x); vectorizes over ``t`` and ``x``."""
    return -spec.alpha * (np.asarray(x, dtype=float) - spec.target(t))


def _fill_span(cfgs: list[NoiseChannelConfig], seed: int, rows: list[np.ndarray],
               grid: PathGrid, start: int, states: list[np.ndarray]) -> list[int]:
    """Nodes ``start`` .. ``start + len(rows[c]) - 1`` of one seed's paths, in place.

    Row c is channel c.  Each channel's normals are drawn into its row
    (on a shared driver once, then copied), then :func:`_filter_row` turns
    each row into the path, carrying its filter state in ``states[c]``
    from the span before.  Returns each channel's first non-finite node,
    or ``grid.n + 1``.
    """
    streams = [SHARED_STREAM if cfg.driver == SHARED else c
               for c, cfg in enumerate(cfgs, start=1)]
    first = max(start, 1) - start  # node 0 holds z0, not a normal
    for c, stream in enumerate(streams):
        z = rows[c][first:]
        if c and stream == streams[0]:
            z[:] = rows[0][first:]
        else:
            standard_normals(int(seed), stream, len(z), out=z, start=start + first - 1)
    return [_filter_row(cfg, row, grid, start, state)
            for cfg, row, state in zip(cfgs, rows, states)]


def _check_finite(bad: list[int], grid: PathGrid) -> None:
    """Raise :class:`BlowUpError` at channel 1's first non-finite node, else channel 2's."""
    for node in bad:
        if node <= grid.n:
            raise BlowUpError(node, f"noise path non-finite at grid step {node}")


def _pair_values(cfg1: NoiseChannelConfig, cfg2: NoiseChannelConfig | None,
                 grid: PathGrid, seeds) -> tuple[np.ndarray, np.ndarray | None]:
    """The one noise generator (see the module docstring).

    With ``cfg2`` None only channel 1 is drawn and filtered; it is
    bit-identical to channel 1 of any pair, and None stands in for
    channel 2.  Both public entry points call it directly, not each
    other, so a traced call of either one counts its paths once.
    """
    cfgs = [cfg1] if cfg2 is None else [cfg1, cfg2]
    values = [np.empty((len(seeds), grid.n + 1)) for _ in cfgs]
    bad = [grid.n + 1] * len(cfgs)
    for i, s in enumerate(seeds):
        found = _fill_span(cfgs, s, [x[i] for x in values], grid, 0,
                           [np.zeros(1) for _ in cfgs])
        bad = list(map(min, bad, found))
    _check_finite(bad, grid)
    return values[0], (values[1] if cfg2 is not None else None)


def _filter_row(cfg: NoiseChannelConfig, row: np.ndarray, grid: PathGrid,
                start: int, state: np.ndarray) -> int:
    """Turn the normals in ``row`` into nodes ``start`` .. of the channel's path, in place.

    ``row[i]`` is node ``start + i``; it holds the normal z_{start+i-1}, except
    node 0, which is set to z0.  ``state`` is the filter state after node
    ``start - 1`` (zeros at ``start`` 0) and is left as the state after the
    row's last node, so the next span continues the path.  Block by block:
    scale by beta sqrt(h), add the forcing (only when A != 0), then run
    the Euler recurrence as a linear filter.  Returns the first grid node
    that is not finite, or ``grid.n + 1`` if there is none.
    """
    d, h = cfg.drift, grid.h
    scale = cfg.beta * np.sqrt(h)
    b, a = [1.0], [1.0, -(1.0 - d.alpha * h)]
    if start == 0:
        row[0] = cfg.z0
    for lo in range(0, len(row), BLOCK):
        seg = row[lo:lo + BLOCK]
        first = max(lo, 1 - start)  # node 0 holds z0, not a normal
        u = seg[first - lo:]
        u *= scale
        if d.forcing_amp != 0:
            t_k = grid.t0 + h * np.arange(start + first - 1, start + lo + len(seg) - 1)
            u += d.alpha * h * d.target(t_k)
        seg[:], state[:] = lfilter(b, a, seg, zi=state)
        finite = np.isfinite(seg)
        if not finite.all():
            return start + lo + int(np.argmin(finite))
    return grid.n + 1


def simulate_pair_ensemble(cfg1: NoiseChannelConfig, cfg2: NoiseChannelConfig,
                           grid: PathGrid, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both channels for many seeds; each result has shape (len(seeds), n + 1).

    Row k of channel i depends only on ``cfg_i``, ``grid`` and
    ``seeds[k]``: it reads stream 0 on a shared driver and stream i on an
    independent one, so two shared channels with the same config and seed
    produce identical paths.  Raises :class:`BlowUpError` at the first
    grid node where any row is non-finite.
    """
    return _pair_values(cfg1, cfg2, grid, seeds)


def _noise_chunks(pair_config: PairConfig, grid: PathGrid, seeds: np.ndarray, start: int = 0):
    """The ensemble's noise pair, ``SEED_CHUNK`` seeds at a time.

    Yields ``(rows, x1, x2)``: x1 and x2 hold nodes ``start`` .. ``grid.n`` of
    ``seeds[rows]``, time-major and contiguous, one column per seed.  A
    consumer drops them at the end of its loop body, before the next draw.
    """
    for lo in range(0, len(seeds), SEED_CHUNK):
        rows = slice(lo, lo + SEED_CHUNK)
        x1, x2 = simulate_pair_ensemble(*pair_config, grid, seeds[rows])
        x1 = np.ascontiguousarray(x1[:, start:].T)
        x2 = np.ascontiguousarray(x2[:, start:].T)
        yield rows, x1, x2
        del x1, x2


def simulate_pair(cfg1: NoiseChannelConfig, cfg2: NoiseChannelConfig,
                  grid: PathGrid, seed: int) -> tuple[PathSample, PathSample]:
    """One-seed view of :func:`simulate_pair_ensemble`: row 0 of each channel."""
    x1, x2 = _pair_values(cfg1, cfg2, grid, [seed])
    return PathSample(grid=grid, values=x1[0]), PathSample(grid=grid, values=x2[0])


def _mean_and_se(means: np.ndarray) -> tuple[float, float]:
    """Mean of batch means and its batch-means standard error."""
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(len(means)))


def estimate_ergodic_stats(cfg1: NoiseChannelConfig, cfg2: NoiseChannelConfig,
                           grid: PathGrid, seed: int, tau: float,
                           burn_in_periods: int = 100, batches: int = 16) -> ErgodicStats:
    """Time averages of xi_i, xi_i^2 and xi_1 xi_2 with batch-means errors.

    The averages are over the pair ``simulate_pair(cfg1, cfg2, grid, seed)``,
    drawn one span at a time and never held whole.  ``tau`` must be a
    multiple of the grid step.  The first ``burn_in_periods`` whole periods
    are discarded, in spans of at most one batch; the rest of the path is
    split into ``batches`` equal blocks, one span each, so that each batch
    mean sees the same array as over the whole path.  The fewer than
    ``batches`` nodes left at the end are drawn only to be checked for
    blow-up.  The path must span at least ``burn_in_periods + batches``
    whole periods (one period per batch).  Raises :class:`BlowUpError` at
    the first non-finite node of the first span that has one, channel 1
    before channel 2.
    """
    if batches < 8:
        raise ValueError(f"batches must be >= 8, got {batches}")
    stride = period_stride(tau, grid.h)
    periods = grid.n // stride
    if periods < burn_in_periods + batches:
        raise SampleLengthError(
            f"sample covers {periods} whole periods; "
            f"need >= {burn_in_periods + batches} (burn-in + batches)")
    start = burn_in_periods * stride
    block = (grid.n + 1 - start) // batches
    end = start + batches * block
    # span edges: burn-in pieces, the batches, then the trailing nodes if any
    edges = [*range(0, start, block), *range(start, end + 1, block)]
    if end <= grid.n:
        edges.append(grid.n + 1)
    buf = np.empty((2, max(np.diff(edges))))
    states = [np.zeros(1), np.zeros(1)]
    # rows: means of xi_1, xi_2, xi_1^2, xi_2^2, xi_1 xi_2 over each batch
    means = np.empty((5, batches))
    for lo, hi in zip(edges, edges[1:]):
        x1, x2 = buf[:, :hi - lo]
        _check_finite(_fill_span([cfg1, cfg2], seed, [x1, x2], grid, lo, states), grid)
        if start <= lo < end:
            means[:, (lo - start) // block] = (np.mean(x1), np.mean(x2), np.mean(x1 * x1),
                                               np.mean(x2 * x2), np.mean(x1 * x2))
    (mean1, se_mean1), (mean2, se_mean2), (c1, se_c1), (c2, se_c2), (c12, se_c12) = \
        map(_mean_and_se, means)
    return ErgodicStats(
        mean1=mean1, mean2=mean2, c1=c1, c2=c2, c12=c12,
        se_mean1=se_mean1, se_mean2=se_mean2, se_c1=se_c1, se_c2=se_c2,
        se_c12=se_c12, burn_in_periods=burn_in_periods,
        avg_periods=periods - burn_in_periods,
    )


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / len(a)
    fb = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def ks_critical_value(n1: int, n2: int) -> float:
    """Asymptotic two-sided 5% critical value c sqrt((n1+n2)/(n1 n2)).

    c = sqrt(-ln(0.025) / 2); for equal samples of size N this is
    sqrt(-ln(0.025) / N).
    """
    c = math.sqrt(-math.log(0.025) / 2.0)
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def law_periodicity_check(config: NoiseChannelConfig, grid: PathGrid,
                          seeds: np.ndarray, s: float, lag: float) -> KSReport:
    """KS test of law periodicity: ensemble values at time s vs s + lag.

    With the default family the law is tau-periodic, so the statistic at
    lag = tau stays below the 5% critical value; at fractional lags with
    strong forcing it does not.
    The ensemble is channel 1 of ``simulate_pair_ensemble(config, config, ...)``,
    bit for bit, drawn without channel 2.
    """
    if len(seeds) < 2:
        raise ValueError("need at least 2 ensemble members")
    i = grid.index_of(s)
    j = grid.index_of(s + lag)
    values, _ = _pair_values(config, None, grid, seeds)
    stat = ks_statistic(values[:, i], values[:, j])
    crit = ks_critical_value(len(seeds), len(seeds))
    return KSReport(statistic=stat, critical_value=crit, n=len(seeds), s=s, lag=lag)
