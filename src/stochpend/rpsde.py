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
:mod:`stochpend.rng`).  Every path is drawn by one span loop,
:func:`_spans`, the one place that decides how a path is cut into
time-major (span, seeds) tiles, and :func:`_filter_tile` turns each tile
into its paths in place; their docstrings give the mechanics.  The
recurrence runs in ``scipy.signal._sigtools._linear_filter``, the
compiled kernel that ``lfilter`` hands it to with the same arguments.
That extension is loaded by file, since importing ``scipy.signal`` pulls
in scipy.stats, optimize and more, about 1 s; with no such file,
``lfilter`` runs it.  The paths are bit-identical to the literal
step-by-step loop, however they are cut into spans.  A draw fails with
:class:`BlowUpError` at the first node where either channel is
non-finite, whatever the cut.

The forcing term and its time grid are built only when A != 0.  At
A = 0 the term is alpha h * (+-0), and x + (+-0) = x for every x != 0,
so skipping it changes no value, with one exception: where
beta sqrt(h) z_k underflows to -0 (beta below about 1e-290), adding a +0
term gave +0, and the skipped form keeps -0.
"""

from __future__ import annotations

import math
import os
import signal
from contextlib import ExitStack, closing, contextmanager, suppress
from dataclasses import dataclass, field
from functools import partial
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from operator import itemgetter

import numpy as np
import scipy

from .errors import BlowUpError, ConfigError, SampleLengthError
from .rng import BLOCK, philox_at, standard_normals

SHARED = "shared"
INDEPENDENT = "independent"

#: Wiener substream label for the shared driver.
SHARED_STREAM = 0
#: Most seeds in one block of the ensemble experiments (see :func:`_ensemble`).
SEED_CHUNK = 500
#: Nodes per time tile of a block's noise (see :func:`_ensemble`).
_SPAN = 2048
#: Relative tolerance within which a time is a grid node.
GRID_TOL = 1e-9


def _load_linear_filter():
    """The filter kernel ``(b, a, x, axis, zi) -> (y, zf)``, or ``lfilter`` (module docstring)."""
    spec = PathFinder.find_spec("scipy.signal._sigtools",
                                [os.path.join(path, "signal") for path in scipy.__path__])
    if spec is None:
        from scipy.signal import lfilter
        return lfilter
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._linear_filter


_linear_filter = _load_linear_filter()


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


def grid_for_periods(tau: float, periods: float, steps_per_period: int) -> PathGrid:
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


def _spans(cfgs: PairConfig, grid: PathGrid, seeds, start: int, span: int, reduce):
    """The paths of ``seeds`` from node ``start`` on, ``span`` nodes at a time.

    Yields, per span of nodes ``lo`` .. ``hi - 1``, the (2, hi - lo,
    len(seeds)) view of one time-major tile, channel c's in ``tiles[c]``,
    one column per seed.  The spans start at ``start`` and every ``span``
    nodes after it; the tile is refilled in place for the next span, so a
    consumer is done with it by then.  The spans before ``start`` (cut
    every ``span`` nodes from 0) are drawn only to carry the state and are
    never yielded.  Raises :class:`BlowUpError` at the first node where
    either channel of some seed is non-finite, wherever the cut falls.

    ``reduce`` is None or a function of one channel's (hi - lo, seeds)
    view; with one, each span is yielded as ``(tiles, (reduce(tiles[0]),
    reduce(tiles[1])))``, and on two or more CPUs channel 2 runs in a
    :func:`_forked` helper, over one tile in a shared anonymous mapping
    (:func:`_span_loop`).
    """
    edges = [*range(0, start, span), *range(start, grid.n + 1, span), grid.n + 1]
    shape = (2, min(span, grid.n + 1), len(seeds))
    if reduce is None or len(os.sched_getaffinity(0)) < 2:
        yield from _span_loop(cfgs, grid, seeds, start, edges, np.empty(shape), (0, 1),
                              reduce, None)
        return
    import mmap

    buf = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)

    def channel2(pipe):
        for _ in _span_loop(cfgs, grid, seeds, start, edges, buf, (1,), reduce, pipe):
            pass

    with _forked(channel2) as link:
        yield from _span_loop(cfgs, grid, seeds, start, edges, buf, (0,), reduce, link)


@contextmanager
def _forked(work):
    """The parent's end of a pipe to a forked child that runs ``work(pipe)``.

    This is how a run uses a second core: the seed blocks of
    :func:`_ensemble`, channel 2 of a split :func:`_spans` and the second
    half of a big CSV (``io._write_columns``) run in such children, and
    the run process waits for their replies.  A fork starts the child
    from this process's memory, numpy and scipy loaded, so ``work`` is
    not pickled.  A fork that fails (out of process ids or memory) raises
    ``MemoryError``, a numeric failure to the CLI.  The child sends any
    error ``work`` raises and ends in ``os._exit``, so it never returns to
    the caller.  Replies are read through :func:`_swap`: an error the
    child sent is raised in the run process, and a child that ended
    without a word (killed, say, by the out-of-memory killer) raises
    ``MemoryError`` too.  However the caller leaves the ``with`` block, the child
    is ended if it is still running, then reaped, so none outlives it.
    """
    from multiprocessing import Pipe

    link, pipe = Pipe()
    try:
        pid = os.fork()
    except OSError as err:  # out of process ids or memory
        link.close()
        pipe.close()
        raise MemoryError(f"could not start a helper process: {err}") from None
    if pid == 0:
        try:
            link.close()
            work(pipe)
        except BaseException as err:
            pipe.send(err)
        finally:
            os._exit(0)
    pipe.close()
    try:
        yield link
    finally:
        link.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _span_loop(cfgs: PairConfig, grid: PathGrid, seeds, start: int, edges, buf: np.ndarray,
               sides, reduce, link):
    """The loop of :func:`_spans` over the spans between ``edges``, on ``sides`` of ``buf``.

    ``sides`` is ``(0, 1)`` with ``link`` None, or one channel with
    ``link`` the pipe to the process running the other.  Each span runs in
    three steps, and the sides wait for each other (:func:`_swap`) before
    each.  The tile being free, each side draws its share of the normals:
    its channel's stream on an independent driver; on a shared one, half
    of the span's normals (channel 1's side the first half) into both
    rows.  Each side then filters its channels, each with its own state,
    and reduces them.  Last, the sides swap first non-finite nodes and
    reductions, and the smallest node is raised.  A seed's generator is
    carried from share to share, and positioned anew (:func:`philox_at`)
    where a share does not start where its last one ended, so a split
    changes no byte: the streams are counter-based.
    """
    streams = [SHARED_STREAM if cfg.driver == SHARED else c
               for c, cfg in enumerate(cfgs, start=1)]
    shared = streams[0] == streams[1]
    gens = {}  # row -> (one bit generator per seed, the raw word they stand at)
    states = np.zeros((2, 1, len(seeds)))
    for lo, hi in zip(edges, edges[1:]):
        tiles = buf[:, :hi - lo]
        z = tiles[:, max(lo, 1) - lo:]  # node 0 holds z0, not a normal
        word, n = max(lo, 1) - 1, z.shape[1]  # normal k is raw word k of its stream
        _swap(link, None)  # the other side is done with the last span
        if shared:
            part = slice(0 if 0 in sides else n // 2, n if 1 in sides else n // 2)
            draws = [(0, streams[0], part)]
        else:
            draws = [(c, streams[c], slice(0, n)) for c in sides]
        for row, stream, part in draws:
            bgs, at = gens.get(row, (None, None))
            if at != word + part.start:
                bgs = [philox_at(int(seed), stream, word + part.start) for seed in seeds]
            for col, bg in zip(z[row, part].T, bgs):
                standard_normals(bg, len(col), out=col)
            gens[row] = bgs, word + part.stop
        if shared:
            z[1, part] = z[0, part]
        _swap(link, None)  # both shares are drawn
        bad = [node for c in sides
               if (node := _filter_tile(cfgs[c], tiles[c], grid, lo, states[c])) is not None]
        reduced = ({c: reduce(tiles[c]) for c in sides}
                   if reduce is not None and lo >= start and not bad else {})
        if (theirs := _swap(link, (bad, reduced))) is not None:
            bad += theirs[0]
            reduced.update(theirs[1])
        if bad:
            raise BlowUpError(min(bad), f"noise path non-finite at grid step {min(bad)}")
        if lo >= start:
            yield tiles if reduce is None else (tiles, (reduced[0], reduced[1]))


def _swap(link, mine):
    """What the process across ``link`` sends for ``mine``, or None when ``link`` is None.

    An error it sends is raised; a peer that ended without a word raises
    ``MemoryError``.
    """
    if link is None:
        return None
    with suppress(OSError):  # a peer that has ended may have sent its error first
        link.send(mine)
    try:
        theirs = link.recv()
    except (EOFError, OSError):
        raise MemoryError("a helper process ended early") from None
    if isinstance(theirs, BaseException):
        raise theirs
    return theirs


def _filter_tile(cfg: NoiseChannelConfig, tile: np.ndarray, grid: PathGrid,
                 start: int, state: np.ndarray) -> int | None:
    """Turn the normals in ``tile`` into nodes ``start`` .. of the channel's paths, in place.

    Column i is one seed's path: ``tile[j, i]`` is node ``start + j``; it
    holds the normal z_{start+j-1}, except node 0, which is set to z0.
    ``state[0, i]`` is column i's filter state after node ``start - 1``
    (zeros at ``start`` 0) and is left as the state after the tile's last
    node, so the next span continues the path.  The tile is processed in
    blocks of ``max(1, BLOCK // seeds)`` rows, near ``BLOCK`` values each:
    scale by beta sqrt(h), add the forcing (only when A != 0), then run
    the Euler recurrence as a linear filter down the columns.  Returns
    the first grid node at which some column is not finite, and stops
    there, or None.
    """
    d, h = cfg.drift, grid.h
    scale = cfg.beta * np.sqrt(h)
    b, a = np.ones(1), np.array([1.0, -(1.0 - d.alpha * h)])  # as lfilter passes them
    if start == 0:
        tile[0] = cfg.z0
    rows = max(1, BLOCK // tile.shape[1])
    for lo in range(0, len(tile), rows):
        block = tile[lo:lo + rows]
        first = max(lo, 1 - start)  # node 0 holds z0, not a normal
        u = block[first - lo:]
        u *= scale
        if d.forcing_amp != 0:
            t_k = grid.t0 + h * np.arange(start + first - 1, start + lo + len(block) - 1)
            u += (d.alpha * h * d.target(t_k))[:, None]
        block[:], state[:] = _linear_filter(b, a, block, 0, state)
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            return start + lo + int(np.argmin(finite))
    return None


def simulate_pair_ensemble(cfg1: NoiseChannelConfig, cfg2: NoiseChannelConfig,
                           grid: PathGrid, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both channels for many seeds; each result has shape (len(seeds), n + 1).

    Row k of channel i depends only on ``cfg_i``, ``grid`` and
    ``seeds[k]``: it reads stream 0 on a shared driver and stream i on an
    independent one, so two shared channels with the same config and seed
    produce identical paths.  The results are transposed views of the
    time-major paths, drawn as one span of :func:`_spans`.  Raises
    :class:`BlowUpError` at the first grid node where either channel of
    any row is non-finite.
    """
    x1, x2 = next(_spans((cfg1, cfg2), grid, seeds, 0, grid.n + 1, None))
    return x1.T, x2.T


def _ensemble(job, pair_config: PairConfig, grid: PathGrid, seeds: np.ndarray, start: int,
              *columns: np.ndarray) -> np.ndarray:
    """``job`` run on each block of the ensemble's noise; the results joined in seed order.

    The seeds are cut into blocks of ``min(SEED_CHUNK, ceil(seeds /
    workers))``, one worker per CPU this process may run on.  ``job`` is
    called as ``job(tiles, *block_columns)``: ``tiles`` are the block's
    :func:`_spans` from ``start`` on, ``_SPAN`` nodes at a time, and
    ``block_columns`` the block's slice of each of ``columns``, per-seed
    arrays along the last axis.  It returns an array whose last axis is
    the block's seeds, and these are concatenated along it.  With more
    than one block and worker, block k runs in :func:`_forked` helper
    k mod workers, one helper per worker, and this process runs none.

    Each block runs until its first :class:`BlowUpError`; then the one of
    the earliest time tile is raised, a noise failure before an orbit
    failure of that tile, then the smallest node.  That is the error one
    block of all the seeds raises, since a tile's noise is drawn before
    its nodes are stepped, so neither the worker count nor ``SEED_CHUNK``
    changes it, and, each seed's streams being its own, nor any result.
    """
    workers = len(os.sched_getaffinity(0))
    size = min(SEED_CHUNK, -(-len(seeds) // workers))
    blocks = [(seeds[lo:lo + size], *(c[..., lo:lo + size] for c in columns))
              for lo in range(0, len(seeds), size)]
    run = partial(_run_block, job, pair_config, grid, start)
    workers = min(workers, len(blocks))
    if workers > 1:
        def share(i, pipe):
            pipe.send([run(*block) for block in blocks[i::workers]])

        results = [None] * len(blocks)
        with ExitStack() as helpers:
            links = [helpers.enter_context(_forked(partial(share, i))) for i in range(workers)]
            for i, link in enumerate(links):
                results[i::workers] = _swap(link, None)
    else:
        results = [run(*block) for block in blocks]
    failures = [r for r in results if isinstance(r, tuple)]
    if failures:
        raise min(failures, key=itemgetter(1))[0]
    return np.concatenate(results, axis=-1)


def _run_block(job, pair_config: PairConfig, grid: PathGrid, start: int, seeds: np.ndarray,
               *columns: np.ndarray):
    """``job`` on one block of :func:`_ensemble`, or its failure and the failure's order.

    A failure is returned as ``(error, (tile, orbit, node))``: the first
    node of its time tile, whether the orbit (not the noise) failed, and
    its grid node.  An orbit's steps count from ``start``; the noise's
    nodes from 0.
    """
    tiles = _spans(pair_config, grid, seeds, start, _SPAN, None)
    try:
        return job(tiles, *columns)
    except BlowUpError as err:
        orbit = tiles.gi_frame is not None  # a noise failure ends the tile generator
        node = err.step_index + start * orbit
        first = start if node >= start else 0
        return err, (node - (node - first) % _SPAN, orbit, node)


def _gather(nodes: np.ndarray, tiles) -> np.ndarray:
    """Both channels at grid ``nodes``, node-major (2, len(nodes), seeds).

    A job of :func:`_ensemble`.  The tiles start at the smallest node;
    each node's values are taken from the tile that holds it.
    """
    k0, heres, values = nodes.min(), [], []
    for tile in tiles:
        here = np.flatnonzero((k0 <= nodes) & (nodes < k0 + tile.shape[1]))
        heres.append(here)
        values.append(tile[:, nodes[here] - k0])
        k0 += tile.shape[1]
    at = np.empty((2, len(nodes), tile.shape[2]))
    at[:, np.concatenate(heres)] = np.concatenate(values, axis=1)
    return at


def _noise_at(pair_config: PairConfig, grid: PathGrid, seeds: np.ndarray, nodes) -> np.ndarray:
    """Both channels of the ensemble at grid ``nodes``, node-major (2, len(nodes), len(seeds)).

    The values are gathered tile by tile, drawn from the smallest node on,
    so only one tile of each channel is held per block, and each node's
    values lie contiguous.
    """
    nodes = np.asarray(nodes)
    return _ensemble(partial(_gather, nodes), pair_config, grid, seeds, int(nodes.min()))


def simulate_pair(cfg1: NoiseChannelConfig, cfg2: NoiseChannelConfig,
                  grid: PathGrid, seed: int) -> tuple[PathSample, PathSample]:
    """One-seed view of :func:`simulate_pair_ensemble`: row 0 of each channel."""
    x1, x2 = next(_spans((cfg1, cfg2), grid, [seed], 0, grid.n + 1, None))
    return PathSample(grid=grid, values=x1[:, 0]), PathSample(grid=grid, values=x2[:, 0])


def _moments(tile: np.ndarray) -> tuple[float, float]:
    """The means of x and x^2 over a one-seed channel ``tile`` (a reduce of :func:`_spans`)."""
    x = tile[:, 0]
    return np.mean(x), np.mean(x * x)


def _mean_and_se(means: np.ndarray) -> tuple[float, float]:
    """Mean of batch means and its batch-means standard error."""
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(len(means)))


def estimate_ergodic_stats(cfg1: NoiseChannelConfig, cfg2: NoiseChannelConfig,
                           grid: PathGrid, seed: int,
                           burn_in_periods: int, batches: int) -> ErgodicStats:
    """Time averages of xi_i, xi_i^2 and xi_1 xi_2 with batch-means errors.

    The averages are over the pair ``simulate_pair(cfg1, cfg2, grid, seed)``,
    drawn one span at a time and never held whole.  The period is channel
    1's tau, ``cfg1.drift.tau``, which must be a multiple of the grid step.
    The first ``burn_in_periods`` whole periods are discarded; the rest of
    the path is split into ``batches`` equal blocks, one span each, so that
    each batch mean sees the same array as over the whole path.  The fewer
    than ``batches`` nodes left at the end are drawn only to be checked
    for blow-up.  The path must span at least
    ``burn_in_periods + batches`` whole periods (one period per batch).
    Raises :class:`BlowUpError` at the first node where either channel is
    non-finite.  On two or more CPUs each span is split by channel
    (:func:`_spans`).
    """
    stride = period_stride(cfg1.drift.tau, grid.h)
    periods = grid.n // stride
    if periods < burn_in_periods + batches:
        raise SampleLengthError(
            f"sample covers {periods} whole periods; "
            f"need >= {burn_in_periods + batches} (burn-in + batches)")
    start = burn_in_periods * stride
    block = (grid.n + 1 - start) // batches
    # rows: means of xi_1, xi_1^2, xi_2, xi_2^2, xi_1 xi_2 over each batch
    means = np.empty((5, batches))
    with closing(_spans((cfg1, cfg2), grid, [seed], start, block, _moments)) as spans:
        for k, (tiles, (moments1, moments2)) in enumerate(spans):
            if k < batches:  # the spans after the last batch hold the trailing nodes
                x1, x2 = tiles[:, :, 0]
                means[:, k] = (*moments1, *moments2, np.mean(x1 * x2))
    (mean1, se_mean1), (c1, se_c1), (mean2, se_mean2), (c2, se_c2), (c12, se_c12) = \
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
    bit for bit, gathered tile by tile by :func:`_noise_at`.
    """
    if len(seeds) < 2:
        raise ValueError("need at least 2 ensemble members")
    at_s, at_lag = _noise_at((config, config), grid, seeds,
                             [grid.index_of(s), grid.index_of(s + lag)])[0]
    stat = ks_statistic(at_s, at_lag)
    crit = ks_critical_value(len(seeds), len(seeds))
    return KSReport(statistic=stat, critical_value=crit, n=len(seeds), s=s, lag=lag)
