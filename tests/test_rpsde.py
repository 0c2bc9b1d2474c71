import dataclasses
import functools
import os
import pickle
import subprocess
import sys
import tracemalloc
from importlib.machinery import PathFinder
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.signal import lfilter

from stochpend import (
    NoiseChannelConfig,
    PathGrid,
    PeriodicDriftSpec,
    SampleLengthError,
    estimate_ergodic_stats,
    grid_for_periods,
    ks_critical_value,
    ks_statistic,
    law_periodicity_check,
    simulate_pair,
    simulate_pair_ensemble,
)
from stochpend.errors import BlowUpError
from stochpend import rpsde
from stochpend.rpsde import _ensemble, _filter_tile, _load_linear_filter, _noise_at, _spans
from stochpend.rng import BLOCK, ensemble_seeds, philox, standard_normals

from conftest import default_noise_pair, set_workers


# ---------------------------------------------------------------------------
# drift


def test_drift_periodicity(rng):
    spec = PeriodicDriftSpec(tau=0.7, alpha=1.3, forcing_amp=2.0, forcing_phase=0.4)
    t = rng.uniform(-5, 5, 200)
    np.testing.assert_allclose(spec.target(t + spec.tau), spec.target(t),
                               rtol=0, atol=1e-12)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        PeriodicDriftSpec(tau=-1.0, alpha=1.0)
    with pytest.raises(ValueError):
        PeriodicDriftSpec(tau=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=1.0), beta=0.0)
    with pytest.raises(ValueError):
        NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=1.0), beta=1.0,
                           driver="other")
    with pytest.raises(ValueError):
        PathGrid(t0=0.0, h=-0.1, n=10)


# ---------------------------------------------------------------------------
# simulation


def test_deterministic_replay(pair_config):
    cfg1, cfg2 = pair_config
    cfg2 = dataclasses.replace(cfg2, z0=0.4, driver="independent")
    grid = PathGrid(0.0, 0.001, 2000)
    a = simulate_pair(cfg1, cfg2, grid, seed=5)
    b = simulate_pair(cfg1, cfg2, grid, seed=5)
    for pa, pb, cfg in zip(a, b, (cfg1, cfg2)):
        assert np.array_equal(pa.values, pb.values)
        assert pa.values[0] == cfg.z0


def test_shared_channels_identical(ou_config):
    grid = PathGrid(0.0, 0.001, 2000)
    p1, p2 = simulate_pair(ou_config, ou_config, grid, seed=9)
    assert np.array_equal(p1.values, p2.values)


def test_pair_marginals_match_single(pair_config):
    # channel i's path depends only on cfg_i and the seed
    grid = PathGrid(0.0, 0.001, 1500)
    for driver, other_driver in (("shared", "independent"), ("independent", "shared")):
        cfg1, cfg2 = (dataclasses.replace(c, driver=driver) for c in pair_config)
        other = NoiseChannelConfig(
            drift=PeriodicDriftSpec(tau=1.0, alpha=3.0, forcing_amp=1.5, forcing_phase=0.2),
            beta=0.3, z0=-0.7, driver=other_driver)
        p1, p2 = simulate_pair(cfg1, cfg2, grid, seed=3)
        assert np.array_equal(p1.values, simulate_pair(cfg1, other, grid, seed=3)[0].values)
        assert np.array_equal(p2.values, simulate_pair(other, cfg2, grid, seed=3)[1].values)


def test_independent_channels_differ():
    cfg = NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=1.0),
                             beta=1.0, driver="independent")
    grid = PathGrid(0.0, 0.001, 1000)
    p1, p2 = simulate_pair(cfg, cfg, grid, seed=4)
    assert not np.array_equal(p1.values, p2.values)


def test_independent_increments_uncorrelated():
    cfg = NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=1.0),
                             beta=1.0, driver="independent")
    n = 100000
    grid = PathGrid(0.0, 0.001, n)
    p1, p2 = simulate_pair(cfg, cfg, grid, seed=12)
    d1 = np.diff(p1.values)
    d2 = np.diff(p2.values)
    corr = np.corrcoef(d1, d2)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_shared_driver_paths_converge():
    # same relaxation driven by one Wiener stream from different starts
    drift = PeriodicDriftSpec(tau=1.0, alpha=1.0)
    cfg_a = NoiseChannelConfig(drift=drift, beta=1.0, z0=2.0, driver="shared")
    cfg_b = NoiseChannelConfig(drift=drift, beta=1.0, z0=-2.0, driver="shared")
    grid = grid_for_periods(1.0, 40, 500)
    p1, p2 = simulate_pair(cfg_a, cfg_b, grid, seed=2)
    tail1 = p1.values[-5000:]
    tail2 = p2.values[-5000:]
    assert np.corrcoef(tail1, tail2)[0, 1] > 0.999999
    assert np.abs(tail1 - tail2).max() < 1e-10


def test_decay_oracle_matches_ode():
    # negligible diffusion: Euler relaxation toward 0 from z0 = 1
    cfg = NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=1.0),
                             beta=1e-300, z0=1.0)
    h = 1e-3
    grid = PathGrid(0.0, h, 1000)
    path, _ = simulate_pair(cfg, cfg, grid, seed=1)
    assert path.values[-1] == pytest.approx(np.exp(-1.0), abs=2 * h)


def test_strong_order_monitor(ou_config):
    # Refine one Brownian path (coarse increments = sums of fine ones) and
    # compare Euler endpoints across step sizes.  Monitored as a band, not
    # a sharp constant.
    alpha, beta = ou_config.drift.alpha, ou_config.beta
    horizon = 2.0
    n_fine = 2048

    def em_endpoint(dw, h):
        x = 0.0
        for w in dw:
            x = (1.0 - alpha * h) * x + beta * w
        return x

    gaps = {1: [], 2: [], 4: []}
    for seed in range(20):
        dw = np.sqrt(horizon / n_fine) * standard_normals(philox(seed, 0), n_fine,
                                                          np.empty(n_fine))
        ends = {}
        for factor in (1, 2, 4):
            dw_c = dw.reshape(-1, factor).sum(axis=1)
            ends[factor] = em_endpoint(dw_c, factor * horizon / n_fine)
        gaps[2].append(abs(ends[2] - ends[1]))
        gaps[4].append(abs(ends[4] - ends[1]))
    mean2 = np.mean(gaps[2])
    mean4 = np.mean(gaps[4])
    # additive noise: strong order 1.0, so tripling the removed step error
    assert mean4 > mean2
    assert mean4 < 0.05


# ---------------------------------------------------------------------------
# ergodic statistics


def test_ou_stationary_variance_oracle(ou_config):
    grid = grid_for_periods(1.0, 1200, 1000)
    st = estimate_ergodic_stats(ou_config, ou_config, grid, 21,
                                burn_in_periods=100, batches=16)
    assert abs(st.c1 - 1.0) <= 3.0 * st.se_c1
    assert abs(st.mean1) <= 3.0 * st.se_mean1
    assert abs(st.mean2) <= 3.0 * st.se_mean2


def test_forced_channel_second_moment_oracle():
    cfg = NoiseChannelConfig(
        drift=PeriodicDriftSpec(tau=1.0, alpha=1.0, forcing_amp=2.0),
        beta=1.0)
    grid = grid_for_periods(1.0, 2100, 500)
    st = estimate_ergodic_stats(cfg, cfg, grid, 8, burn_in_periods=100, batches=16)
    assert abs(st.c1 - cfg.stationary_second_moment()) <= 4.0 * st.se_c1


def test_identical_channels_c12_equals_c1(ou_config):
    grid = grid_for_periods(1.0, 150, 200)
    st = estimate_ergodic_stats(ou_config, ou_config, grid, 30,
                                burn_in_periods=100, batches=16)
    assert st.c12 == st.c1


def test_cauchy_schwarz_on_estimates(pair_config):
    cfg1, cfg2 = pair_config
    for seed in range(5):
        grid = grid_for_periods(1.0, 130, 200)
        st = estimate_ergodic_stats(cfg1, cfg2, grid, seed, burn_in_periods=100,
                                    batches=16)
        assert st.c12**2 <= st.c1 * st.c2 * (1 + 1e-12)


def test_insufficient_length_error(ou_config):
    grid = grid_for_periods(1.0, 50, 100)
    with pytest.raises(SampleLengthError):
        estimate_ergodic_stats(ou_config, ou_config, grid, 1, burn_in_periods=100,
                               batches=16)


# ---------------------------------------------------------------------------
# law periodicity


def test_ks_statistic_matches_scipy(rng):
    a = rng.normal(size=300)
    b = rng.normal(loc=0.3, size=300)
    ours = ks_statistic(a, b)
    ref = sps.ks_2samp(a, b, method="asymp").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_critical_value_equal_samples():
    n = 2000
    assert ks_critical_value(n, n) == pytest.approx(
        np.sqrt(-np.log(0.025) / n), rel=1e-12)


def test_law_periodic_at_full_period():
    cfg = NoiseChannelConfig(
        drift=PeriodicDriftSpec(tau=1.0, alpha=1.0, forcing_amp=1.0),
        beta=0.5)
    grid = grid_for_periods(1.0, 21, 200)
    seeds = ensemble_seeds(500, 600)
    rep = law_periodicity_check(cfg, grid, seeds, s=20.0, lag=1.0)
    assert rep.passed
    assert rep.statistic < rep.critical_value


def test_law_self_comparison_zero():
    cfg = NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=1.0), beta=1.0)
    grid = grid_for_periods(1.0, 5, 100)
    seeds = ensemble_seeds(0, 50)
    rep = law_periodicity_check(cfg, grid, seeds, s=4.0, lag=0.0)
    assert rep.statistic == 0.0


def test_law_differs_at_half_period():
    # strong forcing, light noise: the mid-period law is far from the
    # law at the forcing peak
    alpha, tau = 2.0, 1.0
    omega = 2 * np.pi / tau
    cfg = NoiseChannelConfig(
        drift=PeriodicDriftSpec(tau=tau, alpha=alpha, forcing_amp=5.0),
        beta=0.1)
    grid = grid_for_periods(tau, 31, 200)
    # settled response peaks where sin(omega s - atan(omega/alpha)) = 1
    s_peak = (np.pi / 2 + np.arctan(omega / alpha)) / omega
    s = 25.0 + round(s_peak / grid.h) * grid.h
    seeds = ensemble_seeds(100, 600)
    rep = law_periodicity_check(cfg, grid, seeds, s=s, lag=0.5)
    assert not rep.passed
    assert rep.statistic > rep.critical_value


def test_law_check_needs_two_members(ou_config):
    grid = grid_for_periods(1.0, 3, 100)
    with pytest.raises(ValueError):
        law_periodicity_check(ou_config, grid, ensemble_seeds(0, 1), s=1.0, lag=1.0)


def test_ensemble_rows_match_single(pair_config):
    grid = PathGrid(0.0, 0.01, 300)
    seeds = ensemble_seeds(40, 5)
    for driver in ("shared", "independent"):
        cfg1, cfg2 = (dataclasses.replace(c, driver=driver) for c in pair_config)
        x1, x2 = simulate_pair_ensemble(cfg1, cfg2, grid, seeds)
        for k, seed in enumerate(seeds):
            p1, p2 = simulate_pair(cfg1, cfg2, grid, int(seed))
            assert np.array_equal(x1[k], p1.values)
            assert np.array_equal(x2[k], p2.values)


# ---------------------------------------------------------------------------
# the generator against the literal Euler-Maruyama loop


def literal_path(cfg, grid, seed, channel):
    """x_{k+1} = (alpha h A sin(2 pi t_k / tau + phi) + beta sqrt(h) z_k)
    + (1 - alpha h) x_k, one step at a time on the channel's stream."""
    z = standard_normals(philox(int(seed), 0 if cfg.driver == "shared" else channel), grid.n,
                         np.empty(grid.n))
    d, h = cfg.drift, grid.h
    target = d.target(grid.times())
    x = [cfg.z0]
    for k in range(grid.n):
        x.append((d.alpha * h * target[k] + cfg.beta * np.sqrt(h) * z[k])
                 + (1.0 - d.alpha * h) * x[-1])
    return np.array(x)


channels = st.builds(
    lambda tau, alpha, amp, phase, beta, z0, driver: NoiseChannelConfig(
        drift=PeriodicDriftSpec(tau=tau, alpha=alpha, forcing_amp=amp,
                                forcing_phase=phase),
        beta=beta, z0=z0, driver=driver),
    st.floats(0.2, 3.0), st.floats(0.1, 5.0), st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    st.floats(-np.pi, np.pi), st.floats(0.05, 2.0), st.floats(-3.0, 3.0),
    st.sampled_from(["shared", "independent"]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cfg1=channels, cfg2=channels, t0=st.floats(-5.0, 5.0),
       h=st.floats(1e-4, 0.05), n=st.integers(1, 300),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
# a path longer than one generator block, forced on channel 1 only
@example(cfg1=NoiseChannelConfig(PeriodicDriftSpec(0.7, 1.3, 0.9, 0.4), beta=0.5, z0=0.2),
         cfg2=NoiseChannelConfig(PeriodicDriftSpec(1.0, 2.0), beta=0.8, z0=-0.1,
                                 driver="independent"),
         t0=-1.5, h=0.001, n=BLOCK + 9, seeds=[2**64 - 1])
def test_generator_matches_literal_loop(cfg1, cfg2, t0, h, n, seeds):
    grid = PathGrid(t0=t0, h=h, n=n)
    x1, x2 = simulate_pair_ensemble(cfg1, cfg2, grid, seeds)
    assert x1.shape == x2.shape == (len(seeds), n + 1)
    for k, seed in enumerate(seeds):
        assert np.array_equal(x1[k], literal_path(cfg1, grid, seed, 1))
        assert np.array_equal(x2[k], literal_path(cfg2, grid, seed, 2))


@pytest.mark.parametrize("driver", ["shared", "independent"])
def test_generator_peak_memory_within_twice_output(pair_config, driver):
    cfg1, cfg2 = (dataclasses.replace(c, driver=driver) for c in pair_config)
    seeds = ensemble_seeds(0, 50)
    simulate_pair_ensemble(cfg1, cfg2, PathGrid(0.0, 0.001, 10), seeds[:2])
    tracemalloc.start()
    try:
        x1, x2 = simulate_pair_ensemble(cfg1, cfg2, PathGrid(0.0, 0.001, 4000), seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * (x1.nbytes + x2.nbytes)


def batch_means_of_paths(x1, x2, stride, burn_in_periods, batches):
    """The batch-means estimate over two whole paths, one slice per batch."""
    n = len(x1) - 1
    start = burn_in_periods * stride
    block = (n + 1 - start) // batches
    means = np.empty((5, batches))
    for k in range(batches):
        a = x1[start + k * block:start + (k + 1) * block]
        b = x2[start + k * block:start + (k + 1) * block]
        means[:, k] = np.mean(a), np.mean(b), np.mean(a * a), np.mean(b * b), np.mean(a * b)
    mean_se = [(float(m.mean()), float(m.std(ddof=1) / np.sqrt(batches))) for m in means]
    return (*(m for m, _ in mean_se), *(se for _, se in mean_se),
            burn_in_periods, n // stride - burn_in_periods)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(driver=st.sampled_from(["shared", "independent"]),
       amp=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
       z0=st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0)),
       h=st.floats(0.01, 0.2), stride=st.integers(1, 6),
       # 0, or more periods than one batch holds
       burn_in=st.one_of(st.just(0), st.integers(4, 8)),
       batches=st.integers(8, 20), block_periods=st.integers(1, 3),
       extra=st.integers(0, 5), trailing=st.integers(1, 19),
       # generator blocks shorter than a span, so that spans cross them
       block=st.sampled_from([BLOCK, 5, 16]),
       # both channels in this process, or channel 2 in a forked helper
       workers=st.sampled_from([1, 2]))
def test_streamed_stats_equal_batch_means_of_the_path(driver, amp, z0, h, stride, burn_in,
                                                       batches, block_periods, extra,
                                                       trailing, block, workers):
    tau = stride * h
    cfg1 = NoiseChannelConfig(PeriodicDriftSpec(tau, 1.3, amp, 0.4), beta=0.5, z0=z0,
                              driver=driver)
    cfg2 = NoiseChannelConfig(PeriodicDriftSpec(tau, 2.0, amp / 2), beta=0.8, z0=-z0 / 3,
                              driver=driver)
    # a batch of block_periods whole periods plus `extra` nodes, and
    # 1 .. batches - 1 nodes left over after the last batch
    width = block_periods * stride + extra
    trailing = 1 + (trailing - 1) % (batches - 1)
    grid = PathGrid(0.0, h, burn_in * stride + batches * width + trailing - 1)
    seed = 2**64 - 7
    expected = batch_means_of_paths(literal_path(cfg1, grid, seed, 1),
                                    literal_path(cfg2, grid, seed, 2),
                                    stride, burn_in, batches)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("stochpend.rng.BLOCK", block)
        mp.setattr("stochpend.rpsde.BLOCK", block)
        set_workers(mp, workers)
        if workers == 1:  # one CPU: both channels in this process, with no fork
            mp.setattr(os, "fork", None)
        stats = estimate_ergodic_stats(cfg1, cfg2, grid, seed,
                                       burn_in_periods=burn_in, batches=batches)
    assert dataclasses.astuple(stats) == expected


def traced_peak(f, *args, **kwargs):
    """``f``'s result and the peak of memory traced while it runs."""
    tracemalloc.start()
    try:
        result = f(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("forcing_amp", [0.0, 1.5])
def test_pair_and_stats_peak_within_output_and_a_few_blocks(pair_config, one_worker,
                                                             forcing_amp):
    cfg1, cfg2 = (dataclasses.replace(c, driver="shared", drift=dataclasses.replace(
        c.drift, forcing_amp=forcing_amp)) for c in pair_config)
    grid = grid_for_periods(1.0, 17, 8192)
    assert grid.n >= 4 * BLOCK
    simulate_pair(cfg1, cfg2, PathGrid(0.0, 0.001, 10), seed=1)
    pair, peak = traced_peak(simulate_pair, cfg1, cfg2, grid, seed=3)
    assert peak <= sum(p.values.nbytes for p in pair) + 4 * BLOCK * 8
    # the streamed estimate holds a batch of each channel and one product of
    # them, not the path: at a fixed batch length, more periods cost no memory
    spp = 2 * BLOCK + 3
    peaks = []
    for batches in (8, 24):
        grid = grid_for_periods(1.0, 1 + batches, spp)
        _, peak = traced_peak(estimate_ergodic_stats, cfg1, cfg2, grid, 3,
                              burn_in_periods=1, batches=batches)
        assert peak <= 3 * spp * 8 + 4 * BLOCK * 8
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 4096  # the batch means and span edges grow


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("unstable", [1, 2])
def test_generator_blowup_names_first_non_finite_node(pair_config, monkeypatch, unstable,
                                                       workers):
    """The ensemble names the first node non-finite in any row, and one
    seed's streamed estimate its own first, whichever process filters the
    channel that overflows."""
    # alpha h = 3, so |1 - alpha h| = 2 and the paths overflow near step 1025
    h = 0.01
    wild = NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=3.0 / h),
                              beta=1.0, driver="independent")
    cfgs = list(pair_config)
    cfgs[unstable - 1] = wild
    grid = PathGrid(0.0, h, 2000)
    seeds = ensemble_seeds(3, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.array([literal_path(wild, grid, s, unstable) for s in seeds])
    finite = np.isfinite(rows).all(axis=0)
    first = int(np.argmin(finite))
    assert not finite.all() and 1000 < first < 1100
    assert np.isfinite(rows[:, :first]).all()
    set_workers(monkeypatch, workers)
    with pytest.raises(BlowUpError) as err:
        simulate_pair_ensemble(*cfgs, grid, seeds)
    assert err.value.step_index == first
    with pytest.raises(BlowUpError) as err, np.errstate(over="ignore", invalid="ignore"):
        estimate_ergodic_stats(*cfgs, grid, int(seeds[0]), burn_in_periods=0, batches=8)
    assert err.value.step_index == int(np.argmin(np.isfinite(rows[0])))


@pytest.mark.parametrize("where", ["batch", "trailing"])
def test_streamed_stats_blowup_names_first_non_finite_node(pair_config, where):
    # as above: channel 2 overflows near node 1025, here in the middle of
    # a batch or among the nodes after the last batch
    h = 0.01
    wild = NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=3.0 / h),
                              beta=1.0, driver="independent")
    with np.errstate(over="ignore", invalid="ignore"):
        first = int(np.argmin(np.isfinite(literal_path(wild, PathGrid(0.0, h, 2000), 4, 2))))
    assert 1000 < first < 1100
    if where == "batch":
        tau, n, batches = 1.0, 2000, 8
    else:
        # stride 1 and the last batch ending just before the first bad node
        tau, n = h, first
        batches = next(b for b in range(8, 20) if n % b != b - 1)
        assert batches * ((n + 1) // batches) <= first
    cfg1 = dataclasses.replace(pair_config[0], drift=dataclasses.replace(
        pair_config[0].drift, tau=tau))
    wild = dataclasses.replace(wild, drift=dataclasses.replace(wild.drift, tau=tau))
    with pytest.raises(BlowUpError) as err, np.errstate(over="ignore", invalid="ignore"):
        estimate_ergodic_stats(cfg1, wild, PathGrid(0.0, h, n), 4,
                               burn_in_periods=0, batches=batches)
    assert err.value.step_index == first


@pytest.mark.parametrize("lag, other", [(1.0, 2200), (-0.75, 1850)],
                         ids=["positive-lag", "negative-lag"])
def test_law_check_holds_tiles_not_the_ensemble(monkeypatch, one_worker, lag, other):
    """Tiles of 64 nodes by 128 seeds, not the 400 x 2 401 ensemble of one
    channel, and the statistic of the two columns of the whole ensemble, in
    the order (s, s + lag): at a negative lag the earlier node is gathered
    too."""
    cfg = NoiseChannelConfig(
        drift=PeriodicDriftSpec(tau=1.0, alpha=1.0, forcing_amp=1.0), beta=0.5)
    grid = grid_for_periods(1.0, 12, 200)
    seeds = ensemble_seeds(7, 400)
    x1, _ = simulate_pair_ensemble(cfg, cfg, grid, seeds)
    monkeypatch.setattr("stochpend.rpsde._SPAN", 64)
    monkeypatch.setattr("stochpend.rpsde.SEED_CHUNK", 128)
    law_periodicity_check(cfg, PathGrid(0.0, 0.01, 10), seeds[:2], s=0.0, lag=0.0)
    tracemalloc.start()
    try:
        rep = law_periodicity_check(cfg, grid, seeds, s=10.0, lag=lag)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(seeds) * (grid.n + 1) * 8
    assert rep.lag == lag
    assert rep.statistic == ks_statistic(x1[:, 2000], x1[:, other]) > 0


# ---------------------------------------------------------------------------
# the ensemble's tile stream


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), where=st.sampled_from(["zero", "mid", "end"]),
       span=st.integers(1, 9), chunk=st.integers(1, 4), block=st.integers(1, 40),
       m=st.integers(1, 6), driver=st.sampled_from(["shared", "independent"]),
       forced=st.booleans())
# nine nodes in tiles of four: two full tiles and a one-node tile
@example(n=8, where="zero", span=4, chunk=2, block=8, m=3, driver="independent", forced=True)
# eight nodes in tiles of four: two exactly full tiles
@example(n=7, where="zero", span=4, chunk=2, block=8, m=3, driver="shared", forced=False)
def test_noise_chunk_tiles_concatenate_to_the_whole_paths(n, where, span, chunk, block, m,
                                                          driver, forced):
    """The disjoint tiles of each seed block, read in order, are nodes
    ``start`` .. n of the whole-path ensemble, bit for bit, whatever the
    span, chunk and block sizes."""
    pair = tuple(dataclasses.replace(c, driver=driver) for c in default_noise_pair())
    if forced:
        pair = tuple(dataclasses.replace(c, drift=dataclasses.replace(
            c.drift, forcing_amp=amp, forcing_phase=0.3)) for c, amp in zip(pair, (0.5, 0.2)))
    grid = PathGrid(0.0, 0.01, n)
    seeds = ensemble_seeds(5, m)
    start = {"zero": 0, "mid": n // 2, "end": n}[where]
    whole = simulate_pair_ensemble(*pair, grid, seeds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("stochpend.rpsde._SPAN", span)
        mp.setattr("stochpend.rpsde.SEED_CHUNK", chunk)
        mp.setattr("stochpend.rpsde.BLOCK", block)
        got = _ensemble(functools.partial(joined_tiles, span), pair, grid, seeds, start)
    for x, g in zip(whole, got):
        assert np.ascontiguousarray(g.T).tobytes() == x[:, start:].tobytes()


def joined_tiles(span, tiles):
    """A block's tiles joined along time, (2, nodes, seeds), after checking
    that each is ``span`` nodes long but the last, which holds 1 .. ``span``."""
    tiles = [tile.copy() for tile in tiles]
    lengths = [tile.shape[1] for tile in tiles]
    assert all(length == span for length in lengths[:-1])
    assert 1 <= lengths[-1] <= span
    return np.concatenate(tiles, axis=1)


def _chunk_blowup(span, block, chunk, driver):
    """The first non-finite node of each wild channel for each seed, and
    the node at which the ensemble's noise fails."""
    # |1 - alpha h| = 2 and 2.05: the paths overflow near nodes 1 029 and 993
    h = 0.01
    wild1, wild2 = (NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=r / h),
                                       beta=1.0, driver=driver) for r in (3.0, 3.05))
    tame = dataclasses.replace(default_noise_pair()[0], driver="independent")
    grid = PathGrid(0.0, h, 2000)
    seeds = ensemble_seeds(2, 5)

    def first_bad(cfg1, cfg2, seed):
        with pytest.raises(BlowUpError) as err, np.errstate(over="ignore", invalid="ignore"):
            simulate_pair(cfg1, cfg2, grid, int(seed))
        return err.value.step_index

    # each wild channel beside a tame one that reads a stream of its own
    firsts = [[first_bad(wild1, tame, s) for s in seeds],
              [first_bad(tame, wild2, s) for s in seeds]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("stochpend.rpsde._SPAN", span)
        mp.setattr("stochpend.rpsde.BLOCK", block)
        mp.setattr("stochpend.rpsde.SEED_CHUNK", chunk)
        with pytest.raises(BlowUpError) as err, np.errstate(over="ignore", invalid="ignore"):
            _noise_at((wild1, wild2), grid, seeds, [0])  # draws every tile
    return firsts, err.value.step_index


@pytest.mark.parametrize("span, block, driver", [(2048, BLOCK, "independent"), (2048, 64, "shared"),
                                                 (100, 64, "independent")],
                         ids=["one-tile", "small-blocks", "channel-2-tile-first"])
def test_chunk_blowup_names_smallest_first_node_over_seeds(span, block, driver):
    """Five seeds share each tile.  Channel 1 overflows first in seed 2, not
    seed 0, and channel 2 earlier still, in the same tile or an earlier one.
    The smallest first non-finite node over both channels and the seeds is
    raised."""
    firsts, got = _chunk_blowup(span, block, 5, driver)
    assert np.argmin(firsts[0]) != 0 and min(firsts[1]) < min(firsts[0])
    assert got == min(firsts[1])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(span=st.integers(1, 2100), block=st.one_of(st.just(BLOCK), st.integers(1, 64)),
       chunk=st.integers(1, 5), driver=st.sampled_from(["shared", "independent"]))
def test_chunk_blowup_holds_for_any_span_block_and_chunk(span, block, chunk, driver):
    """The ensemble's noise fails at the smallest first non-finite node over
    both channels and all the seeds, whatever the span, the block, the
    driver and the seed blocks that the chunk and the workers cut: each
    block runs to its first failure, and the earliest is raised."""
    firsts, got = _chunk_blowup(span, block, chunk, driver)
    assert got == min(map(min, firsts))


def failing_job(tiles, fail_at):
    """Read the tiles and fail as an orbit does at step ``min(fail_at)``,
    counted from the first tile, in the tile that holds it."""
    nodes = 0
    for tile in tiles:
        nodes += tile.shape[1]
        if fail_at.min() < nodes:
            raise BlowUpError(int(fail_at.min()))
    return np.zeros_like(fail_at)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(span=st.integers(2, 300), chunk=st.integers(1, 6), workers=st.integers(1, 2),
       start=st.sampled_from([0, 250]), fail_at=st.lists(st.integers(1, 1200), min_size=6,
                                                          max_size=6))
# the noise of seeds 2 .. 4 fails at node 1 028 and that of seed 0 at 1 030;
# seed 0's orbit fails at node 1 028, in the two-node tile whose noise fails
# for seeds 2 .. 4.  One block of all the seeds draws that noise before it
# steps the tile, so the noise failure is raised, whichever block is first.
@example(span=2, chunk=1, workers=2, start=0, fail_at=[1028] + [1200] * 5)
@example(span=2, chunk=1, workers=2, start=250, fail_at=[778] + [1200] * 5)
def test_ensemble_raises_the_error_of_one_block(span, chunk, workers, start, fail_at):
    """Noise that overflows near node 1 029 and orbits that fail at a step
    of their seed's own, in seed blocks on one or two workers: the error
    raised is the one of one block of all the seeds, the earliest tile's,
    a noise failure before an orbit failure of that tile."""
    h = 0.01
    wild = NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=3.0 / h), beta=1.0,
                              driver="independent")
    pair = (wild, default_noise_pair()[1])
    grid = PathGrid(0.0, h, 2000)
    seeds = ensemble_seeds(2, 6)

    def error():
        with pytest.raises(BlowUpError) as err, np.errstate(over="ignore", invalid="ignore"):
            _ensemble(failing_job, pair, grid, seeds, start, np.array(fail_at))
        return err.value.step_index, str(err.value)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("stochpend.rpsde._SPAN", span)
        set_workers(mp, 1)
        mp.setattr("stochpend.rpsde.SEED_CHUNK", len(seeds))
        whole = error()
        set_workers(mp, workers)
        mp.setattr("stochpend.rpsde.SEED_CHUNK", chunk)
        assert error() == whole


@pytest.mark.parametrize("args, message", [
    ((780,), "non-finite state at grid step 780"),
    ((780, "noise path non-finite at grid step 780"), "noise path non-finite at grid step 780"),
], ids=["step", "step-and-message"])
def test_blowup_error_pickles_with_its_step_and_message(args, message):
    """A worker's blow-up reaches the parent as it was raised."""
    back = pickle.loads(pickle.dumps(BlowUpError(*args)))
    assert type(back) is BlowUpError
    assert back.step_index == 780
    assert str(back) == message


# ---------------------------------------------------------------------------
# the recurrence kernel


def _through(kernel, draw):
    """``draw()`` with ``kernel`` as the recurrence kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("stochpend.rpsde._linear_filter", kernel)
        return draw()


@pytest.mark.parametrize("m", [1, 500], ids=["1-seed", "500-seeds"])
@pytest.mark.parametrize("forcing_amp", [0.0, 0.7], ids=["A=0", "A!=0"])
@pytest.mark.parametrize("driver", ["shared", "independent"])
def test_kernel_matches_lfilter_bit_for_bit(driver, forcing_amp, m):
    """The loaded kernel and ``scipy.signal.lfilter`` give the same tiles and
    carried filter states, bit for bit, with the state carried across
    blocks (``BLOCK`` 8, so a block holds 8 rows or one) and across spans
    of 17 nodes, from a burn-in start."""
    pair = tuple(dataclasses.replace(c, driver=driver, drift=dataclasses.replace(
        c.drift, forcing_amp=forcing_amp, forcing_phase=0.3)) for c in default_noise_pair())
    grid = PathGrid(0.1, 0.01, 60)
    seeds = ensemble_seeds(3, m)

    def draw():
        tiles = [t.copy() for t in _spans(pair, grid, seeds, 5, 17, None)]
        z = np.random.default_rng(1).standard_normal((grid.n + 1, m))
        state, states = np.zeros((1, m)), []
        for lo in range(0, grid.n + 1, 17):
            assert _filter_tile(pair[0], z[lo:lo + 17], grid, lo, state) is None
            states.append(state.copy())
        return [x.tobytes() for x in (*tiles, z, *states)]

    assert rpsde._linear_filter is not lfilter
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("stochpend.rpsde.BLOCK", 8)
        assert _through(rpsde._linear_filter, draw) == _through(lfilter, draw)


@pytest.mark.parametrize("driver", ["shared", "independent"])
def test_kernel_and_lfilter_name_the_same_blowup_node(pair_config, driver):
    # alpha h = 3, so |1 - alpha h| = 2 and channel 2 overflows near node 1025
    h = 0.01
    wild = NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=3.0 / h),
                              beta=1.0, driver=driver)
    grid = PathGrid(0.0, h, 2000)

    def draw():
        with pytest.raises(BlowUpError) as err, np.errstate(over="ignore", invalid="ignore"):
            simulate_pair_ensemble(pair_config[0], wild, grid, ensemble_seeds(3, 3))
        return err.value.step_index

    node = _through(rpsde._linear_filter, draw)
    assert 1000 < node < 1100 and node == _through(lfilter, draw)


def test_loader_falls_back_to_lfilter_without_the_kernel_file(monkeypatch, pair_config):
    """Where the finder sees no ``_sigtools`` file the loader returns
    ``lfilter``, and the noise keeps its bytes; otherwise it returns the
    kernel that a later ``import scipy.signal`` uses too."""
    lfilter_kernel = sys.modules["scipy.signal._signaltools"]._sigtools._linear_filter
    assert _load_linear_filter() is rpsde._linear_filter is lfilter_kernel
    monkeypatch.setattr(PathFinder, "find_spec", lambda *args, **kwargs: None)
    fallback = _load_linear_filter()
    monkeypatch.undo()
    assert fallback is lfilter
    grid, seeds = PathGrid(0.0, 0.01, 300), ensemble_seeds(4, 7)

    def draw():
        return [x.tobytes() for x in simulate_pair_ensemble(*pair_config, grid, seeds)]

    assert _through(fallback, draw) == _through(rpsde._linear_filter, draw)


def test_cli_import_leaves_scipy_signal_out():
    """``import stochpend.cli`` never runs ``scipy/signal/__init__.py`` (about
    1 s); a later ``scipy.signal`` import works and its ``lfilter`` matches
    the kernel on one block."""
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import stochpend.cli",
        "assert 'scipy.signal' not in sys.modules, 'scipy.signal was imported'",
        "from stochpend.rpsde import _linear_filter",
        "from scipy.signal import lfilter",
        "x = np.random.default_rng(0).standard_normal((64, 500))",
        "b, a, zi = np.ones(1), np.array([1.0, -0.99]), np.zeros((1, 500))",
        "want, got = lfilter(b, a, x, axis=0, zi=zi), _linear_filter(b, a, x, 0, zi)",
        "assert [w.tobytes() for w in want] == [g.tobytes() for g in got]",
    ])
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
