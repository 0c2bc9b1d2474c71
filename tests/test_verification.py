import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpend import (
    LambdaPoint,
    NoiseAmplitudes,
    NoiseChannelConfig,
    PeriodicDriftSpec,
    SampleLengthError,
    calibration_stats,
    chebyshev_consistency,
    equilibrium_concentration,
    exact_flow,
    exceedance_probability,
    find_equilibria,
    hamiltonian_gap,
    lambda_from_stats,
    m1m2_decomposition,
    moment_growth,
    noise_coupling,
    potential_deviation,
    separatrix_splitting_probe,
    simulate_pair,
)
from stochpend.dynamics import averaged_hamiltonian, exact_flow_ensemble, exact_hamiltonian
from stochpend.errors import BlowUpError
from stochpend.rng import BLOCK, ensemble_seeds
from stochpend.rpsde import PathGrid, grid_for_periods, simulate_pair_ensemble
from stochpend.verification import M1M2Decomposition, _sup_gaps
from stochpend.presets import default_noise_pair


@pytest.fixture(scope="module")
def quick_stats():
    return calibration_stats(default_noise_pair(), master_seed=0, steps_per_period=400)


# ---------------------------------------------------------------------------
# Hamiltonian gap


def test_gap_vanishes_without_noise(params):
    cfg = default_noise_pair()
    grid = grid_for_periods(1.0, 3, 200)
    pair = simulate_pair(*cfg, grid, seed=4)
    amps = NoiseAmplitudes(0.0, 0.0)
    traj = exact_flow((0.3, 0.2), pair, params, amps)
    gaps = hamiltonian_gap(traj, pair, LambdaPoint(0.0, 0.0), params, amps)
    assert np.all(gaps == 0.0)


def test_gap_triangle_bound(params, quick_stats):
    cfg = default_noise_pair()
    amps = NoiseAmplitudes(0.3, 0.25)
    grid = grid_for_periods(1.0, 5, 200)
    pair = simulate_pair(*cfg, grid, seed=6)
    traj = exact_flow((0.4, 0.0), pair, params, amps)
    lam = lambda_from_stats(amps, quick_stats)
    gaps = hamiltonian_gap(traj, pair, lam, params, amps)
    S = noise_coupling(traj.theta, pair[0].values, pair[1].values, amps)
    bound = (np.abs(traj.p * S) / params.l + 0.5 * S**2
             + np.abs(lam.lambda1 * np.cos(2 * traj.theta)
                      + lam.lambda2 * np.sin(2 * traj.theta)))
    assert np.all(gaps <= bound + 1e-12)


def test_mean_sup_gap_monotone_in_sigma(params, quick_stats):
    # delta sits inside the sup-gap range of both levels at this seed
    # (probabilities 0.95 and 0.1), so the comparison is not vacuous
    rep = exceedance_probability(
        0.005, [(0.1, 0.1), (0.05, 0.05)], ensemble_n=20, horizon_periods=3,
        pair_config=default_noise_pair(), initial=(0.1, 0.0),
        steps_per_period=200, master_seed=5, stats=quick_stats)
    assert rep.probs[0] > 0.0
    assert rep.probs[0] >= rep.probs[1]


def test_sup_gap_coupled_monotonicity(params, quick_stats):
    from stochpend.rpsde import simulate_pair_ensemble, PathGrid
    from stochpend.rng import ensemble_seeds
    cfg1, cfg2 = default_noise_pair()
    grid = grid_for_periods(1.0, 10, 200)
    x1, x2 = simulate_pair_ensemble(cfg1, cfg2, grid, ensemble_seeds(0, 200))
    levels = [(0.1, 0.1), (0.05, 0.05)]
    lams = [lambda_from_stats(NoiseAmplitudes(*s), quick_stats) for s in levels]
    gaps = _sup_gaps(x1.T, x2.T, grid.h, params, levels, lams, 0.1, 0.0)
    sups = dict(zip((0.1, 0.05), gaps))
    assert sups[0.1].mean() > sups[0.05].mean()


# zero, or large enough that the reference's cancellation error in
# H - Hbar stays far below 1e-12 of the gap
sigmas = st.one_of(st.just(0.0), st.floats(0.05, 0.8))
level_lists = st.lists(st.tuples(sigmas, sigmas), min_size=1, max_size=4)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 200), levels=level_lists,
       theta0=st.floats(-3.0, 3.0), p0=st.floats(-1.5, 1.5),
       convention=st.sampled_from(["derived", "paper"]))
def test_stacked_sup_gap_matches_hamiltonian_difference(params, quick_stats, seed, n,
                                                         levels, theta0, p0, convention):
    grid = PathGrid(0.0, 0.01, n)
    x1, x2 = simulate_pair_ensemble(*default_noise_pair(), grid, ensemble_seeds(seed, 3))
    lams = [lambda_from_stats(NoiseAmplitudes(*s), quick_stats, convention) for s in levels]
    gaps = _sup_gaps(x1.T, x2.T, grid.h, params, levels, lams, theta0, p0)
    for i, level in enumerate(levels):
        amps = NoiseAmplitudes(*level)
        th, p, _ = exact_flow_ensemble(theta0, p0, x1, x2, grid, params, amps)
        ref = np.abs(exact_hamiltonian(th, p, x1.T, x2.T, params, amps)
                     - averaged_hamiltonian(th, p, lams[i], params)).max(axis=0)
        np.testing.assert_allclose(gaps[i], ref, rtol=1e-12, atol=0.0)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 200), data=st.data(),
       sigma=st.floats(0.05, 0.8), zero_level_first=st.booleans())
def test_blowup_in_one_stacked_row_names_its_step(params, seed, n, data, sigma,
                                                  zero_level_first):
    grid = PathGrid(0.0, 0.01, n)
    x1, x2 = simulate_pair_ensemble(*default_noise_pair(), grid, ensemble_seeds(seed, 3))
    row = data.draw(st.integers(0, 2))
    step = data.draw(st.integers(1, n))
    # a huge noise value overflows S^2 wherever sigma > 0; the zero level stays finite
    x1[row, step] = x2[row, step] = 1e200
    levels = [(0.0, 0.0), (sigma, sigma)]
    if not zero_level_first:
        levels.reverse()
    lams = [LambdaPoint(0.0, 0.0)] * 2
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            _sup_gaps(x1.T, x2.T, grid.h, params, levels, lams, 0.1, 0.0)
    assert err.value.step_index == step


# ---------------------------------------------------------------------------
# exceedance probabilities


def test_exceedance_zero_amplitude_level(params, quick_stats):
    rep = exceedance_probability(
        0.01, [(0.0, 0.0)], ensemble_n=20, horizon_periods=2,
        pair_config=default_noise_pair(), initial=(0.2, 0.0),
        steps_per_period=100, master_seed=1, stats=quick_stats)
    assert rep.probs[0] == 0.0


def test_exceedance_reproducible_and_bounded(params, quick_stats):
    kwargs = dict(delta=0.02, sigma_levels=[(0.2, 0.2), (0.1, 0.1)],
                  ensemble_n=50, horizon_periods=3,
                  pair_config=default_noise_pair(), initial=(0.1, 0.0),
                  steps_per_period=100, master_seed=9, stats=quick_stats)
    a = exceedance_probability(**kwargs)
    b = exceedance_probability(**kwargs)
    assert np.array_equal(a.probs, b.probs)
    assert np.all((a.probs >= 0) & (a.probs <= 1))
    np.testing.assert_allclose(
        a.ci_half_widths, 1.96 * np.sqrt(a.probs * (1 - a.probs) / 50))


def test_exceedance_rejects_bad_inputs(params, quick_stats):
    with pytest.raises(ValueError):
        exceedance_probability(0.0, [(0.1, 0.1)], 10, 2,
                               default_noise_pair(), (0.1, 0.0),
                               stats=quick_stats)


# ---------------------------------------------------------------------------
# concentration inequality


def test_chebyshev_constant_below_threshold():
    c = 0.5
    decomp = M1M2Decomposition(m1_samples=np.full(100, c), m2=0.0,
                               delta_hat=np.full(100, 2 * c), delta=1.0)
    rep = chebyshev_consistency(decomp)
    assert rep.empirical == 0.0
    assert rep.passed


def test_chebyshev_constant_above_threshold():
    c = 0.5
    decomp = M1M2Decomposition(m1_samples=np.full(100, c), m2=0.0,
                               delta_hat=np.full(100, c / 2), delta=1.0)
    rep = chebyshev_consistency(decomp)
    assert rep.empirical == 1.0
    assert rep.bound == pytest.approx(4.0)
    assert rep.passed


def test_chebyshev_no_admissible_flag():
    decomp = M1M2Decomposition(m1_samples=np.ones(10), m2=5.0,
                               delta_hat=-np.ones(10), delta=0.1)
    rep = chebyshev_consistency(decomp)
    assert rep.no_admissible
    assert not rep.passed
    assert rep.n_excluded == 10


def test_chebyshev_holds_on_default_family(params, quick_stats):
    amps = NoiseAmplitudes(0.1, 0.1)
    grid = grid_for_periods(1.0, 10, 1000)
    pair = simulate_pair(*default_noise_pair(), grid, seed=3)
    traj = exact_flow((0.1, 0.0), pair, params, amps)
    decomp = m1m2_decomposition(traj, pair, quick_stats, params, amps,
                                delta=0.05)
    rep = chebyshev_consistency(decomp)
    assert rep.n_admissible + rep.n_excluded == grid.n + 1
    assert rep.n_admissible >= 1000
    assert rep.passed


def test_m1m2_without_noise_keeps_full_threshold(params, quick_stats):
    amps = NoiseAmplitudes(0.0, 0.0)
    grid = grid_for_periods(1.0, 5, 200)
    pair = simulate_pair(*default_noise_pair(), grid, seed=8)
    traj = exact_flow((1.0, 0.0), pair, params, amps)
    assert np.abs(traj.p).max() / params.l**2 > 0.05  # |thetadot| > delta
    decomp = m1m2_decomposition(traj, pair, quick_stats, params, amps,
                                delta=0.05)
    assert decomp.m2 == 0.0
    assert np.all(decomp.delta_hat == 0.05)


@pytest.mark.parametrize("amps, moment", [
    (NoiseAmplitudes(0.3, 0.0), "c1"),
    (NoiseAmplitudes(0.0, 0.3), "c2"),
])
def test_m2_single_channel_weight(params, quick_stats, amps, moment):
    grid = grid_for_periods(1.0, 1, 100)
    pair = simulate_pair(*default_noise_pair(), grid, seed=8)
    traj = exact_flow((0.1, 0.0), pair, params, amps)
    decomp = m1m2_decomposition(traj, pair, quick_stats, params, amps,
                                delta=0.05)
    assert decomp.m2 == pytest.approx(0.09 * getattr(quick_stats, moment),
                                      rel=1e-12)


@pytest.mark.parametrize("convention", ["derived", "paper"])
def test_m1m2_dominates_hamiltonian_gap(params, quick_stats, convention):
    amps = NoiseAmplitudes(0.3, 0.25)
    grid = grid_for_periods(1.0, 5, 200)
    pair = simulate_pair(*default_noise_pair(), grid, seed=6)
    traj = exact_flow((0.4, 0.0), pair, params, amps)
    lam = lambda_from_stats(amps, quick_stats, convention)
    gaps = hamiltonian_gap(traj, pair, lam, params, amps)
    delta = float(np.median(gaps))
    decomp = m1m2_decomposition(traj, pair, quick_stats, params, amps, delta)
    # delta - delta_hat = |l thetadot S| + M_2
    assert np.all(gaps <= delta - decomp.delta_hat + decomp.m1_samples + 1e-12)
    exceeds = gaps > delta
    assert exceeds.any()
    assert np.all(decomp.m1_samples[exceeds] > decomp.delta_hat[exceeds])


# ---------------------------------------------------------------------------
# moment growth


def test_moment_decay_oracle(params):
    # negligible diffusion: |xi(t)| = z0 e^{-alpha t}, so the fourth moment
    # never exceeds its initial value and the dominating slope is zero
    drift = PeriodicDriftSpec(tau=1.0, alpha=1.0)
    cfg = NoiseChannelConfig(drift=drift, beta=1e-300, z0=1.0)
    amps = NoiseAmplitudes(0.5, 0.5)
    spp = 100
    rep = moment_growth((cfg, cfg), 11, ensemble_n=16, amps=amps,
                        steps_per_period=spp, master_seed=0)
    t = rep.t
    h = 1.0 / spp
    steps = np.round(t / h).astype(int)
    exact_discrete = 0.5**4 * (1.0 - h) ** (4 * steps)
    np.testing.assert_allclose(rep.fourth1, exact_discrete, rtol=1e-12)
    # and the continuum decay within the O(h) scheme bias
    np.testing.assert_allclose(rep.fourth1, 0.5**4 * np.exp(-4.0 * t), rtol=0.03)
    assert rep.fitted_constants["C1_hat"]["dominating"] == 0.0
    assert np.all(rep.residuals["C1_hat"] >= -1e-12)


def test_moment_homogeneity_in_sigma(params):
    pair_cfg = default_noise_pair()
    small = moment_growth(pair_cfg, 6, 200, NoiseAmplitudes(0.1, 0.1),
                          steps_per_period=100, master_seed=7)
    large = moment_growth(pair_cfg, 6, 200, NoiseAmplitudes(0.2, 0.2),
                          steps_per_period=100, master_seed=7)
    mask = small.fourth1 > 0
    np.testing.assert_allclose(large.fourth1[mask] / small.fourth1[mask], 16.0,
                               rtol=1e-12)
    np.testing.assert_allclose(large.cross22[mask] / small.cross22[mask], 16.0,
                               rtol=1e-12)


def test_moment_domination_residuals(params):
    pair_cfg = default_noise_pair()
    rep = moment_growth(pair_cfg, 9, 500, NoiseAmplitudes(0.3, 0.2),
                        steps_per_period=200, master_seed=2)
    for name, res in rep.residuals.items():
        assert np.all(np.isfinite(res))
        assert np.all(res >= -1e-12), name
    for m in (rep.fourth1, rep.fourth2, rep.cross22, rep.cross31, rep.cross13):
        assert np.all(m >= 0.0)


def test_moment_times_validated(params):
    # one period of 100 steps has 101 nodes, and the fits need two of them
    for count in (1, 102):
        with pytest.raises(ValueError, match="moment_times"):
            moment_growth(default_noise_pair(), count, 10, NoiseAmplitudes(0.1, 0.1),
                          steps_per_period=100)


def test_moment_times_accept_every_node_of_their_grid():
    # h = 0.9 / 7, and 7 h exceeds tau = 0.9 by one ulp
    cfg = NoiseChannelConfig(drift=PeriodicDriftSpec(tau=0.9, alpha=1.0),
                             beta=0.5, z0=0.0)
    times = grid_for_periods(0.9, 1, 7).times()
    assert times[-1] > 0.9
    rep = moment_growth((cfg, cfg), len(times), 4, NoiseAmplitudes(0.1, 0.1),
                        steps_per_period=7)
    assert len(rep.fourth1) == 8 and np.all(np.isfinite(rep.fourth1))
    assert rep.t.tolist() == [*times[:-1], 0.9]


# ---------------------------------------------------------------------------
# potential deviation scaling


def test_deviation_slope_near_two(params, quick_stats):
    theta_grid = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    levels = [(0.2, 0.2), (0.1, 0.1), (0.05, 0.05), (0.025, 0.025)]
    rep = potential_deviation(theta_grid, levels, ensemble_n=400,
                              pair_config=default_noise_pair(),
                              burn_in_periods=20, steps_per_period=200,
                              master_seed=3, stats=quick_stats)
    # the construction is quadratic in the amplitudes, comfortably above
    # the advertised first-order decay
    assert np.all(rep.loglog_slope >= 0.9)
    assert np.all(rep.mean_abs_dev > 0.0)


def test_deviation_zero_level_reports_zero(params, quick_stats):
    theta_grid = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    levels = [(0.0, 0.0), (0.2, 0.2), (0.1, 0.1), (0.05, 0.05)]
    rep = potential_deviation(theta_grid, levels, ensemble_n=100,
                              pair_config=default_noise_pair(),
                              burn_in_periods=10, steps_per_period=100,
                              master_seed=3, stats=quick_stats)
    assert np.all(rep.mean_abs_dev[0] == 0.0)


def test_deviation_needs_three_levels(params, quick_stats):
    theta_grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    with pytest.raises(SampleLengthError):
        potential_deviation(theta_grid, [(0.1, 0.1)], 50,
                            default_noise_pair(), stats=quick_stats)


# ---------------------------------------------------------------------------
# seed chunks


def test_seed_chunks_change_no_result(params, quick_stats, monkeypatch):
    """Drawing the ensemble noise 7 seeds at a time (3 chunks of 20) gives
    the bytes of drawing it all at once, in every ensemble experiment."""
    pair = default_noise_pair()
    levels = [(0.3, 0.3), (0.15, 0.15), (0.05, 0.05)]
    theta_grid = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    e0 = next(e for e in find_equilibria(LambdaPoint(0.0, 0.0), params) if e.kind == "stable")

    def results():
        exc = exceedance_probability(0.01, levels, 20, 2, pair, (0.1, 0.0), quick_stats,
                                     params=params, steps_per_period=50,
                                     burn_in_periods=2, master_seed=3)
        dev = potential_deviation(theta_grid, levels, 20, pair, quick_stats, params=params,
                                  burn_in_periods=2, steps_per_period=50, master_seed=3)
        mom = moment_growth(pair, 11, 20, NoiseAmplitudes(0.3, 0.2),
                            steps_per_period=50, master_seed=3)
        conc = equilibrium_concentration(e0, levels, 20, 2, pair, params=params,
                                         steps_per_period=50, master_seed=3)
        split = separatrix_splitting_probe(LambdaPoint(0.0, 0.0), levels, 20, pair,
                                           params=params, horizon_periods=2,
                                           steps_per_period=50, master_seed=3)
        moments = (mom.fourth1, mom.fourth2, mom.cross22, mom.cross31, mom.cross13)
        return [a.tobytes() for a in (exc.probs, exc.ci_half_widths, dev.mean_abs_dev,
                                      dev.loglog_slope, *moments, *mom.residuals.values(),
                                      conc.radii, split.spreads)]

    whole = results()
    monkeypatch.setattr("stochpend.rpsde.SEED_CHUNK", 7)
    assert results() == whole


def test_moment_growth_holds_one_chunk_of_noise(monkeypatch):
    """The ensemble's noise is held one chunk at a time: at 2 000 seeds
    the peak is a few chunks of paths, not the whole ensemble."""
    pair = default_noise_pair()
    spp, ensemble_n, chunk = 500, 2000, 100
    monkeypatch.setattr("stochpend.rpsde.SEED_CHUNK", chunk)
    moment_growth(pair, 5, 2, NoiseAmplitudes(0.1, 0.1), steps_per_period=spp)
    tracemalloc.start()
    try:
        moment_growth(pair, 5, ensemble_n, NoiseAmplitudes(0.1, 0.1), steps_per_period=spp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few chunks of both channels and a few filter blocks, far below the ensemble
    one_chunk = 2 * chunk * (spp + 1) * 8
    assert peak <= 3 * one_chunk + 4 * BLOCK * 8
    assert 3 * one_chunk + 4 * BLOCK * 8 < ensemble_n * (spp + 1) * 8  # one channel


def test_noise_chunk_released_before_the_next_is_drawn(quick_stats, monkeypatch):
    """While chunk k + 1 is drawn and transposed, chunk k is no longer held:
    the peak is the new chunk's two channels and one transposed copy."""
    pair = default_noise_pair()
    spp, burn_in, horizon, chunk = 100, 4, 20, 100
    kwargs = dict(pair_config=pair, initial=(0.1, 0.0), stats=quick_stats,
                  steps_per_period=spp, burn_in_periods=burn_in)
    monkeypatch.setattr("stochpend.rpsde.SEED_CHUNK", chunk)
    exceedance_probability(0.05, [(0.1, 0.1)], 2, horizon, **kwargs)
    tracemalloc.start()
    try:
        exceedance_probability(0.05, [(0.1, 0.1)], 3 * chunk, horizon, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    channel_chunk = chunk * ((burn_in + horizon) * spp + 1) * 8
    assert peak <= 3 * channel_chunk + 4 * BLOCK * 8
