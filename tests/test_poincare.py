import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochpend import (
    ConfigError,
    LambdaPoint,
    NoiseAmplitudes,
    PathGrid,
    PathSample,
    PendulumParams,
    averaged_hamiltonian,
    cylinder_distance,
    equilibrium_concentration,
    exact_flow,
    find_equilibria,
    plane_fill_density,
    separatrix_initial_states,
    separatrix_splitting_probe,
    simulate_pair,
    stroboscope,
    wrap_angle,
)
from stochpend.bifurcation import Equilibrium
from stochpend.poincare import FILL_BANDS, StroboscopicSection
from stochpend.rpsde import grid_for_periods, period_stride

from conftest import default_noise_pair


def zero_pair(grid):
    z = np.zeros(grid.n + 1)
    return PathSample(grid, z), PathSample(grid, z)


def classical_libration(params, n_periods=10, spp=1000, theta0=0.5):
    grid = PathGrid(0.0, 1.0 / spp, n_periods * spp)
    return exact_flow((theta0, 0.0), zero_pair(grid), params,
                      NoiseAmplitudes(0.0, 0.0))


# ---------------------------------------------------------------------------
# sections


def test_section_counting(params):
    traj = classical_libration(params, n_periods=10, spp=100)
    sec = stroboscope(traj, tau=1.0)
    assert len(sec.theta) == len(sec.p) == 11


def test_section_states_bitwise_equal(params):
    traj = classical_libration(params, n_periods=5, spp=200)
    sec = stroboscope(traj, tau=1.0)
    assert np.array_equal(sec.theta, traj.theta[::200])
    assert np.array_equal(sec.p, traj.p[::200])


def test_section_of_constant_trajectory(params):
    grid = PathGrid(0.0, 0.01, 500)
    traj = exact_flow((0.0, 0.0), zero_pair(grid), params,
                      NoiseAmplitudes(0.0, 0.0))
    sec = stroboscope(traj, tau=1.0)
    assert np.all(sec.theta == sec.theta[0])
    assert np.all(sec.p == sec.p[0])


def test_section_requires_commensurate_tau(params):
    traj = classical_libration(params, n_periods=2, spp=300)
    with pytest.raises(ConfigError):
        stroboscope(traj, tau=1.0 / 3.0 + 1e-4)
    assert period_stride(1.0 / 3.0, traj.grid.h) == 100


def test_section_on_energy_level_set(params):
    traj = classical_libration(params, n_periods=20, spp=1000)
    sec = stroboscope(traj, tau=1.0)
    lam = LambdaPoint(0.0, 0.0)
    h = averaged_hamiltonian(sec.theta, sec.p, lam, params)
    assert np.abs(h - h[0]).max() <= 1e-8


def test_wrapped_and_raw_agree_mod_two_pi(params):
    traj = classical_libration(params, n_periods=3, spp=100, theta0=3.0)
    sec = stroboscope(traj, tau=1.0)
    assert np.array_equal(sec.theta_wrapped, wrap_angle(sec.theta))
    k = (sec.theta - sec.theta_wrapped) / (2 * np.pi)
    assert np.abs(k - np.round(k)).max() < 1e-9


# ---------------------------------------------------------------------------
# occupancy


def test_fill_deterministic_orbit_thin(params):
    traj = classical_libration(params, n_periods=200, spp=200)
    sec = stroboscope(traj, tau=1.0)
    rep = plane_fill_density([sec], (32, 32), LambdaPoint(0.0, 0.0), params)
    # a libration orbit traces one closed curve: a thin band of cells
    assert 0.0 < rep.occupancy < 0.15


def test_fill_grows_with_noise(params):
    cfg = default_noise_pair()
    grid = grid_for_periods(1.0, 50, 200)
    secs0, secs1 = [], []
    for seed in range(8):
        pair = simulate_pair(*cfg, grid, seed=seed)
        t_noisy = exact_flow((0.5 + 0.01 * seed, 0.0), pair, params,
                             NoiseAmplitudes(0.35, 0.35))
        t_silent = exact_flow((0.5 + 0.01 * seed, 0.0), pair, params,
                              NoiseAmplitudes(0.0, 0.0))
        secs1.append(stroboscope(t_noisy, 1.0))
        secs0.append(stroboscope(t_silent, 1.0))
    occ0 = plane_fill_density(secs0, (32, 32), LambdaPoint(0.0, 0.0), params).occupancy
    occ1 = plane_fill_density(secs1, (32, 32), LambdaPoint(0.0, 0.0), params).occupancy
    assert occ1 > occ0


def test_fill_energy_bands(params):
    traj = classical_libration(params, n_periods=50, spp=200)
    sec = stroboscope(traj, tau=1.0)
    rep = plane_fill_density([sec], (32, 32), LambdaPoint(0.0, 0.0), params)
    assert len(rep.band_occupancy) == FILL_BANDS
    assert np.all(rep.band_occupancy >= 0.0)


def fill_per_band(sections, grid, lam, params):
    """The fill as one histogram2d overall and one per energy band, the last band closed."""
    theta = np.concatenate([s.theta_wrapped for s in sections])
    p = np.concatenate([s.p for s in sections])
    theta_edges = np.linspace(-np.pi, np.pi, grid[0] + 1)
    p_edges = np.linspace(-3.0, 3.0, grid[1] + 1)
    counts, _, _ = np.histogram2d(theta, p, bins=[theta_edges, p_edges])
    energy = averaged_hamiltonian(theta, p, lam, params)
    band_edges = np.linspace(energy.min(), energy.max(), FILL_BANDS + 1)
    band_occ = np.empty(FILL_BANDS)
    for b in range(FILL_BANDS):
        below = energy <= band_edges[b + 1] if b == FILL_BANDS - 1 \
            else energy < band_edges[b + 1]
        sel = (energy >= band_edges[b]) & below
        cb, _, _ = np.histogram2d(theta[sel], p[sel], bins=[theta_edges, p_edges])
        band_occ[b] = (cb > 0).mean()
    return counts, float((counts > 0).mean()), band_edges, band_occ


# At Lambda = 0 and l = g = 1, theta in {0, pi} and a whole p put Hbar =
# p^2 / 2 -+ 1 on a multiple of 1/2, so band edges are often hit exactly.
_STATE = st.tuples(st.one_of(st.sampled_from([0.0, np.pi, -np.pi]), st.floats(-10.0, 10.0)),
                   st.one_of(st.integers(-5, 5).map(float), st.floats(-5.0, 5.0)))
_SECTIONS = st.lists(st.lists(_STATE, min_size=1, max_size=30), min_size=1, max_size=3)
# theta = 0: Hbar -1, -1/2, 1, 7 (|p| > 3); theta = pi: Hbar 1 and 3.  The
# band edges are -1, 0, ..., 7, so five points lie on an edge.
_ON_EDGES = [[(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, -4.0)], [(np.pi, 0.0), (-np.pi, 2.0)]]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(states=_SECTIONS, grid=st.tuples(st.integers(16, 24), st.integers(16, 24)),
       lam=st.sampled_from([LambdaPoint(0.0, 0.0), LambdaPoint(0.3, -0.2)]))
@example(states=_ON_EDGES, grid=(16, 16), lam=LambdaPoint(0.0, 0.0))
@example(states=[[(np.pi, 3.5)]], grid=(16, 16), lam=LambdaPoint(0.0, 0.0))
# equal energies: all band edges coincide
@example(states=[[(0.3, 1.0)] * 4, [(0.3, 1.0)]], grid=(17, 16), lam=LambdaPoint(0.0, 0.0))
def test_fill_one_pass_equals_per_band_histograms(states, grid, lam):
    sections = [StroboscopicSection(theta=np.array([t for t, _ in sec]),
                                    p=np.array([p for _, p in sec])) for sec in states]
    rep = plane_fill_density(sections, grid, lam, PendulumParams(1.0, 1.0))
    counts, occupancy, band_edges, band_occ = fill_per_band(sections, grid, lam,
                                                            PendulumParams(1.0, 1.0))
    assert rep.counts.dtype == counts.dtype and rep.counts.tobytes() == counts.tobytes()
    assert rep.occupancy.hex() == occupancy.hex()
    assert rep.band_edges.tobytes() == band_edges.tobytes()
    assert rep.band_occupancy.tobytes() == band_occ.tobytes()


# ---------------------------------------------------------------------------
# concentration


def stable_origin(params):
    eqs = find_equilibria(LambdaPoint(0.0, 0.0), params)
    return next(e for e in eqs if e.kind == "stable")


def test_concentration_zero_amplitude(params):
    e0 = stable_origin(params)
    rep = equilibrium_concentration(e0, [(0.0, 0.0)], ensemble_n=10,
                                    horizon_periods=5,
                                    pair_config=default_noise_pair(),
                                    params=params, steps_per_period=200,
                                    master_seed=0)
    assert rep.radii[0] <= 1e-9


def test_concentration_decreases_with_sigma(params):
    e0 = stable_origin(params)
    rep = equilibrium_concentration(
        e0, [(0.2, 0.2), (0.1, 0.1), (0.05, 0.05)], ensemble_n=100,
        horizon_periods=10, pair_config=default_noise_pair(), params=params,
        steps_per_period=200, master_seed=1)
    assert rep.radii[0] > rep.radii[1] > rep.radii[2]


def test_concentration_stable_under_longer_horizon(params):
    e0 = stable_origin(params)
    kwargs = dict(pair_config=default_noise_pair(), params=params,
                  steps_per_period=200, master_seed=2, ensemble_n=60)
    short = equilibrium_concentration(e0, [(0.05, 0.05)], horizon_periods=10,
                                      **kwargs)
    long = equilibrium_concentration(e0, [(0.05, 0.05)], horizon_periods=20,
                                     **kwargs)
    assert long.radii[0] <= 2.0 * short.radii[0]


def test_concentration_requires_stable_point(params):
    saddle = Equilibrium(theta=np.pi, kind="unstable", potential=1.0,
                         second_derivative=-1.0)
    with pytest.raises(ValueError):
        equilibrium_concentration(saddle, [(0.1, 0.1)], 10, 5,
                                  default_noise_pair(), params=PendulumParams(),
                                  steps_per_period=1000, master_seed=0)


def test_cylinder_distance_wraps():
    d = cylinder_distance(2 * np.pi + 0.1, 0.0, 0.1, 0.0)
    assert d == pytest.approx(0.0, abs=1e-9)
    assert cylinder_distance(np.pi - 0.05, 0.0, -np.pi + 0.05, 0.0) == \
        pytest.approx(0.1, abs=1e-9)


# ---------------------------------------------------------------------------
# separatrix probe


def test_separatrix_states_on_level_set(params):
    lam = LambdaPoint(0.0, 0.0)
    theta0, p0, saddle = separatrix_initial_states(lam, params, 40)
    assert saddle.theta == pytest.approx(np.pi, abs=1e-9)
    h = averaged_hamiltonian(theta0, p0, lam, params)
    np.testing.assert_allclose(h, saddle.potential, atol=1e-12)
    assert len(theta0) == 40


def test_splitting_probe_deterministic_case(params):
    rep = separatrix_splitting_probe(
        LambdaPoint(0.0, 0.0), [(0.0, 0.0)], n_points=16,
        pair_config=default_noise_pair(), params=params, horizon_periods=5,
        steps_per_period=1000, master_seed=0)
    assert rep.spreads[0] <= 1e-6


def test_splitting_probe_grows_with_sigma(params):
    rep = separatrix_splitting_probe(
        LambdaPoint(0.0, 0.0), [(0.05, 0.05), (0.1, 0.1), (0.2, 0.2)],
        n_points=32, pair_config=default_noise_pair(), params=params,
        horizon_periods=5, steps_per_period=200, master_seed=4)
    assert rep.spreads[0] < rep.spreads[1] < rep.spreads[2]


def test_probe_at_saddle_stays_fixed(params):
    # the saddle itself is a fixed point of the deterministic flow up to
    # the rounding of sin(pi)
    grid = PathGrid(0.0, 1e-3, 2000)
    traj = exact_flow((np.pi, 0.0), zero_pair(grid), params,
                      NoiseAmplitudes(0.0, 0.0))
    d = cylinder_distance(traj.theta, traj.p, np.pi, 0.0)
    assert d.max() <= 1e-6


def test_probe_requires_saddle(params):
    # at the left cusp the potential maximum is degenerate, so there is no
    # (non-degenerate) saddle to anchor a separatrix
    eqs = find_equilibria(LambdaPoint(-0.25, 0.0), params)
    assert sorted(e.kind for e in eqs) == ["degenerate", "stable"]
    with pytest.raises(ValueError):
        separatrix_initial_states(LambdaPoint(-0.25, 0.0), params, 8)
