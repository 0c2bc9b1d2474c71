import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpend import (
    LambdaPoint,
    NoiseAmplitudes,
    PathGrid,
    PathSample,
    PendulumParams,
    averaged_flow,
    averaged_hamiltonian,
    bob_embedding,
    effective_potential,
    effective_potential_d2theta,
    effective_potential_dtheta,
    exact_flow,
    exact_hamiltonian,
    hamiltonian_partials,
    instantaneous_potential,
    lambda_from_stats,
    momentum_from_velocity,
    noise_coupling,
    simulate_pair,
    velocity_from_momentum,
    wrap_angle,
)
from stochpend.dynamics import (
    _rk4_nodes,
    _rk4_rhs,
    exact_flow_ensemble,
    instantaneous_lambda,
)
from stochpend.rng import ensemble_seeds
from stochpend.rpsde import ErgodicStats, grid_for_periods, simulate_pair_ensemble

from conftest import default_noise_pair


def make_stats(c1, c2, c12):
    return ErgodicStats(mean1=0.0, mean2=0.0, c1=c1, c2=c2, c12=c12,
                        se_mean1=0.0, se_mean2=0.0, se_c1=0.0, se_c2=0.0,
                        se_c12=0.0, burn_in_periods=0, avg_periods=0)


def zero_pair(grid):
    z = np.zeros(grid.n + 1)
    return PathSample(grid, z), PathSample(grid, z)


# ---------------------------------------------------------------------------
# momentum / velocity


def test_momentum_trivials(params):
    amps = NoiseAmplitudes(1.0, 1.0)
    assert momentum_from_velocity(0.3, 0.0, 0.0, 0.0, params, amps) == 0.0
    assert momentum_from_velocity(0.3, 1.0, 0.0, 0.0, params, amps) == 1.0
    # at theta = 0 only the horizontal channel couples
    assert momentum_from_velocity(0.0, 0.0, 0.3, 7.0, params, amps) == \
        pytest.approx(0.3, abs=1e-15)


def test_velocity_trivials(params):
    amps = NoiseAmplitudes(0.3, 0.4)
    assert velocity_from_momentum(0.7, 0.0, 0.0, 0.0, params, amps) == 0.0
    from stochpend import PendulumParams
    p2 = PendulumParams(l=2.0, g=1.0)
    assert velocity_from_momentum(0.0, 4.0, 0.0, 0.0, p2, amps) == 1.0


def test_momentum_velocity_roundtrip(params, rng):
    amps = NoiseAmplitudes(0.37, 0.81)
    theta = rng.uniform(-10, 10, 1000)
    theta_dot = rng.uniform(-5, 5, 1000)
    xi1 = rng.normal(size=1000)
    xi2 = rng.normal(size=1000)
    p = momentum_from_velocity(theta, theta_dot, xi1, xi2, params, amps)
    back = velocity_from_momentum(theta, p, xi1, xi2, params, amps)
    assert np.abs(back - theta_dot).max() <= 1e-12


# ---------------------------------------------------------------------------
# Hamiltonian and partials


def test_hamiltonian_classical_minimum(params):
    amps = NoiseAmplitudes(0.0, 0.0)
    assert exact_hamiltonian(0.0, 0.0, 0.0, 0.0, params, amps) == -1.0


def test_hamiltonian_classical_reduction(params, rng):
    amps = NoiseAmplitudes(0.0, 0.0)
    theta = rng.uniform(-5, 5, 100)
    p = rng.uniform(-3, 3, 100)
    expected = p**2 / 2 - np.cos(theta)
    np.testing.assert_allclose(
        exact_hamiltonian(theta, p, rng.normal(size=100), rng.normal(size=100),
                          params, amps),
        expected, rtol=0, atol=1e-14)


def test_hamiltonian_direct_substitution(params):
    # theta=0, p=1, sigma1 xi1 = 0.2: 0.5 - 0.2 + 0.02 - 1
    amps = NoiseAmplitudes(0.2, 0.9)
    value = exact_hamiltonian(0.0, 1.0, 1.0, 123.456, params, amps)
    assert value == pytest.approx(-0.68, abs=1e-15)


def test_legendre_consistency(params, rng):
    # H(theta, p(theta, thetadot)) must reduce to l^2 thetadot^2 / 2 - g l cos
    amps = NoiseAmplitudes(0.4, 0.7)
    theta = rng.uniform(-6, 6, 500)
    theta_dot = rng.uniform(-4, 4, 500)
    xi1 = rng.normal(size=500)
    xi2 = rng.normal(size=500)
    p = momentum_from_velocity(theta, theta_dot, xi1, xi2, params, amps)
    h = exact_hamiltonian(theta, p, xi1, xi2, params, amps)
    kinetic_form = 0.5 * params.l**2 * theta_dot**2 - params.g * params.l * np.cos(theta)
    assert np.abs(h - kinetic_form).max() <= 1e-13 * max(1.0, np.abs(h).max())


def test_hamiltonian_splits_into_linear_plus_potential(params, rng):
    # H + p S / l == p^2/(2 l^2) + instantaneous potential (derived form)
    amps = NoiseAmplitudes(0.5, 0.3)
    theta = rng.uniform(-6, 6, 500)
    p = rng.uniform(-3, 3, 500)
    xi1 = rng.normal(size=500)
    xi2 = rng.normal(size=500)
    S = noise_coupling(theta, xi1, xi2, amps)
    lhs = exact_hamiltonian(theta, p, xi1, xi2, params, amps) + p * S / params.l
    rhs = p**2 / (2 * params.l**2) + instantaneous_potential(
        theta, xi1, xi2, params, amps, "derived")
    assert np.abs(lhs - rhs).max() <= 1e-13


def test_partials_classical_limit(params, rng):
    amps = NoiseAmplitudes(0.0, 0.0)
    theta = rng.uniform(-5, 5, 50)
    p = rng.uniform(-2, 2, 50)
    dth, dp = hamiltonian_partials(theta, p, 0.0, 0.0, params, amps)
    np.testing.assert_allclose(dth, np.sin(theta), atol=1e-15)
    np.testing.assert_allclose(dp, p, atol=1e-15)


def test_partials_cross_term_vanishes_at_origin(params):
    amps = NoiseAmplitudes(0.7, 0.0)
    dth, _ = hamiltonian_partials(0.0, 0.0, 1.3, 0.0, params, amps)
    assert dth == 0.0


def test_partials_match_finite_differences(params, rng):
    amps = NoiseAmplitudes(0.31, 0.47)
    step = 1e-6
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(-np.pi, np.pi)
        p = rng.uniform(-2, 2)
        xi1, xi2 = rng.normal(size=2)

        def h(th, pp):
            return exact_hamiltonian(th, pp, xi1, xi2, params, amps)

        fd_th = (h(theta + step, p) - h(theta - step, p)) / (2 * step)
        fd_p = (h(theta, p + step) - h(theta, p - step)) / (2 * step)
        an_th, an_p = hamiltonian_partials(theta, p, xi1, xi2, params, amps)
        scale = max(1.0, abs(an_th), abs(an_p))
        worst = max(worst, abs(fd_th - an_th) / scale, abs(fd_p - an_p) / scale)
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# potentials


def test_instantaneous_potential_classical(params, rng):
    amps = NoiseAmplitudes(0.0, 0.0)
    theta = rng.uniform(-5, 5, 50)
    np.testing.assert_allclose(
        instantaneous_potential(theta, 1.0, 2.0, params, amps, convention="derived"),
        -np.cos(theta), atol=1e-15)


def test_instantaneous_potential_trig_identity(params, rng):
    amps = NoiseAmplitudes(0.6, 0.4)
    theta = rng.uniform(-5, 5, 300)
    xi1 = rng.normal(size=300)
    xi2 = rng.normal(size=300)
    S = noise_coupling(theta, xi1, xi2, amps)
    direct = 0.5 * S**2 - params.g * params.l * np.cos(theta)
    derived = instantaneous_potential(theta, xi1, xi2, params, amps, "derived")
    assert np.abs(direct - derived).max() <= 1e-14 * max(1.0, np.abs(direct).max())


def test_instantaneous_potential_convention_gap(params, rng):
    amps = NoiseAmplitudes(0.5, 0.2)
    theta = rng.uniform(-5, 5, 300)
    xi1 = rng.normal(size=300)
    xi2 = rng.normal(size=300)
    q1 = (amps.sigma1 * xi1) ** 2
    q2 = (amps.sigma2 * xi2) ** 2
    gap = (instantaneous_potential(theta, xi1, xi2, params, amps, "paper")
           - instantaneous_potential(theta, xi1, xi2, params, amps, "derived"))
    expected = 0.25 * (q1 - q2) * np.cos(2 * theta) - 0.25 * (q1 + q2)
    np.testing.assert_allclose(gap, expected, atol=1e-14)


def test_effective_potential_classical(params, rng):
    lam = LambdaPoint(0.0, 0.0)
    theta = rng.uniform(-5, 5, 50)
    np.testing.assert_allclose(effective_potential(theta, lam, params),
                               -np.cos(theta), atol=1e-15)


def test_effective_potential_mirror_symmetry(params, rng):
    # Ubar(-theta; L1, -L2) == Ubar(theta; L1, L2), an exact trig identity
    theta = rng.uniform(-7, 7, 2000)
    l1 = rng.uniform(-1, 1, 2000)
    l2 = rng.uniform(-1, 1, 2000)
    a = np.array([effective_potential(-t, LambdaPoint(a1, -a2), params)
                  for t, a1, a2 in zip(theta[:50], l1[:50], l2[:50])])
    b = np.array([effective_potential(t, LambdaPoint(a1, a2), params)
                  for t, a1, a2 in zip(theta[:50], l1[:50], l2[:50])])
    assert np.abs(a - b).max() <= 1e-13


def test_effective_potential_half_turn_antisymmetry(params, rng):
    # The half-turn reflection theta -> pi - theta with Lambda_1 -> -Lambda_1
    # NEGATES the potential: Ubar(pi - theta; -L1, L2) == -Ubar(theta; L1, L2).
    # It still maps the bifurcation diagram onto itself because critical
    # points survive negation with stability swapped.
    theta = rng.uniform(-7, 7, 50)
    l1 = rng.uniform(-1, 1, 50)
    l2 = rng.uniform(-1, 1, 50)
    a = np.array([effective_potential(np.pi - t, LambdaPoint(-a1, a2), params)
                  for t, a1, a2 in zip(theta, l1, l2)])
    b = np.array([effective_potential(t, LambdaPoint(a1, a2), params)
                  for t, a1, a2 in zip(theta, l1, l2)])
    assert np.abs(a + b).max() <= 1e-13


def test_effective_potential_derivatives(params, rng):
    lam = LambdaPoint(0.3, -0.2)
    theta = rng.uniform(-5, 5, 200)
    step = 1e-6
    fd1 = (effective_potential(theta + step, lam, params)
           - effective_potential(theta - step, lam, params)) / (2 * step)
    fd2 = (effective_potential(theta + step, lam, params)
           - 2 * effective_potential(theta, lam, params)
           + effective_potential(theta - step, lam, params)) / step**2
    np.testing.assert_allclose(effective_potential_dtheta(theta, lam, params),
                               fd1, atol=1e-8)
    np.testing.assert_allclose(effective_potential_d2theta(theta, lam, params),
                               fd2, atol=2e-3)


# ---------------------------------------------------------------------------
# averaged Hamiltonian and the (sigma, C) -> Lambda map


def test_averaged_hamiltonian_classical(params, rng):
    lam = LambdaPoint(0.0, 0.0)
    theta = rng.uniform(-5, 5, 50)
    p = rng.uniform(-3, 3, 50)
    np.testing.assert_allclose(averaged_hamiltonian(theta, p, lam, params),
                               p**2 / 2 - np.cos(theta), atol=1e-15)


def test_averaged_hamiltonian_at_origin(params):
    lam = LambdaPoint(0.37, 0.91)
    assert averaged_hamiltonian(0.0, 0.0, lam, params) == \
        pytest.approx(lam.lambda1 - 1.0, abs=1e-15)


def test_lambda_map_symmetric_cancellation():
    amps = NoiseAmplitudes(0.3, 0.3)
    stats = make_stats(c1=0.7, c2=0.7, c12=0.2)
    for conv in ("derived", "paper"):
        lam = lambda_from_stats(amps, stats, conv)
        assert lam.lambda1 == 0.0


def test_lambda_map_convention_factors():
    amps = NoiseAmplitudes(0.2, 0.0)
    stats = make_stats(c1=1.0, c2=123.0, c12=0.5)
    assert lambda_from_stats(amps, stats, "derived").lambda1 == pytest.approx(0.01)
    assert lambda_from_stats(amps, stats, "paper").lambda1 == pytest.approx(0.02)
    # sigma2 = 0 kills the cross coefficient too
    assert lambda_from_stats(amps, stats, "derived").lambda2 == 0.0


def test_lambda_map_zero_cross():
    amps = NoiseAmplitudes(0.4, 0.5)
    lam = lambda_from_stats(amps, make_stats(1.0, 1.0, 0.0), convention="derived")
    assert lam.lambda2 == 0.0


_NOISE_VALUE = st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3))
_SIGMA = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=_NOISE_VALUE, b=_NOISE_VALUE, s1=_SIGMA, s2=_SIGMA,
       convention=st.sampled_from(["derived", "paper"]))
def test_instantaneous_lambda_is_the_moment_map_at_constant_noise(a, b, s1, s2, convention):
    # constant noise (a, b) has the moments C_1 = a^2, C_2 = b^2, C_12 = a b;
    # the error is relative to the size of the terms, as Lambda_1 may cancel
    amps = NoiseAmplitudes(s1, s2)
    lam = lambda_from_stats(amps, make_stats(a * a, b * b, a * b), convention)
    lt1, lt2 = instantaneous_lambda(a, b, amps, convention)
    assert abs(lt1 - lam.lambda1) <= 1e-15 * ((s1 * a) ** 2 + (s2 * b) ** 2)
    assert abs(lt2 - lam.lambda2) <= 1e-15 * abs(s1 * s2 * a * b)


def test_averaged_equals_ensemble_mean_of_quadratic(params):
    # Monte Carlo: mean over noise draws of the quadratic part of H
    # reproduces Lambda_1 cos(2 th) + Lambda_2 sin(2 th) + const
    cfg1, cfg2 = default_noise_pair()
    amps = NoiseAmplitudes(0.4, 0.3)
    grid = grid_for_periods(1.0, 15, 200)
    from stochpend import simulate_pair_ensemble
    from stochpend.rng import ensemble_seeds
    x1, x2 = simulate_pair_ensemble(cfg1, cfg2, grid, ensemble_seeds(11, 2000))
    xi1 = x1[:, -1]
    xi2 = x2[:, -1]
    theta = 0.83
    quad = 0.5 * noise_coupling(theta, xi1, xi2, amps) ** 2
    se = quad.std(ddof=1) / np.sqrt(len(quad))
    c1, c2, c12 = (xi1**2).mean(), (xi2**2).mean(), (xi1 * xi2).mean()
    lam = lambda_from_stats(amps, make_stats(c1, c2, c12), "derived")
    const = 0.25 * (amps.sigma1**2 * c1 + amps.sigma2**2 * c2)
    predicted = (lam.lambda1 * np.cos(2 * theta)
                 + lam.lambda2 * np.sin(2 * theta) + const)
    # same-sample moments make this an identity up to rounding; the 3 se
    # band checks the stationary-law reading as well
    assert abs(quad.mean() - predicted) <= max(3 * se, 1e-12)


# ---------------------------------------------------------------------------
# exact flow


def test_exact_flow_conserves_classical_energy(params):
    amps = NoiseAmplitudes(0.0, 0.0)
    grid = PathGrid(0.0, 1e-3, 20000)
    traj = exact_flow((0.1, 0.0), zero_pair(grid), params, amps)
    assert np.abs(traj.energy - traj.energy[0]).max() <= 1e-9


def test_exact_flow_fixed_point_origin_is_exact(params):
    amps = NoiseAmplitudes(0.0, 0.0)
    grid = PathGrid(0.0, 1e-3, 5000)
    traj = exact_flow((0.0, 0.0), zero_pair(grid), params, amps)
    assert np.all(traj.theta == 0.0)
    assert np.all(traj.p == 0.0)


def test_exact_flow_inverted_fixed_point(params):
    # sin(pi) rounds to ~1.2e-16, so the inverted state is stationary up
    # to that rounding over a short horizon
    amps = NoiseAmplitudes(0.0, 0.0)
    grid = PathGrid(0.0, 1e-3, 2000)
    traj = exact_flow((np.pi, 0.0), zero_pair(grid), params, amps)
    assert np.abs(traj.theta - np.pi).max() <= 1e-13
    assert np.abs(traj.p).max() <= 1e-13


def test_exact_flow_energy_wander_shrinks_with_sigma(params):
    cfg1, cfg2 = default_noise_pair()
    grid = grid_for_periods(1.0, 5, 500)
    pair = simulate_pair(cfg1, cfg2, grid, seed=19)
    wander = []
    for s in (0.2, 0.1, 0.05):
        amps = NoiseAmplitudes(s, s)
        traj = exact_flow((0.1, 0.0), pair, params, amps)
        wander.append(np.abs(traj.energy - traj.energy[0]).max())
    assert wander[0] > wander[1] > wander[2]
    assert wander[2] < 0.05


def test_exact_flow_blowup_reports_index(params):
    from stochpend import BlowUpError
    amps = NoiseAmplitudes(0.0, 0.0)
    grid = PathGrid(0.0, 1e-3, 100)
    pair = zero_pair(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            exact_flow((0.1, np.finfo(float).max / 4), pair, params, amps)
    assert err.value.step_index >= 1


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 200),
       levels=st.lists(st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 0.8)),
                       min_size=1, max_size=3),
       theta0=st.floats(-3.0, 3.0), p0=st.floats(-1.5, 1.5), data=st.data())
def test_stacked_levels_match_width_one_orbits(params, seed, n, levels, theta0, p0, data):
    """The (level, seed) rows of one flat batch, dropped through keep masks
    sent in mid-run, step as their width-1 float orbits do, bit for bit, up
    to the node where they left."""
    grid = PathGrid(0.0, 0.01, n)
    x1, x2 = simulate_pair_ensemble(*default_noise_pair(), grid, ensemble_seeds(seed, 2))
    sig = np.repeat(np.array(levels), 2, axis=0)
    col = np.tile([0, 1], len(levels))
    th0 = theta0 + 0.25 * col
    # the last node of each row; n keeps it to the end
    last = np.array(data.draw(st.lists(st.integers(0, n), min_size=len(col),
                                       max_size=len(col))))
    nodes = _rk4_nodes(th0, np.full(len(col), p0), [(x1.T, x2.T)], grid.h, params,
                       sig[:, 0], sig[:, 1], col)
    theta, p = np.full((2, n + 1, len(col)), np.nan)
    rows = np.arange(len(col))  # the rows left in the batch
    for k, th, mom, *_ in nodes:
        theta[k, rows], p[k, rows] = th, mom
        keep = last[rows] > k
        if not keep.all():
            assert nodes.send(keep) is None
            rows = rows[keep]
    for i, j in enumerate(col):
        th_ref, p_ref, _ = exact_flow_ensemble(th0[i], p0, x1[j], x2[j], grid, params,
                                               NoiseAmplitudes(*sig[i]))
        assert theta[:last[i] + 1, i].tobytes() == th_ref[:last[i] + 1].tobytes()
        assert p[:last[i] + 1, i].tobytes() == p_ref[:last[i] + 1].tobytes()
        assert np.isnan(theta[last[i] + 1:, i]).all()


@pytest.mark.parametrize("seeds, levels", [(1, 1), (100, 4), (500, 4)],
                         ids=["width-1", "width-400", "width-2000"])
def test_tiles_step_as_one_array(params, seeds, levels):
    """Nodes cut into disjoint tiles (a one-row first tile, a one-row and an
    empty later tile among them), each a view of one buffer that is
    overwritten when the next tile is asked for, give the bytes of the
    whole array as one tile.  The (level, seed) rows form one flat batch,
    as the ensemble runs step them; width 1 is a one-row batch."""
    grid = PathGrid(0.0, 0.01, 40)
    x1, x2 = (x.T for x in simulate_pair_ensemble(*default_noise_pair(), grid,
                                                  ensemble_seeds(4, seeds)))
    sig = np.repeat(np.linspace(0.1, 0.4, 2 * levels).reshape(levels, 2), seeds, axis=0)
    rows = levels * seeds
    theta0, p0, s1, s2, col = (np.full(rows, 0.3), np.full(rows, -0.2), sig[:, 0], sig[:, 1],
                               np.tile(np.arange(seeds), levels))
    edges = [0, 1, 8, 9, 9, 30, grid.n + 1]

    def reused_tiles():
        buf = np.empty((2, max(np.diff(edges))) + x1.shape[1:])
        for lo, hi in zip(edges, edges[1:]):
            buf.fill(np.nan)  # nothing of the tile before survives
            buf[0, :hi - lo], buf[1, :hi - lo] = x1[lo:hi], x2[lo:hi]
            yield buf[:, :hi - lo]

    def nodes(tiles):
        return [[np.asarray(v).tobytes() for v in node]
                for node in _rk4_nodes(theta0, p0, tiles, grid.h, params, s1, s2, col)]

    assert nodes(reused_tiles()) == nodes([(x1, x2)])
    assert len(nodes(reused_tiles())) == grid.n + 1


def _array_flow(theta0, p0, x1, x2, grid, params, amps):
    """``exact_flow_ensemble`` as a one-row flat batch on the array back-end,
    its noise in column 1 of two."""
    def column(x):
        return np.column_stack([np.full_like(x, np.nan), x])

    nodes = _rk4_nodes(np.array([theta0]), np.array([p0]), [(column(x1), column(x2))], grid.h,
                       params, np.array([amps.sigma1]), np.array([amps.sigma2]), np.array([1]))
    theta, p = np.array([(th[0], mom[0]) for _, th, mom, *_ in nodes]).T
    return theta, p, exact_hamiltonian(theta, p, x1, x2, params, amps)


def _flow_or_blowup(flow, theta0, p0, x1, x2, grid, params, amps):
    """The (theta, p, energy) bytes of ``flow``, or the step at which it blows up."""
    from stochpend import BlowUpError
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = flow(theta0, p0, x1, x2, grid, params, amps)
    except BlowUpError as exc:
        return exc.step_index
    return [np.ascontiguousarray(a).tobytes() for a in out]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 300),
       sigma=st.tuples(st.floats(0.05, 0.8), st.floats(0.0, 0.8)),
       theta0=st.floats(-3.0, 3.0), p0=st.floats(-1.5, 1.5),
       spike=st.integers(0, 300))
def test_float_backend_is_bit_identical_to_array_backend(params, seed, n, sigma,
                                                         theta0, p0, spike):
    # one orbit steps on Python floats and math.cos/sin; a one-row flat
    # batch steps on numpy arrays through the same right-hand side
    grid = PathGrid(0.0, 0.01, n)
    p1, p2 = simulate_pair(*default_noise_pair(), grid, seed)
    amps = NoiseAmplitudes(*sigma)
    x1, x2 = p1.values, p2.values
    args = (theta0, p0, x1, x2, grid, params, amps)
    as_float = _flow_or_blowup(exact_flow_ensemble, *args)
    assert as_float == _flow_or_blowup(_array_flow, *args)
    assert not isinstance(as_float, int)
    # one huge noise node: both back-ends blow up at the same step
    x1 = x1.copy()
    x1[spike % (n + 1)] = 1e200
    args = (theta0, p0, x1, x2, grid, params, amps)
    step = _flow_or_blowup(exact_flow_ensemble, *args)
    assert isinstance(step, int)
    assert step == _flow_or_blowup(_array_flow, *args)


def _oracle_flow(theta0, p0, x1, x2, grid, params, amps):
    """Classical RK4 written out step by step through ``_rk4_rhs``, the field
    that ``hamiltonian_partials`` returns, on numpy float64 scalars."""
    from stochpend import BlowUpError
    h, coefs = grid.h, (params.l, params.g, amps.sigma1, amps.sigma2)
    theta, p = [np.float64(theta0)], [np.float64(p0)]
    for k in range(grid.n):
        th, mom = theta[-1], p[-1]
        xm1, xm2 = 0.5 * (x1[k] + x1[k + 1]), 0.5 * (x2[k] + x2[k + 1])
        k1t, k1p, *_ = _rk4_rhs(th, mom, x1[k], x2[k], *coefs)
        k2t, k2p, *_ = _rk4_rhs(th + 0.5 * h * k1t, mom + 0.5 * h * k1p, xm1, xm2, *coefs)
        k3t, k3p, *_ = _rk4_rhs(th + 0.5 * h * k2t, mom + 0.5 * h * k2p, xm1, xm2, *coefs)
        k4t, k4p, *_ = _rk4_rhs(th + h * k3t, mom + h * k3p, x1[k + 1], x2[k + 1], *coefs)
        th = th + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        mom = mom + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if not (np.isfinite(th) and np.isfinite(mom)):
            raise BlowUpError(k + 1)
        theta.append(th)
        p.append(mom)
    theta, p = np.array(theta), np.array(p)
    return theta, p, exact_hamiltonian(theta, p, x1, x2, params, amps)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 200),
       sigma=st.tuples(st.floats(0.05, 0.8), st.floats(0.0, 0.8)),
       theta0=st.floats(-3.0, 3.0), p0=st.floats(-1.5, 1.5),
       spike=st.integers(0, 200), size=st.sampled_from([1e150, 1e200, 1e300]))
def test_one_orbit_is_the_rk4_of_the_partials_field(params, seed, n, sigma, theta0, p0,
                                                    spike, size):
    """``exact_flow_ensemble`` is the RK4 of ``_rk4_rhs`` bit for bit, and
    blows up at the same step under one huge noise node, so the partials
    checked against finite differences of H are the field it integrates."""
    grid = PathGrid(0.0, 0.01, n)
    p1, p2 = simulate_pair(*default_noise_pair(), grid, seed)
    amps = NoiseAmplitudes(*sigma)
    args = (theta0, p0, p1.values, p2.values, grid, params, amps)
    found = _flow_or_blowup(exact_flow_ensemble, *args)
    assert not isinstance(found, int)
    assert found == _flow_or_blowup(_oracle_flow, *args)
    theta, p = (np.frombuffer(b) for b in found[:2])
    dh_dtheta, dh_dp = hamiltonian_partials(theta, p, p1.values, p2.values, params, amps)
    dtheta, dp, *_ = _rk4_rhs(theta, p, p1.values, p2.values, params.l, params.g, *sigma)
    assert dh_dp.tobytes() == dtheta.tobytes() and dh_dtheta.tobytes() == (-dp).tobytes()
    x1 = p1.values.copy()
    x1[spike % (n + 1)] = size
    args = (theta0, p0, x1, p2.values, grid, params, amps)
    step = _flow_or_blowup(exact_flow_ensemble, *args)
    assert isinstance(step, int)
    assert step == _flow_or_blowup(_oracle_flow, *args)


@pytest.mark.parametrize("theta0, p0, l", [
    (np.inf, 0.0, 1.0), (np.nan, 0.0, 1.0), (0.1, np.inf, 1.0), (0.1, -np.inf, 1.0),
    (0.1, 0.0, 1e-170),  # l * l underflows to 0
])
def test_float_backend_non_finite_start_blows_up_at_step_one(theta0, p0, l):
    grid = PathGrid(0.0, 0.01, 5)
    params = PendulumParams(l=l, g=1.0)
    amps = NoiseAmplitudes(0.1, 0.1)
    x = np.linspace(0.0, 1.0, grid.n + 1)
    for flow in (exact_flow_ensemble, _array_flow):
        assert _flow_or_blowup(flow, theta0, p0, x, x, grid, params, amps) == 1


# ---------------------------------------------------------------------------
# averaged flow


def test_averaged_flow_fixed_point(params):
    lam = LambdaPoint(0.0, 0.0)
    traj = averaged_flow((0.0, 0.0), lam, params, 1e-3, 1000)
    assert np.all(traj.theta == 0.0) and np.all(traj.p == 0.0)


def test_averaged_flow_energy_drift(params):
    lam = LambdaPoint(0.0, 0.0)
    traj = averaged_flow((0.1, 0.0), lam, params, 1e-3, 10000)
    assert np.abs(traj.energy - traj.energy[0]).max() <= 1e-8


def measured_period(traj):
    """Time between consecutive upward zero crossings of p."""
    p = traj.p
    t = traj.grid.times()
    up = np.nonzero((p[:-1] < 0) & (p[1:] >= 0))[0]
    crossings = []
    for i in up:
        frac = -p[i] / (p[i + 1] - p[i])
        crossings.append(t[i] + frac * (t[i + 1] - t[i]))
    return np.diff(crossings).mean()


def test_small_oscillation_period(params):
    lam = LambdaPoint(0.0, 0.0)
    traj = averaged_flow((0.01, 0.0), lam, params, 1e-3, 20000)
    period = measured_period(traj)
    assert abs(period - 2 * np.pi) / (2 * np.pi) < 0.01


def test_averaged_flow_in_double_well(params):
    # a point in the deeper structure keeps bounded energy drift too
    lam = LambdaPoint(0.5, 0.0)
    traj = averaged_flow((np.pi / 3 + 0.1, 0.0), lam, params,
                         1e-3, 20000)
    assert np.abs(traj.energy - traj.energy[0]).max() <= 1e-7


# ---------------------------------------------------------------------------
# bob embedding


def test_embedding_rest_positions(params):
    amps = NoiseAmplitudes(0.0, 0.0)
    grid = PathGrid(0.0, 1e-2, 10)
    pair = zero_pair(grid)
    from stochpend import Trajectory
    traj = Trajectory(grid=grid, theta=np.zeros(11), p=np.zeros(11), energy=np.zeros(11))
    emb = bob_embedding(traj, pair, params, amps)
    assert np.all(emb.x == 0.0) and np.all(emb.y == -params.l)
    traj2 = Trajectory(grid=grid, theta=np.full(11, np.pi / 2), p=np.zeros(11),
                       energy=np.zeros(11))
    emb2 = bob_embedding(traj2, pair, params, amps)
    np.testing.assert_allclose(emb2.x, params.l, atol=1e-15)
    np.testing.assert_allclose(emb2.y, 0.0, atol=1e-15)


def test_embedding_trapezoid_exact_for_constant(params):
    amps = NoiseAmplitudes(1.0, 1.0)
    grid = PathGrid(0.0, 0.1, 20)
    c = 0.7
    const = PathSample(grid, np.full(grid.n + 1, c))
    from stochpend import Trajectory
    traj = Trajectory(grid=grid, theta=np.zeros(21), p=np.zeros(21), energy=np.zeros(21))
    emb = bob_embedding(traj, (const, const), params, amps)
    np.testing.assert_allclose(emb.x, c * grid.times(), rtol=1e-14)


# ---------------------------------------------------------------------------
# angle wrapping


def test_wrap_angle_interval():
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
    assert wrap_angle(0.0) == 0.0
    theta = np.linspace(-20, 20, 1001)
    w = wrap_angle(theta)
    assert np.all(w > -np.pi) and np.all(w <= np.pi)
    # wrapped and raw agree modulo 2 pi
    k = (theta - w) / (2 * np.pi)
    assert np.abs(k - np.round(k)).max() < 1e-9
