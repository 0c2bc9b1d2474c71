import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochpend import (
    BOUNDARY,
    PI1,
    PI2,
    Gamma2Ray,
    LambdaPoint,
    NoiseAmplitudes,
    PendulumParams,
    classify_region,
    effective_potential_dtheta,
    find_equilibria,
    gamma1_curve,
    lambda_from_stats,
    numeric_bifurcation_scan,
    phase_portrait,
    simulate_pair,
)
from stochpend import bifurcation
from stochpend.dynamics import instantaneous_lambda
from stochpend.rpsde import grid_for_periods

from conftest import default_noise_pair

TWO_PI = 2 * np.pi


# ---------------------------------------------------------------------------
# equilibria


def test_classical_equilibria(params):
    eqs = find_equilibria(LambdaPoint(0.0, 0.0), params)
    assert len(eqs) == 2
    by_kind = {e.kind: e.theta for e in eqs}
    assert by_kind["stable"] == pytest.approx(0.0, abs=1e-12)
    assert by_kind["unstable"] == pytest.approx(np.pi, abs=1e-12)


def test_double_well_against_factorization(params):
    # Ubar' = sin(theta) (1 - 2 cos(theta)) at Lambda = (1/2, 0),
    # so the roots are 0, pi/3, pi, 5 pi/3 exactly
    lam = LambdaPoint(0.5, 0.0)
    eqs = find_equilibria(lam, params)
    expected = {
        0.0: "unstable",
        np.pi / 3: "stable",
        np.pi: "unstable",
        5 * np.pi / 3: "stable",
    }
    assert len(eqs) == 4
    for e in eqs:
        match = min(expected, key=lambda t: abs(t - e.theta))
        assert e.theta == pytest.approx(match, abs=1e-9)
        assert e.kind == expected[match]


def test_double_well_against_dense_scan_oracle(params):
    # independent root finder: sign changes of Ubar' on a 10^6-point grid
    lam = LambdaPoint(0.5, 0.0)
    theta = np.linspace(0.0, TWO_PI, 1_000_001)
    f = effective_potential_dtheta(theta, lam, params)
    sign_flip = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
    brackets = [(theta[i], theta[i + 1]) for i in sign_flip]
    exact_zero = theta[:-1][f[:-1] == 0.0]
    oracle = sorted(float(z) for z in exact_zero) + \
        [0.5 * (a + b) for a, b in brackets]
    oracle = sorted(t % TWO_PI for t in oracle)
    ours = sorted(e.theta for e in find_equilibria(lam, params))
    assert len(ours) == len(oracle)
    for a, b in zip(ours, oracle):
        assert a == pytest.approx(b, abs=1e-5)


def test_tilted_point_has_two_equilibria(params):
    eqs = find_equilibria(LambdaPoint(0.2, 0.1), params)
    assert len(eqs) == 2
    kinds = sorted(e.kind for e in eqs)
    assert kinds == ["stable", "unstable"]


def test_equilibria_satisfy_first_order_condition(params, rng):
    for _ in range(25):
        lam = LambdaPoint(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for e in find_equilibria(lam, params):
            assert abs(effective_potential_dtheta(e.theta, lam, params)) <= 1e-9


def test_equilibria_count_even_and_in_range(params, rng):
    for _ in range(40):
        lam = LambdaPoint(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eqs = find_equilibria(lam, params)
        non_degen = [e for e in eqs if e.kind != "degenerate"]
        if len(non_degen) == len(eqs):
            assert len(eqs) in (2, 4)
        assert len([e for e in eqs if e.kind == "stable"]) == \
            len([e for e in eqs if e.kind == "unstable"]) or \
            any(e.kind == "degenerate" for e in eqs)


def test_mirror_symmetry_of_equilibria(params, rng):
    for _ in range(15):
        lam = LambdaPoint(rng.uniform(-1, 1), rng.uniform(0.05, 1))
        mirrored = LambdaPoint(lam.lambda1, -lam.lambda2)
        eqs = sorted(find_equilibria(lam, params), key=lambda e: e.theta % TWO_PI)
        eqs_m = sorted(find_equilibria(mirrored, params),
                       key=lambda e: (-e.theta) % TWO_PI)
        assert len(eqs) == len(eqs_m)
        for a, b in zip(eqs, eqs_m):
            gap = abs(a.theta % TWO_PI - (-b.theta) % TWO_PI)
            assert min(gap, TWO_PI - gap) <= 1e-9
            assert a.kind == b.kind


def test_gamma1_points_have_degenerate_equilibrium(params):
    curve = gamma1_curve(64)
    for lam1, lam2 in curve:
        if abs(abs(lam1) - 0.25) < 1e-9 and abs(lam2) < 1e-9:
            continue  # cusps are the curve endpoints in each half plane
        eqs = find_equilibria(LambdaPoint(lam1, lam2), params)
        assert min(abs(e.second_derivative) for e in eqs) <= 1e-6


def _oracle_equilibria(lam, params, n=2**16):
    """Independent root finder: sign changes of Ubar' on a periodic grid.

    Returns (theta, stable) pairs; a root is stable where Ubar' turns
    from negative to positive.
    """
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    f = effective_potential_dtheta(theta, lam, params)
    after = np.roll(f, -1)
    exact = np.nonzero(f == 0.0)[0]
    flips = np.nonzero(f * after < 0.0)[0]
    roots = [(theta[i], after[i] > 0.0) for i in exact]
    roots += [(theta[i] + np.pi / n, after[i] > 0.0) for i in flips]
    return roots


def _circular_gap(a, b):
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


def _assert_matches_oracle(lam, params):
    eqs = find_equilibria(lam, params)
    oracle = _oracle_equilibria(lam, params)
    assert len(eqs) == len(oracle)
    for theta, stable in oracle:
        e = min(eqs, key=lambda e: _circular_gap(e.theta, theta))
        assert _circular_gap(e.theta, theta) <= TWO_PI / 2**16
        assert e.kind == ("stable" if stable else "unstable")
        assert 0.0 <= e.theta < TWO_PI


# Gamma_1 (closed curve) and Gamma_2 (ray) for l = g = 1, for the test only
_T = np.linspace(0.0, TWO_PI, 100_000, endpoint=False)
_GAMMA1 = np.column_stack([np.cos(_T)**3 / 2 - 3 * np.cos(_T) / 4,
                           np.sin(_T)**3 / 2])


def _distance_to_bifurcation_set(l1, l2):
    d_gamma1 = np.hypot(_GAMMA1[:, 0] - l1, _GAMMA1[:, 1] - l2).min()
    d_gamma2 = abs(l2) if l1 >= 0.25 else np.hypot(l1 - 0.25, l2)
    return min(d_gamma1, d_gamma2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_equilibria_match_dense_scan_oracle_off_the_curves(l1, l2):
    assume(_distance_to_bifurcation_set(l1, l2) >= 1e-3)
    _assert_matches_oracle(LambdaPoint(l1, l2), PendulumParams())


@pytest.mark.parametrize("size", [0.0, 1e-300, 1e-16, 1e-8])
def test_tiny_lambda_keeps_classical_equilibria(params, size):
    for l1, l2 in [(size, 0.0), (0.0, size), (size, -size), (-size, size)]:
        lam = LambdaPoint(l1, l2)
        eqs = find_equilibria(lam, params)
        by_kind = {e.kind: e.theta for e in eqs}
        assert len(eqs) == 2 and set(by_kind) == {"stable", "unstable"}
        # the roots move by about 2 |Lambda| / (g l)
        assert _circular_gap(by_kind["stable"], 0.0) <= 3 * size + 1e-15
        assert _circular_gap(by_kind["unstable"], np.pi) <= 3 * size + 1e-15
        assert all(0.0 <= e.theta < TWO_PI for e in eqs)
        assert classify_region(lam, params) == PI1


@pytest.mark.parametrize("l, g", [(2.0, 0.5), (0.5, 3.0)])
def test_non_unit_pendulum_against_dense_scan_oracle(l, g):
    for l1, l2 in [(0.2, 0.1), (0.5, 1.0), (-0.6, 0.3), (0.05, 1.1), (1.2, -0.4)]:
        _assert_matches_oracle(LambdaPoint(l1, l2), PendulumParams(l=l, g=g))


#: The corners of the atlas-scan box [-1, 1] x [0, 1.2] at step 0.04.
BOX_L1, BOX_L2 = (a.ravel() for a in np.meshgrid(-1.0 + 0.04 * np.arange(51),
                                                 0.04 * np.arange(31), indexing="ij"))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-80, 20))
def test_classifier_is_invariant_under_scaling_by_g_l(k):
    """At g = c = 2**k, Ubar at c Lambda is c times Ubar at Lambda for g = 1,
    with every rounding scaled exactly, so labels, angles and kinds are
    the same bits and every potential is exactly c times its value."""
    c = 2.0**k
    unit, scaled = PendulumParams(), PendulumParams(l=1.0, g=c)
    codes = bifurcation._regions(BOX_L1, BOX_L2, unit)
    assert bifurcation._regions(c * BOX_L1, c * BOX_L2, scaled).tobytes() == codes.tobytes()
    theta, kind, pot, _ = bifurcation._equilibria(BOX_L1, BOX_L2, unit)
    theta_c, kind_c, pot_c, _ = bifurcation._equilibria(c * BOX_L1, c * BOX_L2, scaled)
    assert theta_c.tobytes() == theta.tobytes()
    assert np.array_equal(kind_c, kind)
    assert np.array_equal(pot_c, c * pot, equal_nan=True)


# ---------------------------------------------------------------------------
# region classification


def test_region_labels_match_portrait_captions(params):
    assert classify_region(LambdaPoint(0.0, 0.0), params) == PI1
    assert classify_region(LambdaPoint(0.2, 0.1), params) == PI1
    assert classify_region(LambdaPoint(0.5, 1.0), params) == PI2
    assert classify_region(LambdaPoint(0.5, -1.0), params) == PI2


def test_equal_well_ray_is_boundary(params):
    assert classify_region(LambdaPoint(0.5, 0.0), params) == BOUNDARY
    assert classify_region(LambdaPoint(0.8, 0.0), params) == BOUNDARY
    # the mirror locus (equal maxima) is not part of the reduced atlas
    assert classify_region(LambdaPoint(-0.5, 0.0), params) == PI2


def test_equal_pair_identified_by_limit_oracle(params):
    # approaching the ray from above, the stable pair's depths converge
    # while the unstable pair's values stay ~2 g l apart
    for eps in (1e-2, 1e-3, 1e-4):
        eqs = find_equilibria(LambdaPoint(0.5, eps), params)
        wells = sorted(e.potential for e in eqs if e.kind == "stable")
        hills = sorted(e.potential for e in eqs if e.kind == "unstable")
        assert len(wells) == 2 and len(hills) == 2
        assert abs(wells[1] - wells[0]) <= 3.0 * eps
        assert abs(hills[1] - hills[0]) == pytest.approx(2.0, abs=0.1)


def test_cusp_is_boundary(params):
    assert classify_region(LambdaPoint(0.25, 0.0), params) == BOUNDARY


# ---------------------------------------------------------------------------
# analytic curves


def test_gamma1_anchor_points():
    curve = gamma1_curve(32)
    t = np.linspace(0.0, TWO_PI, 32, endpoint=False)
    for t_val, expected in [(np.pi, (0.25, 0.0)), (0.0, (-0.25, 0.0)),
                            (np.pi / 2, (0.0, 0.5))]:
        i = int(np.argmin(np.abs(t - t_val)))
        assert curve[i, 0] == pytest.approx(expected[0], abs=1e-12)
        assert curve[i, 1] == pytest.approx(expected[1], abs=1e-12)


def test_gamma2_membership():
    ray = Gamma2Ray()
    assert ray.contains(LambdaPoint(0.3, 0.0))
    assert not ray.contains(LambdaPoint(0.25, 0.0))   # strict inequality
    assert not ray.contains(LambdaPoint(0.3, 0.01))


# ---------------------------------------------------------------------------
# numeric scan


def test_scan_boundary_hugs_analytic_curves(params):
    # coarse version of the full-box acceptance check
    scan = numeric_bifurcation_scan((0.0, 0.6), (0.0, 0.6), 0.02, params)
    assert len(scan.boundary_cells) > 0
    t = np.linspace(0, np.pi, 4001)
    gamma1 = np.column_stack([np.cos(t)**3 / 2 - 3 * np.cos(t) / 4,
                              np.sin(t)**3 / 2])
    keep = (gamma1[:, 0] >= 0) & (gamma1[:, 0] <= 0.6) & \
        (gamma1[:, 1] >= 0) & (gamma1[:, 1] <= 0.6)
    ray = np.column_stack([np.linspace(0.2501, 0.6, 1000), np.zeros(1000)])
    curves = np.vstack([gamma1[keep], ray])
    from scipy.spatial import cKDTree
    d1, _ = cKDTree(curves).query(scan.boundary_cells)
    d2, _ = cKDTree(scan.boundary_cells).query(curves)
    assert d1.max() <= 2 * 0.02
    assert d2.max() <= 2 * 0.02


def test_scan_inside_pi1_is_empty(params):
    scan = numeric_bifurcation_scan((-0.05, 0.05), (0.0, 0.05), 0.01, params)
    assert len(scan.boundary_cells) == 0
    assert np.all(scan.labels == PI1)


def test_scan_mirrors_under_lambda2_flip(params):
    up = numeric_bifurcation_scan((0.25, 0.45), (0.05, 0.25), 0.02, params)
    down = numeric_bifurcation_scan((0.25, 0.45), (-0.25, -0.05), 0.02, params)
    mirrored = np.column_stack([down.boundary_cells[:, 0],
                                -down.boundary_cells[:, 1]])
    a = set(map(tuple, np.round(up.boundary_cells, 9)))
    b = set(map(tuple, np.round(mirrored, 9)))
    assert a == b


@pytest.mark.parametrize("lambda1_range, step", [((-1e308, 1e308), 0.1), ((0.0, 0.4), 5e-324)],
                         ids=["range-overflows", "step-subnormal"])
def test_scan_with_infinitely_many_corners_raises(params, lambda1_range, step):
    # the corner count is infinite, and int() raises on it
    with pytest.raises(OverflowError):
        numeric_bifurcation_scan(lambda1_range, (0.0, 0.4), step, params)


def test_scan_over_many_chunks_matches_per_point_labels(params):
    scan = numeric_bifurcation_scan((-0.3, 0.7), (0.0, 0.6), 0.025, params)
    assert scan.labels.size > 2 * bifurcation._CHUNK
    assert scan.labels.size % bifurcation._CHUNK != 0
    for i, a in enumerate(scan.lambda1_corners):
        for j, b in enumerate(scan.lambda2_corners):
            assert scan.labels[i, j] == classify_region(LambdaPoint(a, b), params)
    assert {PI1, PI2, BOUNDARY} <= set(scan.labels.ravel())


# ---------------------------------------------------------------------------
# portraits


def test_portrait_classical_separatrix_level(params):
    portrait = phase_portrait(LambdaPoint(0.0, 0.0), params, theta_range=(-np.pi, np.pi),
                              p_range=(-3.0, 3.0), grid=(129, 129))
    assert len(portrait.separatrix_levels) == 1
    assert portrait.separatrix_levels[0] == pytest.approx(1.0, abs=1e-9)


def test_portrait_two_levels_in_pi2(params):
    portrait = phase_portrait(LambdaPoint(0.5, 1.0), params, theta_range=(-np.pi, np.pi),
                              p_range=(-3.0, 3.0), grid=(129, 129))
    assert len(portrait.separatrix_levels) == 2
    assert abs(portrait.separatrix_levels[1] - portrait.separatrix_levels[0]) > 1e-6


def test_portrait_grid_mirror_symmetry(params):
    a = phase_portrait(LambdaPoint(0.3, 0.2), params, theta_range=(-np.pi, np.pi),
                       p_range=(-3.0, 3.0), grid=(65, 65))
    b = phase_portrait(LambdaPoint(0.3, -0.2), params, theta_range=(-np.pi, np.pi),
                       p_range=(-3.0, 3.0), grid=(65, 65))
    # Hbar_b(-theta, p) == Hbar_a(theta, p); the theta axis is symmetric
    np.testing.assert_allclose(b.hbar[:, ::-1], a.hbar, atol=1e-13)


# ---------------------------------------------------------------------------
# perturbed coefficient traces


def test_trace_zero_amplitude(params):
    cfg1, cfg2 = default_noise_pair()
    grid = grid_for_periods(1.0, 2, 100)
    p1, p2 = simulate_pair(cfg1, cfg2, grid, seed=5)
    lambda1, lambda2 = instantaneous_lambda(p1.values, p2.values, NoiseAmplitudes(0.0, 0.0),
                                            convention="derived")
    assert np.all(lambda1 == 0.0) and np.all(lambda2 == 0.0)


def test_trace_time_average_matches_lambda_map(params):
    cfg1, cfg2 = default_noise_pair()
    amps = NoiseAmplitudes(0.3, 0.2)
    grid = grid_for_periods(1.0, 600, 300)
    p1, p2 = simulate_pair(cfg1, cfg2, grid, seed=23)
    from stochpend import estimate_ergodic_stats
    stats = estimate_ergodic_stats(cfg1, cfg2, grid, 23, burn_in_periods=100,
                                   batches=16)
    lambda1, lambda2 = instantaneous_lambda(p1.values, p2.values, amps, convention="derived")
    start = 100 * 300
    lam = lambda_from_stats(amps, stats, convention="derived")
    se1 = 0.25 * (amps.sigma1**2 * stats.se_c1 + amps.sigma2**2 * stats.se_c2)
    se2 = 0.5 * amps.sigma1 * amps.sigma2 * stats.se_c12
    assert abs(lambda1[start:].mean() - lam.lambda1) <= max(3 * se1, 1e-9)
    assert abs(lambda2[start:].mean() - lam.lambda2) <= max(3 * se2, 1e-9)


def test_trace_identical_channels_cancel(params, ou_config):
    amps = NoiseAmplitudes(0.4, 0.4)
    grid = grid_for_periods(1.0, 3, 100)
    p1, p2 = simulate_pair(ou_config, ou_config, grid, seed=2)
    lambda1, _ = instantaneous_lambda(p1.values, p2.values, amps, convention="derived")
    assert np.all(lambda1 == 0.0)
