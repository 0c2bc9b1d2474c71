"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with output visible:

    pytest tests/test_acceptance.py -s

The suite is deterministic (fixed seeds everywhere) but Monte Carlo heavy;
expect a few minutes of wall time.  Criterion 5b is marked strict-xfail:
the half-turn identity it asserts does not hold for this potential (the
reflection negates the potential; see tests/test_dynamics.py for the
identity that does hold), so the faithful assertion fails by construction.
"""

import json

import numpy as np
import pytest
from scipy.spatial import cKDTree

from stochpend import (
    LambdaPoint,
    NoiseAmplitudes,
    NoiseChannelConfig,
    PathGrid,
    PathSample,
    PeriodicDriftSpec,
    averaged_flow,
    chebyshev_consistency,
    classify_region,
    effective_potential,
    equilibrium_concentration,
    estimate_ergodic_stats,
    exact_flow,
    exceedance_probability,
    find_equilibria,
    gamma1_curve,
    gamma2_ray,
    hamiltonian_partials,
    law_periodicity_check,
    m1m2_decomposition,
    momentum_from_velocity,
    numeric_bifurcation_scan,
    phase_portrait,
    potential_deviation,
    simulate_pair,
    velocity_from_momentum,
)
from stochpend.rpsde import grid_for_periods
from stochpend.rng import ensemble_seeds
from stochpend.verification import calibration_stats
from stochpend.presets import default_noise_pair
from stochpend.cli import EXIT_OK, main as cli_main

MASTER_SEED = 2025


def report(number: str, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


@pytest.fixture(scope="module")
def calib():
    return calibration_stats(default_noise_pair(), MASTER_SEED, steps_per_period=1000)


# criterion 1 -----------------------------------------------------------------

def test_criterion_1_curve_anchors():
    curve = gamma1_curve(512)
    t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    ok = True
    for t_val, (e1, e2) in [(np.pi, (0.25, 0.0)), (0.0, (-0.25, 0.0)),
                            (np.pi / 2, (0.0, 0.5))]:
        i = int(np.argmin(np.abs(t - t_val)))
        ok &= abs(curve[i, 0] - e1) <= 1e-12 and abs(curve[i, 1] - e2) <= 1e-12
    ray = gamma2_ray()
    ok &= ray.contains(LambdaPoint(0.25 + 1e-9, 0.0))
    ok &= not ray.contains(LambdaPoint(0.25, 0.0))
    report("1", "curve anchors at (0.25,0), (-0.25,0), (0,0.5); "
           "ray boundary strict at 0.25", bool(ok))


# criterion 2 -----------------------------------------------------------------

def test_criterion_2_equilibria_counts(params):
    expected = {(0.0, 0.0): (1, 1), (0.2, 0.1): (1, 1),
                (0.5, 1.0): (2, 2), (0.5, -1.0): (2, 2)}
    ok = True
    for (l1, l2), (n_stable, n_unstable) in expected.items():
        eqs = find_equilibria(LambdaPoint(l1, l2), params)
        stable = sum(e.kind == "stable" for e in eqs)
        unstable = sum(e.kind == "unstable" for e in eqs)
        ok &= (stable, unstable) == (n_stable, n_unstable)
        ok &= len(eqs) == n_stable + n_unstable
    report("2", "equilibria counts and stability splits at the four "
           "portrait points", bool(ok))


# criterion 3 -----------------------------------------------------------------

def test_criterion_3_scan_matches_curves(params):
    scan = numeric_bifurcation_scan((-1.0, 1.0), (0.0, 1.2), 0.01, params)
    t = np.linspace(0, np.pi, 40001)
    gamma1 = np.column_stack([np.cos(t)**3 / 2 - 3 * np.cos(t) / 4,
                              np.sin(t)**3 / 2])
    inbox = (gamma1[:, 0] >= -1) & (gamma1[:, 0] <= 1) & \
        (gamma1[:, 1] >= 0) & (gamma1[:, 1] <= 1.2)
    ray = np.column_stack([np.linspace(0.25, 1.0, 20000)[1:],
                           np.zeros(19999)])
    curves = np.vstack([gamma1[inbox], ray])
    d_cells, _ = cKDTree(curves).query(scan.boundary_cells)
    d_curve, _ = cKDTree(scan.boundary_cells).query(curves)
    ok = d_cells.max() <= 0.02 and d_curve.max() <= 0.02
    report("3", "scan boundary cells within 0.02 of the analytic curves, "
           "two-sided", bool(ok),
           f"max cell->curve {d_cells.max():.4f}, curve->cell {d_curve.max():.4f}")


# criterion 4 -----------------------------------------------------------------

def test_criterion_4_classical_limit(params):
    lam = LambdaPoint(0.0, 0.0)
    eqs = find_equilibria(lam, params)
    kinds = {round(e.theta, 6): e.kind for e in eqs}
    ok = kinds.get(0.0) == "stable" and kinds.get(round(np.pi, 6)) == "unstable"
    portrait = phase_portrait(lam, params)
    ok &= abs(portrait.separatrix_levels[0] - 1.0) <= 1e-9
    traj = averaged_flow((0.01, 0.0), lam, params, 1e-3, 20000)
    p = traj.p
    t = traj.grid.times()
    up = np.nonzero((p[:-1] < 0) & (p[1:] >= 0))[0]
    crossings = t[up] - p[up] / (p[up + 1] - p[up]) * 1e-3
    period = np.diff(crossings).mean()
    ok &= abs(period - 2 * np.pi) / (2 * np.pi) < 0.01
    report("4", "classical limit: pendulum equilibria, separatrix level 1, "
           "small-oscillation period",
           bool(ok), f"period {period:.6f}")


# criterion 5 -----------------------------------------------------------------

def test_criterion_5a_mirror_symmetry(params):
    rng = np.random.default_rng(MASTER_SEED)
    n = 10_000
    theta = rng.uniform(-8, 8, n)
    l1 = rng.uniform(-1, 1, n)
    l2 = rng.uniform(-1, 1, n)
    worst = 0.0
    for i in range(n):
        a = effective_potential(-theta[i], LambdaPoint(l1[i], -l2[i]), params)
        b = effective_potential(theta[i], LambdaPoint(l1[i], l2[i]), params)
        worst = max(worst, abs(a - b))
    eqs = find_equilibria(LambdaPoint(0.3, 0.2), params)
    eqs_m = find_equilibria(LambdaPoint(0.3, -0.2), params)
    mirrored = sorted((-e.theta) % (2 * np.pi) for e in eqs_m)
    direct = sorted(e.theta % (2 * np.pi) for e in eqs)
    ok = worst <= 1e-13 and np.allclose(mirrored, direct, atol=1e-9)
    report("5a", "mirror symmetry Ubar(-theta; L1, -L2) = Ubar(theta; L1, L2) "
           "and mirrored equilibria", bool(ok), f"max |diff| {worst:.2e}")


@pytest.mark.xfail(strict=True,
                   reason="the half-turn reflection negates the potential "
                          "(Ubar(pi-theta; -L1, L2) = -Ubar(theta; L1, L2)); "
                          "the identity as stated cannot hold")
def test_criterion_5b_half_turn_symmetry_as_stated(params):
    rng = np.random.default_rng(MASTER_SEED + 1)
    n = 10_000
    theta = rng.uniform(-8, 8, n)
    l1 = rng.uniform(-1, 1, n)
    l2 = rng.uniform(-1, 1, n)
    worst = 0.0
    for i in range(n):
        a = effective_potential(np.pi - theta[i], LambdaPoint(-l1[i], l2[i]),
                                params)
        b = effective_potential(theta[i], LambdaPoint(l1[i], l2[i]), params)
        worst = max(worst, abs(a - b))
    report("5b", "half-turn identity Ubar(pi-theta; -L1, L2) = "
           "Ubar(theta; L1, L2) as stated", worst <= 1e-13,
           f"max |diff| {worst:.2e}; the sign-flipped identity holds instead")


# criterion 6 -----------------------------------------------------------------

def test_criterion_6_numerics_suite(params):
    rng = np.random.default_rng(MASTER_SEED + 2)
    amps = NoiseAmplitudes(0.4, 0.3)
    # analytic partials vs central differences
    step = 1e-6
    worst = 0.0
    from stochpend import exact_hamiltonian
    for _ in range(1000):
        th = rng.uniform(-np.pi, np.pi)
        p = rng.uniform(-2, 2)
        x1, x2 = rng.normal(size=2)
        fd_th = (exact_hamiltonian(th + step, p, x1, x2, params, amps)
                 - exact_hamiltonian(th - step, p, x1, x2, params, amps)) / (2 * step)
        fd_p = (exact_hamiltonian(th, p + step, x1, x2, params, amps)
                - exact_hamiltonian(th, p - step, x1, x2, params, amps)) / (2 * step)
        an_th, an_p = hamiltonian_partials(th, p, x1, x2, params, amps)
        scale = max(1.0, abs(an_th), abs(an_p))
        worst = max(worst, abs(fd_th - an_th) / scale, abs(fd_p - an_p) / scale)
    ok = worst <= 1e-6

    # momentum/velocity round trip
    theta = rng.uniform(-8, 8, 1000)
    theta_dot = rng.uniform(-4, 4, 1000)
    x1 = rng.normal(size=1000)
    x2 = rng.normal(size=1000)
    p = momentum_from_velocity(theta, theta_dot, x1, x2, params, amps)
    back = velocity_from_momentum(theta, p, x1, x2, params, amps)
    ok &= np.abs(back - theta_dot).max() <= 1e-12

    # leapfrog drift over 1e4 steps at h = 1e-3
    traj_avg = averaged_flow((0.1, 0.0), LambdaPoint(0.0, 0.0),
                             params, 1e-3, 10_000)
    drift_avg = np.abs(traj_avg.energy - traj_avg.energy[0]).max()
    ok &= drift_avg <= 1e-8

    # exact flow at sigma = 0 over 1e5 steps
    grid = PathGrid(0.0, 1e-3, 100_000)
    zeros = np.zeros(grid.n + 1)
    pair = (PathSample(grid, zeros), PathSample(grid, zeros))
    traj = exact_flow((0.1, 0.0), pair, params,
                      NoiseAmplitudes(0.0, 0.0))
    drift_exact = np.abs(traj.energy - traj.energy[0]).max()
    ok &= drift_exact <= 1e-8
    report("6", "numerics: partials vs finite differences, momentum round "
           "trip, leapfrog and exact-flow energy drift", bool(ok),
           f"fd worst {worst:.2e}, leapfrog {drift_avg:.2e}, "
           f"exact {drift_exact:.2e}")


# criterion 7 -----------------------------------------------------------------

def test_criterion_7_ergodic_oracle():
    cfg = NoiseChannelConfig(drift=PeriodicDriftSpec(tau=1.0, alpha=1.0),
                             beta=float(np.sqrt(2.0)))
    grid = grid_for_periods(1.0, 10_100, 1000)
    stats = estimate_ergodic_stats(cfg, cfg, grid, MASTER_SEED, tau=1.0,
                                   burn_in_periods=100, batches=16)
    ok = abs(stats.c1 - 1.0) <= 3 * stats.se_c1
    ok &= abs(stats.mean1) <= 3 * stats.se_mean1
    ok &= abs(stats.mean2) <= 3 * stats.se_mean2
    report("7", "unit-variance channel: c1 within 3 se of 1, means within "
           "3 se of 0 over 10^4 periods", bool(ok),
           f"c1 = {stats.c1:.4f} +- {stats.se_c1:.4f}")


# criterion 8 -----------------------------------------------------------------

def test_criterion_8_law_periodicity():
    cfg = NoiseChannelConfig(
        drift=PeriodicDriftSpec(tau=1.0, alpha=1.0, forcing_amp=1.0),
        beta=0.5)
    grid = grid_for_periods(1.0, 52, 250)
    seeds = ensemble_seeds(MASTER_SEED, 2000)
    rep = law_periodicity_check(cfg, grid, seeds, s=50.0, lag=1.0)
    report("8", "ensemble law at s vs s + tau below the 5% KS critical "
           "value (N = 2000)", rep.passed,
           f"statistic {rep.statistic:.4f} < {rep.critical_value:.4f}")


# criterion 9 -----------------------------------------------------------------

def test_criterion_9_convergence_in_probability(params, calib):
    levels = [(0.4, 0.4), (0.2, 0.2), (0.1, 0.1), (0.05, 0.05)]
    rep = exceedance_probability(
        delta=0.05, sigma_levels=levels, ensemble_n=2000, horizon_periods=50,
        pair_config=default_noise_pair(), initial=(0.1, 0.0), params=params,
        steps_per_period=1000, burn_in_periods=20, master_seed=MASTER_SEED,
        stats=calib)
    probs = rep.probs
    ci = rep.ci_half_widths
    inversions = 0
    ok = True
    for i in range(len(levels) - 1):
        if probs[i + 1] > probs[i]:
            inversions += 1
            ok &= probs[i + 1] - ci[i + 1] <= probs[i] + ci[i]
    ok &= inversions <= 1
    ok &= probs[-1] < 0.5 * probs[0]
    report("9", "P(sup |H - Hbar| > 0.05) non-increasing in sigma and "
           "halved at the smallest level", bool(ok),
           "probs " + ", ".join(f"{p:.3f}" for p in probs))


# criterion 10 ----------------------------------------------------------------

def test_criterion_10_deviation_scaling(calib):
    theta_grid = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    levels = [(0.2, 0.2), (0.1, 0.1), (0.05, 0.05), (0.025, 0.025)]
    rep = potential_deviation(theta_grid, levels, ensemble_n=1000,
                              pair_config=default_noise_pair(),
                              burn_in_periods=50, steps_per_period=500,
                              master_seed=MASTER_SEED, stats=calib)
    ok = bool(np.all(rep.loglog_slope >= 0.9))
    report("10", "log-log slope of E|Ubar - Utilde| (and both "
           "theta-derivatives) vs max sigma is >= 0.9", ok,
           "slopes " + ", ".join(f"{s:.2f}" for s in rep.loglog_slope))


# criterion 11 ----------------------------------------------------------------

def test_criterion_11_concentration_inequality(params, calib):
    amps = NoiseAmplitudes(0.1, 0.1)
    grid = grid_for_periods(1.0, 10, 1000)
    pair = simulate_pair(*default_noise_pair(), grid, seed=MASTER_SEED)
    traj = exact_flow((0.1, 0.0), pair, params, amps)
    decomp = m1m2_decomposition(traj, pair, calib, params, amps, delta=0.05)
    rep = chebyshev_consistency(decomp)
    ok = rep.passed and rep.n_admissible >= 10_000
    report("11", "empirical P(M1 > delta_hat) within the second-moment "
           "bound on 10^4 admissible samples", bool(ok),
           f"empirical {rep.empirical:.4f} <= bound {rep.bound:.4f} "
           f"x {rep.slack:.4f}, n = {rep.n_admissible}")


# criterion 12 ----------------------------------------------------------------

def test_criterion_12_stroboscopic_concentration(params):
    eqs = find_equilibria(LambdaPoint(0.0, 0.0), params)
    e0 = next(e for e in eqs if e.kind == "stable")
    levels = [(0.0, 0.0), (0.2, 0.2), (0.1, 0.1), (0.05, 0.05)]
    rep = equilibrium_concentration(
        e0, levels, ensemble_n=1000, horizon_periods=20,
        pair_config=default_noise_pair(), params=params,
        steps_per_period=1000, master_seed=MASTER_SEED)
    r = rep.radii
    ok = r[0] <= 1e-9 and r[1] > r[2] > r[3]
    report("12", "section radii: 0 at sigma = 0 and strictly decreasing "
           "across 0.2, 0.1, 0.05 (N = 1000)", bool(ok),
           "radii " + ", ".join(f"{x:.3e}" for x in r))


# criterion 13 ----------------------------------------------------------------

def test_criterion_13_reproducibility(tmp_path):
    configs = {
        "simulate": {"grid": {"h": 0.01, "horizon_periods": 3},
                     "simulate": {"section": True}},
        "average": {"grid": {"h": 0.01},
                    "average": {"burn_in_periods": 20, "avg_periods": 150,
                                "batches": 8}},
        "atlas": {"atlas": {"samples": 64, "scan": True,
                            "box": [0.0, 0.4, 0.0, 0.4], "step": 0.1,
                            "scan_grid_n": 256}},
        "portrait": {"portrait": {"lambda1": 0.2, "lambda2": 0.1,
                                  "grid": [40, 40]}},
        "verify": {"grid": {"h": 0.01, "horizon_periods": 2},
                   "seeds": {"master": 4, "ensemble": 12},
                   "verify": {"run": ["exceedance", "moments"],
                              "sigma_levels": [[0.2, 0.2], [0.1, 0.1]],
                              "burn_in_periods": 2, "moment_times": 4}},
        "poincare": {"grid": {"h": 0.01, "horizon_periods": 4},
                     "seeds": {"master": 4, "ensemble": 10},
                     "poincare": {"run": ["concentration", "sections"],
                                  "sigma_levels": [[0.1, 0.1]],
                                  "sections_exported": 2}},
    }
    ok = True
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            code = cli_main([command, "--config", str(cfg_path),
                             "--out", str(out)])
            ok &= code == EXIT_OK
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        ok &= outs[0] == outs[1]
    report("13", "all six commands byte-identical on rerun", bool(ok))
