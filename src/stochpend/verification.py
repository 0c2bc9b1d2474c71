"""Monte Carlo checks of how close the exact system stays to the averaged one.

The quantities verified here:

* the pointwise gap |H - Hbar| along exact orbits, and the probability
  that its running supremum exceeds a threshold delta -- which must decay
  as the coupling amplitudes shrink;
* the concentration bound P(M_1 > delta_hat) <= E[M_1^2 / delta_hat^2]
  with M_1 the quadratic noise magnitude, M_2 its averaged counterpart
  and delta_hat = delta - |l thetadot S| - M_2 evaluated per sample (the
  threshold varies per sample, so the Markov form with the ratio inside
  the expectation is the inequality that holds verbatim);
* growth bounds of the fourth and mixed noise moments at evenly spread
  grid nodes of one period, of the affine form sigma-power (t Chat + |z|-power);
* the deviation E|Ubar - Utilde| of the frozen-time potential from the
  averaged one (plus both theta-derivatives), whose log-log slope against
  max(sigma_1, sigma_2) verifies the advertised O(max sigma) decay.

All experiments reuse one seed set across coupling levels (common random
numbers), so monotonicity comparisons are coupled, and iterate members in
sorted-seed order, so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    LambdaPoint,
    NoiseAmplitudes,
    PendulumParams,
    Trajectory,
    _as_state,
    _rk4_nodes,
    averaged_hamiltonian,
    exact_hamiltonian,
    instantaneous_lambda,
    lambda_from_stats,
    noise_coupling,
    velocity_from_momentum,
)
from .errors import SampleLengthError
from .rng import ensemble_seeds, splitmix64
from .rpsde import (
    ErgodicStats,
    PairConfig,
    PathSample,
    _noise_chunks,
    estimate_ergodic_stats,
    grid_for_periods,
)


@dataclass
class ExceedanceReport:
    """Empirical P(sup_t |H - Hbar| > delta) per coupling level."""

    delta: float
    sigma_levels: list[tuple[float, float]]
    probs: np.ndarray
    ci_half_widths: np.ndarray
    ensemble_n: int
    horizon_periods: int


@dataclass
class M1M2Decomposition:
    """Per-sample M_1, the constant M_2, and the residual threshold delta_hat."""

    m1_samples: np.ndarray
    m2: float
    delta_hat: np.ndarray
    delta: float


@dataclass
class ChebyshevReport:
    empirical: float
    bound: float
    slack: float
    n_admissible: int
    n_excluded: int
    passed: bool
    no_admissible: bool


@dataclass
class MomentBoundReport:
    """Empirical noise moments on [0, tau] and their affine domination fits."""

    t: np.ndarray
    fourth1: np.ndarray          # E|sigma_1 xi_1|^4
    fourth2: np.ndarray          # E|sigma_2 xi_2|^4
    cross22: np.ndarray          # E sigma_1^2 sigma_2^2 xi_1^2 xi_2^2
    cross31: np.ndarray          # E|sigma_1^3 sigma_2 xi_1^3 xi_2|
    cross13: np.ndarray          # E|sigma_1 sigma_2^3 xi_1 xi_2^3|
    fitted_constants: dict
    residuals: dict
    ensemble_n: int


@dataclass
class DeviationScaling:
    """E|Ubar - Utilde| (and theta-derivatives) per coupling level."""

    sigma_levels: list[tuple[float, float]]
    mean_abs_dev: np.ndarray     # shape (levels, 3): value, d/dtheta, d2/dtheta2
    loglog_slope: np.ndarray     # shape (3,)
    ensemble_n: int


def calibration_stats(pair_config: PairConfig, master_seed: int,
                      steps_per_period: int) -> ErgodicStats:
    """Long-run noise moments from a dedicated calibration path.

    2 000 periods, of which the first 100 are discarded, in 16 batches.
    The moments do not depend on the coupling amplitudes, so one
    calibration serves every sigma level of an experiment.  The
    calibration seed is derived from the master seed by avalanche, keeping
    it disjoint from the ensemble seeds master, master+1, ...
    """
    cfg1, cfg2 = pair_config
    tau = cfg1.drift.tau
    grid = grid_for_periods(tau, 2000, steps_per_period)
    return estimate_ergodic_stats(cfg1, cfg2, grid, splitmix64(master_seed), tau,
                                  burn_in_periods=100, batches=16)


def hamiltonian_gap(traj: Trajectory, pair: tuple[PathSample, PathSample],
                    lam: LambdaPoint, params: PendulumParams,
                    amps: NoiseAmplitudes) -> np.ndarray:
    """|H(theta(t), p(t), xi(t)) - Hbar(theta(t), p(t))| at every grid time."""
    p1, p2 = pair
    if p1.grid != traj.grid or p2.grid != traj.grid:
        raise ValueError("trajectory and paths must share one grid")
    h_exact = exact_hamiltonian(traj.theta, traj.p, p1.values, p2.values, params, amps)
    h_avg = averaged_hamiltonian(traj.theta, traj.p, lam, params)
    return np.abs(h_exact - h_avg)


def _sup_gaps(x1: np.ndarray, x2: np.ndarray, h: float, params: PendulumParams,
              sigma_levels: list[tuple[float, float]], lams: list[LambdaPoint],
              theta0: float, p0: float) -> np.ndarray:
    """Running sup of |H - Hbar| per (level, noise row); shape (levels, m).

    ``x1``/``x2`` are time-major noise values of shape (n+1, m).  All
    levels run as one stacked batch, with sigma and Lambda held as
    (levels, 1) columns over the shared noise rows.
    """
    sig = np.array(sigma_levels, dtype=float).reshape(-1, 2)
    lam = np.array([(pt.lambda1, 2.0 * pt.lambda2) for pt in lams]).reshape(-1, 2)
    shape = (len(sig), x1.shape[1])
    gap = np.zeros(shape)
    for _, theta, p, S, ct, st in _rk4_nodes(np.full(shape, theta0), np.full(shape, p0),
                                             x1, x2, h, params, sig[:, :1], sig[:, 1:]):
        step_gap = np.abs(S * (0.5 * S - p / params.l)
                          - (lam[:, :1] * (2.0 * ct * ct - 1.0) + lam[:, 1:] * (st * ct)))
        np.maximum(gap, step_gap, out=gap)
    return gap


def exceedance_probability(delta: float, sigma_levels: list[tuple[float, float]],
                           ensemble_n: int, horizon_periods: int,
                           pair_config: PairConfig, initial, stats: ErgodicStats,
                           params: PendulumParams = PendulumParams(),
                           steps_per_period: int = 1000,
                           burn_in_periods: int = 20,
                           master_seed: int = 0,
                           convention: str = "derived") -> ExceedanceReport:
    """Fraction of seeds whose sup-gap over the horizon exceeds ``delta``.

    ``stats`` are the long-run noise moments (see :func:`calibration_stats`)
    that set each level's Lambda.  Each chunk of noise paths from
    :func:`~stochpend.rpsde._noise_chunks` (they do not depend on the
    coupling amplitudes) drives all sigma levels, stacked in one batch, so
    the level comparison is coupled.  Paths start ``burn_in_periods``
    before the horizon so the flow sees settled noise.  A blow-up at any
    level raises :class:`BlowUpError` with its step.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if ensemble_n < 1:
        raise ValueError("ensemble_n must be >= 1")
    tau = pair_config[0].drift.tau
    theta0, p0 = _as_state(initial)
    lams = [lambda_from_stats(NoiseAmplitudes(*s), stats, convention)
            for s in sigma_levels]
    full_grid = grid_for_periods(tau, burn_in_periods + horizon_periods, steps_per_period)
    start = burn_in_periods * steps_per_period
    seeds = ensemble_seeds(master_seed, ensemble_n)
    sup_gaps = np.empty((len(sigma_levels), ensemble_n))
    for rows, x1, x2 in _noise_chunks(pair_config, full_grid, seeds, start):
        sup_gaps[:, rows] = _sup_gaps(x1, x2, full_grid.h, params, sigma_levels,
                                      lams, theta0, p0)
        del x1, x2  # before the next chunk is drawn
    probs = (sup_gaps > delta).mean(axis=1)
    ci = 1.96 * np.sqrt(probs * (1.0 - probs) / ensemble_n)
    return ExceedanceReport(delta=delta, sigma_levels=list(sigma_levels),
                            probs=probs, ci_half_widths=ci,
                            ensemble_n=ensemble_n,
                            horizon_periods=horizon_periods)


def m1m2_decomposition(traj: Trajectory, pair: tuple[PathSample, PathSample],
                       stats: ErgodicStats, params: PendulumParams,
                       amps: NoiseAmplitudes, delta: float) -> M1M2Decomposition:
    """Per-sample M_1 and delta_hat along an orbit.

    Substituting p = l^2 thetadot + l S into H and Hbar gives

        H - Hbar = -l thetadot S - S^2/2 - (Lambda_1 cos 2theta + Lambda_2 sin 2theta),

    so |H - Hbar| <= |l thetadot S| + M_1 + M_2 with

        M_1 = |s1 xi_1|^2 + 2 |s1 s2 xi_1 xi_2| + |s2 xi_2|^2  >=  S^2,
        M_2 = s1^2 C_1 + 2 |s1 s2 C_12| + s2^2 C_2  >=  |Lambda_1| + |Lambda_2|,

    M_2 being M_1 with the long-run moments in place of the noise
    products (the bound holds under both conventions).  Hence
    {|H - Hbar| > delta} lies inside {M_1 > delta_hat} for the per-sample
    threshold delta_hat = delta - |l thetadot S| - M_2.
    """
    p1, p2 = pair
    if p1.grid != traj.grid or p2.grid != traj.grid:
        raise ValueError("trajectory and paths must share one grid")
    x1, x2 = p1.values, p2.values
    a1 = np.abs(amps.sigma1 * x1)
    a2 = np.abs(amps.sigma2 * x2)
    m1 = a1**2 + 2.0 * a1 * a2 + a2**2
    m2 = abs(amps.sigma1**2 * stats.c1) \
        + 2.0 * abs(amps.sigma1 * amps.sigma2 * stats.c12) \
        + abs(amps.sigma2**2 * stats.c2)
    S = noise_coupling(traj.theta, x1, x2, amps)
    theta_dot = velocity_from_momentum(traj.theta, traj.p, x1, x2, params, amps)
    delta_hat = delta - np.abs(params.l * theta_dot * S) - m2
    return M1M2Decomposition(m1_samples=m1, m2=float(m2),
                             delta_hat=delta_hat, delta=delta)


def chebyshev_consistency(decomp: M1M2Decomposition) -> ChebyshevReport:
    """Check P(M_1 > delta_hat) against the second-moment bound.

    Only samples with delta_hat > 0 are admissible (the bound presumes a
    positive threshold); the rest are counted and excluded.  Because the
    threshold varies per sample, the bound is the Markov form
    E[M_1^2 / delta_hat^2], which dominates the indicator pointwise.
    """
    admissible = decomp.delta_hat > 0.0
    n_adm = int(admissible.sum())
    n_exc = int(len(decomp.delta_hat) - n_adm)
    if n_adm == 0:
        return ChebyshevReport(empirical=math.nan, bound=math.nan,
                               slack=math.nan, n_admissible=0,
                               n_excluded=n_exc, passed=False,
                               no_admissible=True)
    m1 = decomp.m1_samples[admissible]
    dh = decomp.delta_hat[admissible]
    empirical = float((m1 > dh).mean())
    bound = float(np.mean((m1 / dh) ** 2))
    slack = 1.0 + 3.0 / math.sqrt(n_adm)
    return ChebyshevReport(empirical=empirical, bound=bound, slack=slack,
                           n_admissible=n_adm, n_excluded=n_exc,
                           passed=empirical <= bound * slack,
                           no_admissible=False)


def _affine_domination_fit(t: np.ndarray, moments: np.ndarray,
                           power_scale: float, offset: float) -> tuple[float, float, np.ndarray]:
    """Fit m(t) <= power_scale (t Chat + offset).

    Returns (least-squares Chat, smallest dominating Chat, residuals of the
    dominating fit).  The dominating constant is the max over samples of
    (m/power_scale - offset)/t, clamped at zero, so domination holds by
    construction when the reported residuals are all >= 0.
    """
    y = moments / power_scale - offset
    pos = t > 0
    lsq = float(np.dot(t[pos], y[pos]) / np.dot(t[pos], t[pos]))
    dominating = float(max(0.0, np.max(y[pos] / t[pos]))) if pos.any() else 0.0
    residuals = power_scale * (t * dominating + offset) - moments
    return lsq, dominating, residuals


def moment_growth(pair_config: PairConfig, moment_times: int,
                  ensemble_n: int, amps: NoiseAmplitudes,
                  steps_per_period: int = 1000,
                  master_seed: int = 0) -> MomentBoundReport:
    """Empirical fourth/mixed moments on [0, tau] with affine-bound fits.

    The moments are taken at ``moment_times`` (2 .. ``steps_per_period + 1``)
    grid nodes of one period, evenly spread from 0 to tau.  The bound forms are
    sigma_i^4 (t Chat_i + |z_i|^4) for the fourth moments,
    sigma_1^2 sigma_2^2 (t Chat_12 + |z_1 z_2|) for the squared cross
    moment, and 3 sigma_i^3 sigma_j (t Ctilde_ij + |z_i^3 z_j|) for the
    cubic cross moments.
    """
    if ensemble_n < 2:
        raise ValueError("ensemble_n must be >= 2")
    if not 2 <= moment_times <= steps_per_period + 1:
        raise ValueError(f"moment_times must lie in 2 .. {steps_per_period + 1}, "
                         f"got {moment_times}")
    cfg1, cfg2 = pair_config
    tau = cfg1.drift.tau
    grid = grid_for_periods(tau, 1, steps_per_period)
    idx = np.round(np.linspace(0, steps_per_period, moment_times)).astype(int)
    # tau / spp * spp may exceed tau by one ulp; the node is still tau
    t_samples = np.minimum(grid.times()[idx], tau)
    seeds = ensemble_seeds(master_seed, ensemble_n)
    # node-major, so each node's values lie contiguous and np.mean sums them pairwise
    at1, at2 = np.empty((2, moment_times, ensemble_n))
    for rows, x1, x2 in _noise_chunks(pair_config, grid, seeds):
        at1[:, rows], at2[:, rows] = x1[idx], x2[idx]
        del x1, x2  # before the next chunk is drawn
    v1 = amps.sigma1 * at1.T
    v2 = amps.sigma2 * at2.T
    fourth1 = np.mean(v1**4, axis=0)
    fourth2 = np.mean(v2**4, axis=0)
    cross22 = np.mean(v1**2 * v2**2, axis=0)
    cross31 = np.mean(np.abs(v1**3 * v2), axis=0)
    cross13 = np.mean(np.abs(v1 * v2**3), axis=0)
    s1, s2 = amps.sigma1, amps.sigma2
    z1, z2 = cfg1.z0, cfg2.z0
    fits = {}
    residuals = {}
    specs = {
        "C1_hat": (fourth1, s1**4, abs(z1) ** 4),
        "C2_hat": (fourth2, s2**4, abs(z2) ** 4),
        "C12_hat": (cross22, s1**2 * s2**2, abs(z1 * z2)),
        "C12_tilde": (cross31, 3.0 * s1**3 * s2, abs(z1**3 * z2)),
        "C21_tilde": (cross13, 3.0 * s1 * s2**3, abs(z2**3 * z1)),
    }
    for name, (moments, scale, offset) in specs.items():
        if scale == 0.0:
            fits[name] = {"lsq": 0.0, "dominating": 0.0}
            residuals[name] = np.zeros_like(moments)
            continue
        lsq, dom, res = _affine_domination_fit(t_samples, moments, scale, offset)
        fits[name] = {"lsq": lsq, "dominating": dom}
        residuals[name] = res
    return MomentBoundReport(t=t_samples, fourth1=fourth1, fourth2=fourth2,
                             cross22=cross22, cross31=cross31, cross13=cross13,
                             fitted_constants=fits, residuals=residuals,
                             ensemble_n=ensemble_n)


def potential_deviation(theta_grid: np.ndarray,
                        sigma_levels: list[tuple[float, float]],
                        ensemble_n: int, pair_config: PairConfig,
                        stats: ErgodicStats,
                        convention: str = "derived",
                        params: PendulumParams = PendulumParams(),
                        burn_in_periods: int = 50,
                        steps_per_period: int = 1000,
                        master_seed: int = 0) -> DeviationScaling:
    """Mean |Ubar - Utilde| (and theta-derivatives) per coupling level.

    Ubar takes its Lambda from the long-run moments ``stats``.  The
    frozen-time potential is evaluated at the last node of each seed's
    burn-in, drawn by :func:`~stochpend.rpsde._noise_chunks`; the deviation
    is averaged over the theta grid and the ensemble.  Needs at least 3
    levels for the log-log slope.
    """
    if len(sigma_levels) < 3:
        raise SampleLengthError("need at least 3 sigma levels for a slope")
    theta_grid = np.asarray(theta_grid, dtype=float)
    grid = grid_for_periods(pair_config[0].drift.tau, burn_in_periods, steps_per_period)
    seeds = ensemble_seeds(master_seed, ensemble_n)
    xi1, xi2 = np.empty((2, ensemble_n, 1))
    for rows, x1, x2 in _noise_chunks(pair_config, grid, seeds, grid.n):
        xi1[rows, 0], xi2[rows, 0] = x1[0], x2[0]
        del x1, x2  # before the next chunk is drawn
    th = theta_grid[None, :]
    c2t, s2t = np.cos(2.0 * th), np.sin(2.0 * th)
    devs = np.empty((len(sigma_levels), 3))
    for i, (sg1, sg2) in enumerate(sigma_levels):
        amps = NoiseAmplitudes(sg1, sg2)
        lam = lambda_from_stats(amps, stats, convention)
        lt1, lt2 = instantaneous_lambda(xi1, xi2, amps, convention)
        d1 = lam.lambda1 - lt1
        d2 = lam.lambda2 - lt2
        # Ubar - Utilde: gravity cancels; the derived convention keeps the
        # constant part of Utilde, which enters the value but no derivative.
        const = -0.25 * ((sg1 * xi1) ** 2 + (sg2 * xi2) ** 2) \
            if convention == "derived" else 0.0
        diff = d1 * c2t + d2 * s2t + const
        ddiff = -2.0 * d1 * s2t + 2.0 * d2 * c2t
        d2diff = -4.0 * d1 * c2t - 4.0 * d2 * s2t
        devs[i] = [np.abs(diff).mean(), np.abs(ddiff).mean(), np.abs(d2diff).mean()]
    max_sigma = np.array([max(s) for s in sigma_levels])
    usable = (max_sigma > 0) & (devs > 0).all(axis=1)
    if usable.sum() < 3:
        raise SampleLengthError(
            "need at least 3 sigma levels with positive deviations for a slope")
    slopes = np.array([
        np.polyfit(np.log(max_sigma[usable]), np.log(devs[usable, j]), 1)[0]
        for j in range(3)
    ])
    return DeviationScaling(sigma_levels=list(sigma_levels),
                            mean_abs_dev=devs, loglog_slope=slopes,
                            ensemble_n=ensemble_n)
