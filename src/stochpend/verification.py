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
numbers), so monotonicity comparisons are coupled.  The ensembles run
through :func:`~stochpend.rpsde._ensemble`.  The exceedance check
decides a (level, seed) row early: once its running sup has passed delta
it leaves the batch at the end of its time tile, since the report keeps
only whether the sup passed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import (
    LambdaPoint,
    NoiseAmplitudes,
    PendulumParams,
    Trajectory,
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
    _ensemble,
    _noise_at,
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
    grid = grid_for_periods(pair_config[0].drift.tau, 2000, steps_per_period)
    return estimate_ergodic_stats(*pair_config, grid, splitmix64(master_seed),
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


def _sup_gaps(tiles, h: float, params: PendulumParams,
              sigma_levels: list[tuple[float, float]], lams: list[LambdaPoint],
              theta0: float, p0: float, delta: float) -> np.ndarray:
    """Running sup of |H - Hbar| per (level, noise column); shape (levels, width).

    ``tiles`` yields time-major noise tiles of shape (rows, width), as
    :func:`~stochpend.dynamics._rk4_nodes` reads them.  All levels run as
    one flat batch of (level, column) rows, row i on level i // width and
    column i % width, each with its own sigma, Lambda and noise column.
    A row whose sup has passed ``delta`` is decided: it leaves the batch
    at the end of its time tile and keeps the sup it had then, so with
    ``delta`` infinite every row runs to the last node.  A tile ends every
    as many nodes as the first tile holds, as
    :func:`~stochpend.rpsde._spans` cuts them.  Once no row is left, the
    remaining tiles are drawn only for their noise checks.  The gap is
    updated in place; as one expression it measured 5% slower.
    """
    tiles = iter(tiles)
    first = next(tiles)
    span, width = np.shape(first[0])
    sig = np.repeat(np.array(sigma_levels, dtype=float).reshape(-1, 2), width, axis=0)
    lam1, lam2 = np.repeat([(pt.lambda1, 2.0 * pt.lambda2) for pt in lams], width, axis=0).T
    rows = np.arange(len(sig))  # the flat index of each row left in the batch
    sup = np.empty(len(sig))
    gap, a, b, c = np.zeros((4, len(sig)))
    nodes = _rk4_nodes(theta0, p0, itertools.chain([first], tiles), h, params,
                       sig[:, 0], sig[:, 1], rows % width)
    for k, theta, p, S, ct, st in nodes:
        # gap = max(gap, |S (0.5 S - p / l) - (lam1 (2 ct ct - 1) + lam2 (st ct))|), in place
        np.multiply(S, 0.5, out=a)
        np.divide(p, params.l, out=b)
        np.subtract(a, b, out=a)
        np.multiply(S, a, out=a)
        np.multiply(ct, 2.0, out=b)
        np.multiply(b, ct, out=b)
        np.subtract(b, 1.0, out=b)
        np.multiply(lam1, b, out=b)
        np.multiply(st, ct, out=c)
        np.multiply(lam2, c, out=c)
        np.add(b, c, out=b)
        np.subtract(a, b, out=a)
        np.abs(a, out=a)
        np.maximum(gap, a, out=gap)
        if (k + 1) % span == 0:
            keep = gap <= delta
            if not keep.all():
                sup[rows[~keep]] = gap[~keep]
                rows, gap, lam1, lam2 = rows[keep], gap[keep], lam1[keep], lam2[keep]
                a, b, c = a[:len(rows)], b[:len(rows)], c[:len(rows)]
                if not len(rows):
                    break
                nodes.send(keep)
    sup[rows] = gap
    for _ in tiles:  # drawn only for their noise checks
        pass
    return sup.reshape(-1, width)


def exceedance_probability(delta: float, sigma_levels: list[tuple[float, float]],
                           ensemble_n: int, horizon_periods: int,
                           pair_config: PairConfig, initial, stats: ErgodicStats,
                           params: PendulumParams, steps_per_period: int,
                           burn_in_periods: int, master_seed: int,
                           convention: str) -> ExceedanceReport:
    """Fraction of seeds whose sup-gap over the horizon exceeds ``delta``.

    ``stats`` are the long-run noise moments (see :func:`calibration_stats`)
    that set each level's Lambda.  Each block of noise paths from
    :func:`~stochpend.rpsde._ensemble` (they do not depend on the coupling
    amplitudes) drives all sigma levels, in one batch, so the level
    comparison is coupled.  The block is read one time tile at a time, and
    only the running sup-gaps are kept, so the memory does not grow with
    the horizon.  The report keeps only whether each sup passed ``delta``,
    so a (level, seed) row is decided once it has (the first-passage
    argument) and leaves the batch at the end of that tile.  Paths start
    ``burn_in_periods`` before the horizon so the flow sees settled noise.
    A blow-up at any level raises :class:`BlowUpError` with its step
    counted from the horizon's start, unless its row was decided in an
    earlier tile; noise that is not finite raises it at its node when its
    tile is drawn, so an orbit that blows up in an earlier tile names the
    orbit's step.
    """
    tau = pair_config[0].drift.tau
    theta0, p0 = map(float, initial)
    lams = [lambda_from_stats(NoiseAmplitudes(*s), stats, convention)
            for s in sigma_levels]
    full_grid = grid_for_periods(tau, burn_in_periods + horizon_periods, steps_per_period)
    start = burn_in_periods * steps_per_period
    seeds = ensemble_seeds(master_seed, ensemble_n)
    job = partial(_sup_gaps, h=full_grid.h, params=params, sigma_levels=sigma_levels,
                  lams=lams, theta0=theta0, p0=p0, delta=delta)
    sup_gaps = _ensemble(job, pair_config, full_grid, seeds, start)
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
    return M1M2Decomposition(m1_samples=m1, m2=float(m2), delta_hat=delta_hat)


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
                  steps_per_period: int, master_seed: int) -> MomentBoundReport:
    """Empirical fourth/mixed moments on [0, tau] with affine-bound fits.

    The moments are taken at ``moment_times`` (2 .. ``steps_per_period + 1``)
    grid nodes of one period, evenly spread from 0 to tau.  The bound forms are
    sigma_i^4 (t Chat_i + |z_i|^4) for the fourth moments,
    sigma_1^2 sigma_2^2 (t Chat_12 + |z_1 z_2|) for the squared cross
    moment, and 3 sigma_i^3 sigma_j (t Ctilde_ij + |z_i^3 z_j|) for the
    cubic cross moments.
    """
    cfg1, cfg2 = pair_config
    tau = cfg1.drift.tau
    grid = grid_for_periods(tau, 1, steps_per_period)
    idx = np.round(np.linspace(0, steps_per_period, moment_times)).astype(int)
    # tau / spp * spp may exceed tau by one ulp; the node is still tau
    t_samples = np.minimum(grid.times()[idx], tau)
    # node-major, so each node's values lie contiguous and np.mean sums them pairwise
    at1, at2 = _noise_at(pair_config, grid, ensemble_seeds(master_seed, ensemble_n), idx)
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
                        convention: str, params: PendulumParams,
                        burn_in_periods: int, steps_per_period: int,
                        master_seed: int) -> DeviationScaling:
    """Mean |Ubar - Utilde| (and theta-derivatives) per coupling level.

    Ubar takes its Lambda from the long-run moments ``stats``.  The
    frozen-time potential is evaluated at the last node of each seed's
    burn-in, which :func:`~stochpend.rpsde._noise_at` gathers after
    drawing the burn-in span by span; the deviation is averaged over the
    theta grid and the ensemble.  The log-log slope needs at least 3
    levels with a sigma > 0 and positive deviations.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    grid = grid_for_periods(pair_config[0].drift.tau, burn_in_periods, steps_per_period)
    seeds = ensemble_seeds(master_seed, ensemble_n)
    xi1, xi2 = _noise_at(pair_config, grid, seeds, [grid.n])[:, 0, :, None]  # (seeds, 1) columns
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
