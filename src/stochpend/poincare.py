"""Stroboscopic (Poincare) sections of the noise-driven pendulum.

The driving noise has period tau in law, so the natural discrete-time
picture samples orbits at t = 0 mod tau.  Sections are taken exactly on
trajectory grid nodes -- tau must be an integer multiple of the step h,
enforced rather than interpolated -- so section states are bitwise equal
to the corresponding trajectory states.

The empirical section statistics realize three qualitative claims about
the driven flow:

* section clouds from spread initial data fill the phase cylinder up to
  a remainder set by the coupling amplitudes (occupancy histograms);
* sections started at a stable averaged equilibrium concentrate on it as
  the amplitudes shrink (distance percentiles, common random numbers);
* points launched on an averaged separatrix disperse transversally with
  the amplitude (an exploratory probe; no quantitative splitting claim).

Distances live on the phase cylinder: angular difference modulo 2 pi
combined with the momentum difference in quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bifurcation import UNSTABLE, Equilibrium, find_equilibria
from .dynamics import (
    LambdaPoint,
    NoiseAmplitudes,
    PendulumParams,
    Trajectory,
    _rk4_nodes,
    averaged_hamiltonian,
    effective_potential,
    wrap_angle,
)
from .rng import ensemble_seeds
from .rpsde import PairConfig, _noise_chunks, grid_for_periods, period_stride

#: Equal averaged-energy bands over which the fill occupancy is also reported.
FILL_BANDS = 8


@dataclass
class StroboscopicSection:
    """Orbit states at integer multiples of the noise period."""

    tau: float
    times: np.ndarray
    theta: np.ndarray            # unwrapped, bitwise equal to trajectory states
    p: np.ndarray

    @property
    def theta_wrapped(self) -> np.ndarray:
        return wrap_angle(self.theta)


@dataclass
class FillReport:
    """Occupancy of a phase-plane grid by section points."""

    counts: np.ndarray
    theta_edges: np.ndarray
    p_edges: np.ndarray
    occupancy: float
    band_edges: np.ndarray
    band_occupancy: np.ndarray


@dataclass
class ConcentrationReport:
    """Section-point spread around a stable averaged equilibrium."""

    equilibrium_theta: float
    sigma_levels: list[tuple[float, float]]
    radii: np.ndarray            # 95th-percentile cylinder distance per level
    ensemble_n: int
    horizon_periods: int


@dataclass
class SplittingReport:
    """Transverse dispersion of section points launched on a separatrix."""

    lam: LambdaPoint
    saddle: Equilibrium
    sigma_levels: list[tuple[float, float]]
    spreads: np.ndarray          # 95th percentile of |Hbar - Hbar_sep| per level
    n_points: int


def stroboscope(traj: Trajectory, tau: float) -> StroboscopicSection:
    """Section of a trajectory at t = t0 + n tau, exactly on grid nodes."""
    k = period_stride(tau, traj.grid.h)
    times = traj.grid.times()[::k]
    return StroboscopicSection(tau=tau, times=times,
                               theta=traj.theta[::k], p=traj.p[::k])


def cylinder_distance(theta_a, p_a, theta_b, p_b) -> np.ndarray:
    """sqrt(dtheta^2 + dp^2) with the angular difference taken modulo 2 pi."""
    dtheta = wrap_angle(np.asarray(theta_a) - np.asarray(theta_b))
    dp = np.asarray(p_a) - np.asarray(p_b)
    return np.sqrt(dtheta**2 + dp**2)


def plane_fill_density(sections: list[StroboscopicSection], grid: tuple[int, int],
                       lam: LambdaPoint, params: PendulumParams) -> FillReport:
    """Fraction of phase-plane grid cells visited by section points.

    The cells split the box (-pi, pi) x (-3, 3) of the phase cylinder
    into ``grid`` equal parts, theta wrapped; points with |p| > 3 fall in
    no cell.  Points are also binned into ``FILL_BANDS`` equal bands of
    their averaged energy, and the occupancy is reported per band, so
    fills at different coupling levels can be compared energy by energy.
    """
    if grid[0] < 16 or grid[1] < 16:
        raise ValueError("occupancy grid must be at least 16x16")
    theta = np.concatenate([s.theta_wrapped for s in sections])
    p = np.concatenate([s.p for s in sections])
    theta_edges = np.linspace(-np.pi, np.pi, grid[0] + 1)
    p_edges = np.linspace(-3.0, 3.0, grid[1] + 1)
    counts, _, _ = np.histogram2d(theta, p, bins=[theta_edges, p_edges])
    occupancy = float((counts > 0).mean())
    energy = averaged_hamiltonian(theta, p, lam, params)
    band_edges = np.linspace(energy.min(), energy.max(), FILL_BANDS + 1)
    band_occ = np.empty(FILL_BANDS)
    for b in range(FILL_BANDS):
        hi_inc = energy <= band_edges[b + 1] if b == FILL_BANDS - 1 \
            else energy < band_edges[b + 1]
        sel = (energy >= band_edges[b]) & hi_inc
        cb, _, _ = np.histogram2d(theta[sel], p[sel], bins=[theta_edges, p_edges])
        band_occ[b] = (cb > 0).mean()
    return FillReport(counts=counts, theta_edges=theta_edges, p_edges=p_edges,
                      occupancy=occupancy, band_edges=band_edges,
                      band_occupancy=band_occ)


def _section_cloud(pair_config: PairConfig, sigma_levels: list[tuple[float, float]],
                   params: PendulumParams, theta0, p0, seeds: np.ndarray,
                   horizon_periods: int, steps_per_period: int) -> tuple[np.ndarray, np.ndarray]:
    """Section points (theta, p) of an ensemble; shape (levels, n_sections, m).

    Each noise chunk of :func:`~stochpend.rpsde._noise_chunks` is drawn
    once and drives every sigma level; the levels run stacked in one batch,
    with sigma held as (levels, 1) columns.
    """
    grid = grid_for_periods(pair_config[0].drift.tau, horizon_periods, steps_per_period)
    amps = [NoiseAmplitudes(*s) for s in sigma_levels]
    sig = np.array([(a.sigma1, a.sigma2) for a in amps]).reshape(-1, 2)
    m = len(seeds)
    theta0 = np.broadcast_to(theta0, (m,))
    p0 = np.broadcast_to(p0, (m,))
    out_theta = np.empty((len(sig), horizon_periods + 1, m))
    out_p = np.empty_like(out_theta)
    for rows, x1, x2 in _noise_chunks(pair_config, grid, seeds):
        shape = (len(sig), x1.shape[1])
        nodes = _rk4_nodes(np.broadcast_to(theta0[rows], shape),
                           np.broadcast_to(p0[rows], shape),
                           x1, x2, grid.h, params, sig[:, :1], sig[:, 1:])
        for k, th, p, *_ in nodes:
            if k % steps_per_period == 0:
                out_theta[:, k // steps_per_period, rows] = th
                out_p[:, k // steps_per_period, rows] = p
        del x1, x2, nodes  # before the next chunk is drawn
    return out_theta, out_p


def equilibrium_concentration(e0: Equilibrium,
                              sigma_levels: list[tuple[float, float]],
                              ensemble_n: int, horizon_periods: int,
                              pair_config: PairConfig,
                              params: PendulumParams = PendulumParams(),
                              steps_per_period: int = 1000,
                              master_seed: int = 0) -> ConcentrationReport:
    """95th-percentile section distance from a stable averaged equilibrium.

    Orbits start at (e0.theta, 0); the same seeds drive every sigma level,
    so the per-level radii are directly comparable.
    """
    if e0.kind != "stable":
        raise ValueError("concentration is measured around a stable equilibrium")
    seeds = ensemble_seeds(master_seed, ensemble_n)
    th, p = _section_cloud(pair_config, sigma_levels, params, e0.theta, 0.0, seeds,
                           horizon_periods, steps_per_period)
    dist = cylinder_distance(th, p, e0.theta, 0.0)
    radii = np.array([np.percentile(d, 95.0) for d in dist])
    return ConcentrationReport(equilibrium_theta=e0.theta,
                               sigma_levels=list(sigma_levels), radii=radii,
                               ensemble_n=ensemble_n, horizon_periods=horizon_periods)


def separatrix_initial_states(lam: LambdaPoint, params: PendulumParams,
                              n_points: int) -> tuple[np.ndarray, np.ndarray, Equilibrium]:
    """States on the averaged separatrix through the highest saddle.

    Momenta are energy-matched: p = +-l sqrt(2 (Hbar_sep - Ubar(theta)))
    on the admissible theta range, alternating branch signs.
    """
    eqs = find_equilibria(lam, params)
    saddles = [e for e in eqs if e.kind == UNSTABLE]
    if not saddles:
        raise ValueError(f"no saddle equilibrium at {lam}")
    saddle = max(saddles, key=lambda e: e.potential)
    h_sep = saddle.potential
    theta_grid = np.linspace(-np.pi, np.pi, 4 * n_points, endpoint=False)
    margin = effective_potential(theta_grid, lam, params)
    admissible = h_sep - margin >= 0.0
    theta_adm = theta_grid[admissible]
    if len(theta_adm) == 0:
        theta_adm = np.array([saddle.theta])
    take = np.linspace(0, len(theta_adm) - 1, n_points).round().astype(int)
    theta0 = theta_adm[take]
    gap = np.maximum(h_sep - effective_potential(theta0, lam, params), 0.0)
    p0 = params.l * np.sqrt(2.0 * gap)
    p0[1::2] *= -1.0
    return theta0, p0, saddle


def separatrix_splitting_probe(lam: LambdaPoint,
                               sigma_levels: list[tuple[float, float]],
                               n_points: int, pair_config: PairConfig,
                               params: PendulumParams = PendulumParams(),
                               horizon_periods: int = 10,
                               steps_per_period: int = 1000,
                               master_seed: int = 0) -> SplittingReport:
    """Transverse spread of section points launched on an averaged separatrix.

    The spread per level is the 95th percentile of |Hbar - Hbar_sep| over
    all section points; the averaged energy offset is the natural
    transverse coordinate near a separatrix.  Diagnostic only.
    """
    theta0, p0, saddle = separatrix_initial_states(lam, params, n_points)
    seeds = ensemble_seeds(master_seed, n_points)
    th, p = _section_cloud(pair_config, sigma_levels, params, theta0, p0, seeds,
                           horizon_periods, steps_per_period)
    offset = np.abs(averaged_hamiltonian(th, p, lam, params) - saddle.potential)
    spreads = np.array([np.percentile(o, 95.0) for o in offset])
    return SplittingReport(lam=lam, saddle=saddle, sigma_levels=list(sigma_levels),
                           spreads=spreads, n_points=n_points)
