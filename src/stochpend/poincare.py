"""Stroboscopic (Poincare) sections of the noise-driven pendulum.

The driving noise has period tau in law, so a section holds the states
of an orbit at t = n tau, n = 0, 1, ...  They are taken exactly on
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
combined with the momentum difference in quadrature.  The ensemble
sections run through :func:`~stochpend.rpsde._ensemble`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bifurcation import UNSTABLE, Equilibrium, find_equilibria
from .dynamics import (
    LambdaPoint,
    PendulumParams,
    Trajectory,
    _rk4_nodes,
    averaged_hamiltonian,
    effective_potential,
    wrap_angle,
)
from .rng import ensemble_seeds
from .rpsde import PairConfig, _ensemble, grid_for_periods, period_stride

#: Equal averaged-energy bands over which the fill occupancy is also reported.
FILL_BANDS = 8


@dataclass
class StroboscopicSection:
    """Orbit states at t = n tau, n = 0, 1, ..., tau being the noise period."""

    theta: np.ndarray            # unwrapped, bitwise equal to trajectory states
    p: np.ndarray

    @property
    def theta_wrapped(self) -> np.ndarray:
        return wrap_angle(self.theta)


@dataclass
class FillReport:
    """Occupancy of a phase-plane grid by section points."""

    counts: np.ndarray
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
    return StroboscopicSection(theta=traj.theta[::k], p=traj.p[::k])


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
    theta = np.concatenate([s.theta_wrapped for s in sections])
    p = np.concatenate([s.p for s in sections])
    theta_edges = np.linspace(-np.pi, np.pi, grid[0] + 1)
    p_edges = np.linspace(-3.0, 3.0, grid[1] + 1)
    energy = averaged_hamiltonian(theta, p, lam, params)
    band_edges = np.linspace(energy.min(), energy.max(), FILL_BANDS + 1)
    # one pass over (band, theta, p) cells; the last bin of each axis is closed above
    cells, _ = np.histogramdd((energy, theta, p), bins=[band_edges, theta_edges, p_edges])
    counts = cells.sum(axis=0)
    return FillReport(counts=counts, occupancy=float((counts > 0).mean()),
                      band_edges=band_edges, band_occupancy=(cells > 0).mean(axis=(1, 2)))


def _sections(h: float, params: PendulumParams, sig: np.ndarray, stride: int,
              tiles, theta0: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """Section states of one block, shape (2, levels, sections, width): a job of
    :func:`~stochpend.rpsde._ensemble`.

    All levels run as one flat batch of (level, column) rows, as in
    :func:`~stochpend.verification._sup_gaps`; every ``stride``-th node is kept.
    """
    levels, width = len(sig), len(theta0)
    nodes = _rk4_nodes(np.tile(theta0, levels), np.tile(p0, levels), tiles, h, params,
                       *np.repeat(sig, width, axis=0).T, np.tile(np.arange(width), levels))
    states = np.stack([np.stack((th, p)) for k, th, p, *_ in nodes if k % stride == 0], axis=1)
    return states.reshape(2, -1, levels, width).swapaxes(1, 2)


def _section_cloud(pair_config: PairConfig, sigma_levels: list[tuple[float, float]],
                   params: PendulumParams, theta0, p0, seeds: np.ndarray,
                   horizon_periods: int, steps_per_period: int) -> np.ndarray:
    """Section points (theta, p) of an ensemble; shape (2, levels, n_sections, m).

    Each block of noise from :func:`~stochpend.rpsde._ensemble` is drawn
    once and drives every sigma level; the block is read one time tile at
    a time, and only the section states are kept.
    """
    grid = grid_for_periods(pair_config[0].drift.tau, horizon_periods, steps_per_period)
    sig = np.array(sigma_levels, dtype=float).reshape(-1, 2)
    m = len(seeds)
    job = partial(_sections, grid.h, params, sig, steps_per_period)
    return _ensemble(job, pair_config, grid, seeds, 0,
                     np.broadcast_to(theta0, (m,)), np.broadcast_to(p0, (m,)))


def equilibrium_concentration(e0: Equilibrium,
                              sigma_levels: list[tuple[float, float]],
                              ensemble_n: int, horizon_periods: int,
                              pair_config: PairConfig, params: PendulumParams,
                              steps_per_period: int,
                              master_seed: int) -> ConcentrationReport:
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
                               params: PendulumParams, horizon_periods: int,
                               steps_per_period: int,
                               master_seed: int) -> SplittingReport:
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
