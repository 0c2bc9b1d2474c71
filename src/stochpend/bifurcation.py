"""Equilibria and bifurcation atlas of the averaged pendulum.

Equilibria of the averaged system sit at the critical points of the
effective potential Ubar; their stability follows the sign of Ubar''.
In the (Lambda_1, Lambda_2) plane two curves separate the two portrait
types (with l = g = 1; :func:`atlas_curves` scales them by g l):

* Gamma_1, the degenerate-equilibrium locus, parametrized by
  (Lambda_1, Lambda_2) = (cos^3(t)/2 - 3 cos(t)/4, sin^3(t)/2), a closed
  curve with cusps at (+-1/4, 0) through (0, +-1/2);
* Gamma_2, the ray {Lambda_1 > 1/4, Lambda_2 = 0}, where the two
  potential wells have equal depth.

Inside Gamma_1 (region Pi_1) the potential has one minimum and one
maximum; outside (region Pi_2) two of each.  Crossing Gamma_2 the two
wells exchange depth.  Which pair of equilibria the equal-value test on
Gamma_2 compares was fixed by a limit experiment: approaching
(Lambda_1, Lambda_2) = (0.5, 0) along Lambda_2 -> 0, the equal-value pair
is the stable pair (the wells born when the bottom equilibrium splits at
Lambda_1 = 1/4), not the two maxima, whose values differ by 2 g l.  The
mirror locus where the two maxima have equal value is the Lambda_1 < -1/4
half of the axis, which the quadrant-reduced atlas does not draw; the
region classifier therefore tests well depths only.

Root finding is algebraic.  With z = e^{i theta}, z^2 Ubar'(theta) is the
quartic (L2 + i L1) z^4 - (i g l / 2) z^3 + (i g l / 2) z + (L2 - i L1),
so the equilibria are its roots on the unit circle: eigenvalues of
stacked 4x4 companion matrices, one batched call for many Lambda points
(companion-matrix rootfinding for trigonometric polynomials; J. P. Boyd,
SIAM J. Numer. Anal., 2002).  Simple roots are Newton-polished on
Ubar'.  Rounding splits a multiple root -- the hallmark of points on
Gamma_1 -- into a cluster just off the circle, so on-circle roots closer
than a small radius merge into one degenerate equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    LambdaPoint,
    PendulumParams,
    averaged_hamiltonian,
    effective_potential,
    effective_potential_d2theta,
    effective_potential_dtheta,
)

STABLE = "stable"
UNSTABLE = "unstable"
DEGENERATE = "degenerate"

PI1 = "pi1"
PI2 = "pi2"
BOUNDARY = "boundary"

#: Ubar'' band, relative to the problem magnitude, inside which an
#: equilibrium counts as degenerate.
DEGEN_TOL = 1e-9
#: Equal-well-depth band for the region classifier.
EQUAL_VALUE_TOL = 1e-9
#: |Lambda_2| up to which a point lies on the Gamma_2 ray.
GAMMA2_LAMBDA2_TOL = 1e-12

#: Lambda points per batched eigenvalue call.  It bounds the scan's
#: temporaries (about 1 kB per point) whatever the size of the grid.
_CHUNK = 512
#: Quartic roots with ||z| - 1| below this lie on the unit circle.  It
#: admits the ~1e-5 rounding split of the triple root at the cusps.
_ON_CIRCLE_TOL = 1e-4
#: On-circle roots closer than this (rad) are one degenerate equilibrium;
#: a double root on Gamma_1 splits into a pair ~1e-8 off the circle.
_MERGE_RADIUS = 1e-4
#: Below |Lambda_1| + |Lambda_2| = _TINY_LAMBDA g l the quartic's end
#: coefficients vanish to rounding; its roots are then seeded at 0 and pi.
_TINY_LAMBDA = 1e-8
#: Newton steps on Ubar' for each simple root.
_NEWTON_STEPS = 3

_KINDS = (STABLE, UNSTABLE, DEGENERATE)
_REGIONS = (PI1, PI2, BOUNDARY)

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Equilibrium:
    theta: float
    kind: str
    potential: float
    second_derivative: float


@dataclass(frozen=True)
class Gamma2Ray:
    """Equal-well-depth ray {Lambda_1 > min_lambda1, Lambda_2 = 0}.

    The default, 0.25, describes the l = g = 1 pendulum; :func:`atlas_curves`
    builds the ray of any other at g l / 4.
    """

    min_lambda1: float = 0.25

    def contains(self, lam: LambdaPoint) -> bool:
        return lam.lambda1 > self.min_lambda1 and abs(lam.lambda2) <= GAMMA2_LAMBDA2_TOL


@dataclass
class AtlasCurves:
    gamma1: np.ndarray
    gamma2: Gamma2Ray


@dataclass
class ScanResult:
    """Corner labels and boundary cells of a parameter-plane scan."""

    lambda1_corners: np.ndarray
    lambda2_corners: np.ndarray
    labels: np.ndarray            # corner labels, shape (n1, n2), values PI1/PI2/BOUNDARY
    boundary_cells: np.ndarray    # cell centers (k, 2)


@dataclass
class PhasePortrait:
    """Averaged-energy values on a phase-plane grid plus separatrix data."""

    theta: np.ndarray
    p: np.ndarray
    hbar: np.ndarray              # shape (len(p), len(theta))
    equilibria: list[Equilibrium]
    separatrix_levels: list[float]


def _problem_scale(l1: np.ndarray, l2: np.ndarray, params: PendulumParams) -> np.ndarray:
    return np.abs(l1) + np.abs(l2) + params.g * params.l


def _equilibria(l1: np.ndarray, l2: np.ndarray, params: PendulumParams):
    """Equilibria at the Lambda points (l1[k], l2[k]), one row per point.

    Returns ``(theta, kind, potential, second_derivative)``, each of shape
    (n, 4): angles in [0, 2pi) sorted per row, with kind an index into
    ``_KINDS``; unused slots hold nan and kind -1.
    """
    gl = params.g * params.l
    n = len(l1)
    tiny = np.abs(l1) + np.abs(l2) < _TINY_LAMBDA * gl
    lead = np.where(tiny, 1.0, l2 + 1j * l1)
    comp = np.zeros((n, 4, 4), dtype=complex)
    comp[:, 0, 0] = 0.5j * gl / lead
    comp[:, 0, 2] = -0.5j * gl / lead
    comp[:, 0, 3] = -np.conj(lead) / lead
    comp[:, [1, 2, 3], [0, 1, 2]] = 1.0
    z = np.linalg.eigvals(comp)
    z[tiny] = (1.0, -1.0, 0.0, 0.0)

    # an on-circle root within _MERGE_RADIUS of an earlier one joins it; the
    # earliest stands for the cluster, at the cluster's mean angle
    on = np.abs(np.abs(z) - 1.0) < _ON_CIRCLE_TOL
    u = np.where(on, np.exp(1j * np.angle(z)), 0.0)
    near = on[:, :, None] & on[:, None, :] \
        & (np.abs(np.angle(u[:, :, None] * u[:, None, :].conj())) < _MERGE_RADIUS)
    first = on & ~np.tril(near, -1).any(axis=2)
    size = np.where(first, near.sum(axis=2), 0)
    rep = np.where(first, np.angle((near * u[:, None, :]).sum(axis=2)), np.nan)

    lam = LambdaPoint(l1[:, None], l2[:, None])
    simple = size == 1
    for _ in range(_NEWTON_STEPS):
        du = effective_potential_dtheta(rep, lam, params)
        d2u = effective_potential_d2theta(rep, lam, params)
        step = np.divide(du, d2u, out=np.zeros_like(du), where=simple & (d2u != 0.0))
        rep = rep - step
    rep = np.mod(rep, _TWO_PI)
    rep = np.where(rep >= _TWO_PI, rep - _TWO_PI, rep)  # mod takes -1e-17 to 2pi

    upp = effective_potential_d2theta(rep, lam, params)
    band = DEGEN_TOL * _problem_scale(l1, l2, params)[:, None]
    kind = np.select([size == 0, (size > 1) | (np.abs(upp) < band), upp > 0],
                     [-1, 2, 0], 1)
    order = np.argsort(rep, axis=1)
    rep, kind, upp = (np.take_along_axis(a, order, axis=1) for a in (rep, kind, upp))
    return rep, kind, effective_potential(rep, lam, params), upp


def _regions(l1: np.ndarray, l2: np.ndarray, params: PendulumParams) -> np.ndarray:
    """Region code (index into ``_REGIONS``) of each Lambda point.

    Works through the points _CHUNK at a time, so the temporaries stay
    bounded whatever the number of points.
    """
    codes = np.empty(len(l1), dtype=np.int8)
    for lo in range(0, len(l1), _CHUNK):
        a, b = l1[lo:lo + _CHUNK], l2[lo:lo + _CHUNK]
        _, kind, pot, _ = _equilibria(a, b, params)
        stable = kind == 0
        depth_gap = np.where(stable, pot, -np.inf).max(axis=1) \
            - np.where(stable, pot, np.inf).min(axis=1)
        # a degenerate equilibrium makes the point BOUNDARY whatever the count
        count = np.where((kind == 2).any(axis=1), 0, (kind >= 0).sum(axis=1))
        pi2 = (count == 4) & (stable.sum(axis=1) == 2) \
            & (depth_gap > EQUAL_VALUE_TOL * _problem_scale(a, b, params))
        codes[lo:lo + _CHUNK] = np.select([count == 2, pi2], [0, 1], 2)
    return codes


def find_equilibria(lam: LambdaPoint, params: PendulumParams) -> list[Equilibrium]:
    """All critical points of Ubar on [0, 2pi), classified by Ubar''.

    At least two equilibria always exist; finding fewer raises.
    """
    theta, kind, pot, upp = (a[0] for a in _equilibria(
        np.array([lam.lambda1]), np.array([lam.lambda2]), params))
    eqs = [Equilibrium(float(t), _KINDS[k], float(u), float(d))
           for t, k, u, d in zip(theta, kind, pot, upp) if k >= 0]
    if len(eqs) < 2:
        raise RuntimeError(
            f"found {len(eqs)} equilibria at {lam}; at least 2 must exist")
    return eqs


def classify_region(lam: LambdaPoint, params: PendulumParams) -> str:
    """Label a parameter point PI1, PI2 or BOUNDARY.

    PI1: exactly 2 non-degenerate equilibria.  PI2: exactly 4, with the
    two wells at distinct depths.  BOUNDARY: any degenerate equilibrium
    (on Gamma_1) or equal well depths (on Gamma_2), within tolerance.
    """
    code = _regions(np.array([lam.lambda1]), np.array([lam.lambda2]), params)[0]
    return _REGIONS[code]


def gamma1_curve(samples: int) -> np.ndarray:
    """Degenerate-equilibrium curve of the l = g = 1 pendulum, sampled on a uniform parameter grid.

    Points (Lambda_1, Lambda_2) = (cos^3 t / 2 - 3 cos t / 4, sin^3 t / 2)
    for t uniform over [0, 2pi).  :func:`atlas_curves` scales them by g l
    for any other pendulum.
    """
    t = np.linspace(0.0, _TWO_PI, samples, endpoint=False)
    ct, st = np.cos(t), np.sin(t)
    return np.column_stack([ct**3 / 2.0 - 3.0 * ct / 4.0, st**3 / 2.0])


def atlas_curves(samples: int, params: PendulumParams) -> AtlasCurves:
    """The curves of the l = g = 1 atlas scaled by g l: Ubar / (g l) depends
    on Lambda only through Lambda / (g l), so they bound the regions of ``params``."""
    gl = params.g * params.l
    return AtlasCurves(gamma1=gl * gamma1_curve(samples), gamma2=Gamma2Ray(gl / 4.0))


def numeric_bifurcation_scan(lambda1_range: tuple[float, float],
                             lambda2_range: tuple[float, float],
                             step: float, params: PendulumParams) -> ScanResult:
    """Locate the bifurcation set by region labels alone.

    Every corner of a uniform cell grid is labeled as by
    :func:`classify_region`, in one batched pass; cells whose corners
    disagree (or touch a BOUNDARY corner) approximate the bifurcation set
    without using the analytic curve formulas.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    # infinitely many corners raise OverflowError in int()
    n1, n2 = (int(round((hi - lo) / step)) + 1 for lo, hi in (lambda1_range, lambda2_range))
    l1 = lambda1_range[0] + step * np.arange(n1)
    l2 = lambda2_range[0] + step * np.arange(n2)
    codes = _regions(np.repeat(l1, n2), np.tile(l2, n1), params).reshape(n1, n2)
    # a cell is on the boundary if its corners disagree or one is BOUNDARY
    quad = np.stack([codes[:-1, :-1], codes[1:, :-1], codes[:-1, 1:], codes[1:, 1:]])
    hi = quad.max(axis=0)
    ii, jj = np.nonzero((quad.min(axis=0) != hi) | (hi == 2))
    centers = np.column_stack([l1[ii] + 0.5 * step, l2[jj] + 0.5 * step])
    labels = np.array(_REGIONS, dtype=object)[codes]
    return ScanResult(lambda1_corners=l1, lambda2_corners=l2, labels=labels,
                      boundary_cells=centers)


def phase_portrait(lam: LambdaPoint, params: PendulumParams,
                   theta_range: tuple[float, float], p_range: tuple[float, float],
                   grid: tuple[int, int]) -> PhasePortrait:
    """Averaged-energy grid plus equilibria and separatrix levels.

    The separatrix levels are the Ubar values of the unstable equilibria;
    contouring at those levels draws the separatrices.
    """
    theta = np.linspace(*theta_range, grid[0])
    p = np.linspace(*p_range, grid[1])
    hbar = averaged_hamiltonian(theta[None, :], p[:, None], lam, params)
    eqs = find_equilibria(lam, params)
    levels = sorted(e.potential for e in eqs if e.kind == UNSTABLE)
    return PhasePortrait(theta=theta, p=p, hbar=hbar, equilibria=eqs,
                         separatrix_levels=levels)

