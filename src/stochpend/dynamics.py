"""Hamiltonian mechanics of the noise-driven pendulum.

A pendulum of rod length l (unit bob mass) hangs from a suspension point
whose position is perturbed by two integrated noise channels with
couplings sigma_1 (horizontal) and sigma_2 (vertical).  With the coupling
shorthand

    S(theta, t) = sigma_1 xi_1(t) cos(theta) + sigma_2 xi_2(t) sin(theta),

the conjugate momentum and Hamiltonian are

    p = l^2 thetadot + l S,
    H = p^2 / (2 l^2) - p S / l + S^2 / 2 - g l cos(theta),

where additive terms independent of theta have been dropped.  Averaging
the quadratic noise term over time replaces xi_i xi_j by their long-run
moments C_1, C_2, C_12 and yields the deterministic system

    Hbar = p^2 / (2 l^2) + Ubar(theta),
    Ubar = Lambda_1 cos(2 theta) + Lambda_2 sin(2 theta) - g l cos(theta).

Two conventions map (sigma, C) to (Lambda_1, Lambda_2):

* ``derived`` (the CLI default): Lambda_1 = (sigma_1^2 C_1 - sigma_2^2 C_2) / 4,
  so Hbar equals the pointwise ensemble mean of H's quadratic part (up to
  the retained additive constant);
* ``paper``: Lambda_1 = (sigma_1^2 C_1 - sigma_2^2 C_2) / 2, the factor
  printed in the source material.

Lambda_2 = sigma_1 sigma_2 C_12 / 2 under both conventions.

The exact flow treats the noise paths as an exogenous signal (a random
ODE), integrated with a fixed-step classical Runge-Kutta scheme on the
noise grid by one stepper, ``_rk4_nodes``, which every exact-flow caller
shares.  It reads the noise as time-major tiles (a whole path as one
tile, an ensemble's noise one span at a time).  Its float back-end
evaluates the right-hand side ``_rk4_rhs`` for one orbit; its array
back-end steps one flat batch of rows, each with its own couplings and
noise column, in place (measured faster), and can drop rows between
steps.  Its own docstring gives how it carries the state across tiles
and picks the back-end.  The stepper
yields S, cos(theta) and sin(theta) at each node, from which

    H - Hbar = S (S/2 - p/l) - (Lambda_1 (2 cos^2 theta - 1) + 2 Lambda_2 sin theta cos theta),

since the p^2/(2 l^2) and g l cos(theta) terms cancel.
``hamiltonian_partials`` returns (dH/dtheta, dH/dp) = (-pdot, thetadot)
from ``_rk4_rhs`` itself, so the partials checked against finite
differences of H are the field the stepper integrates (the test suite
checks the two back-ends bit for bit against each other).  The
instantaneous coefficients, the (Lambda_1, Lambda_2) map with the
products xi_i xi_j in place of the moments C, have one site,
``instantaneous_lambda``: the frozen-time potential and the deviation
check both read them from it.
The averaged flow uses kick-drift-kick leapfrog, which keeps Hbar
bounded.  Angles are unwrapped reals throughout; wrapping to (-pi, pi]
happens only at presentation level.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError
from .rpsde import ErgodicStats, PathGrid, PathSample

CONVENTIONS = ("derived", "paper")


@dataclass(frozen=True)
class PendulumParams:
    """Rod length and gravity; bob mass is fixed at 1."""

    l: float = 1.0
    g: float = 1.0

    def __post_init__(self):
        if not (self.l > 0 and math.isfinite(self.l)):
            raise ValueError(f"l must be positive, got {self.l}")
        if not (self.g > 0 and math.isfinite(self.g)):
            raise ValueError(f"g must be positive, got {self.g}")


@dataclass(frozen=True)
class NoiseAmplitudes:
    """Coupling amplitudes of the two noise channels."""

    sigma1: float
    sigma2: float

    def __post_init__(self):
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("sigma amplitudes must be >= 0")
        if not (math.isfinite(self.sigma1) and math.isfinite(self.sigma2)):
            raise ValueError("sigma amplitudes must be finite")


@dataclass(frozen=True)
class LambdaPoint:
    """Coefficients of the cos(2 theta) / sin(2 theta) terms of Ubar.

    Holds one point as two floats, or n points as two (n, 1) columns,
    which the potential formulas broadcast against an (n, k) theta array.
    Non-finite coefficients come from overflowed moments, so they raise
    ``FloatingPointError``, a numeric failure.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not np.isfinite([self.lambda1, self.lambda2]).all():
            raise FloatingPointError("lambda coefficients must be finite")


@dataclass
class Trajectory:
    """Integrated orbit on a uniform grid, with the energy along it."""

    grid: PathGrid
    theta: np.ndarray
    p: np.ndarray
    energy: np.ndarray


@dataclass
class BobEmbedding:
    """Cartesian bob position reconstructed from an orbit."""

    grid: PathGrid
    x: np.ndarray
    y: np.ndarray


def wrap_angle(theta):
    """Wrap angles to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)


def noise_coupling(theta, xi1, xi2, amps: NoiseAmplitudes):
    """S = sigma_1 xi_1 cos(theta) + sigma_2 xi_2 sin(theta)."""
    theta = np.asarray(theta, dtype=float)
    return amps.sigma1 * np.asarray(xi1) * np.cos(theta) + \
        amps.sigma2 * np.asarray(xi2) * np.sin(theta)


def momentum_from_velocity(theta, theta_dot, xi1, xi2,
                           params: PendulumParams, amps: NoiseAmplitudes):
    """p = l^2 thetadot + l S."""
    S = noise_coupling(theta, xi1, xi2, amps)
    return params.l**2 * np.asarray(theta_dot, dtype=float) + params.l * S


def velocity_from_momentum(theta, p, xi1, xi2,
                           params: PendulumParams, amps: NoiseAmplitudes):
    """thetadot = p / l^2 - S / l; exact inverse of momentum_from_velocity."""
    S = noise_coupling(theta, xi1, xi2, amps)
    return np.asarray(p, dtype=float) / params.l**2 - S / params.l


def exact_hamiltonian(theta, p, xi1, xi2,
                      params: PendulumParams, amps: NoiseAmplitudes):
    """H = p^2/(2 l^2) - p S / l + S^2/2 - g l cos(theta)."""
    theta = np.asarray(theta, dtype=float)
    p = np.asarray(p, dtype=float)
    l, g = params.l, params.g
    S = noise_coupling(theta, xi1, xi2, amps)
    return p**2 / (2.0 * l**2) - p * S / l + 0.5 * S**2 - g * l * np.cos(theta)


def hamiltonian_partials(theta, p, xi1, xi2,
                         params: PendulumParams, amps: NoiseAmplitudes):
    """Analytic (dH/dtheta, dH/dp): the vector field the RK4 stepper integrates."""
    dtheta, dp, *_ = _rk4_rhs(np.asarray(theta, dtype=float), np.asarray(p, dtype=float),
                              np.asarray(xi1), np.asarray(xi2), params.l, params.g,
                              amps.sigma1, amps.sigma2, np.cos, np.sin)
    return -dp, dtheta


def lambda1_factor(convention: str) -> float:
    """The Lambda_1 factor of ``convention``: 1/4 ``derived``, 1/2 ``paper``."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    return 0.25 if convention == "derived" else 0.5


def instantaneous_lambda(xi1, xi2, amps: NoiseAmplitudes, convention: str):
    """Instantaneous (Lambda_1, Lambda_2): the map of ``lambda_from_stats``
    with the products of the noise values in place of their moments."""
    xi1, xi2 = np.asarray(xi1), np.asarray(xi2)
    lambda1 = lambda1_factor(convention) * ((amps.sigma1 * xi1) ** 2
                                            - (amps.sigma2 * xi2) ** 2)
    lambda2 = 0.5 * amps.sigma1 * amps.sigma2 * xi1 * xi2
    return lambda1, lambda2


def instantaneous_potential(theta, xi1, xi2, params: PendulumParams,
                            amps: NoiseAmplitudes, convention: str):
    """Potential part of H before averaging, as a cos/sin(2 theta) form.

    ``derived`` keeps the additive constant so the result equals
    S^2/2 - g l cos(theta) exactly; ``paper`` uses the printed
    cos(2 theta) coefficient (sigma_1^2 xi_1^2 - sigma_2^2 xi_2^2)/2 and
    drops the constant.
    """
    lt1, lt2 = instantaneous_lambda(xi1, xi2, amps, convention)
    theta = np.asarray(theta, dtype=float)
    u = lt1 * np.cos(2.0 * theta) + lt2 * np.sin(2.0 * theta) \
        - params.g * params.l * np.cos(theta)
    if convention == "derived":
        u = u + 0.25 * ((amps.sigma1 * np.asarray(xi1)) ** 2
                        + (amps.sigma2 * np.asarray(xi2)) ** 2)
    return u


def effective_potential(theta, lam: LambdaPoint, params: PendulumParams):
    """Ubar = Lambda_1 cos(2 theta) + Lambda_2 sin(2 theta) - g l cos(theta)."""
    theta = np.asarray(theta, dtype=float)
    return lam.lambda1 * np.cos(2.0 * theta) + lam.lambda2 * np.sin(2.0 * theta) \
        - params.g * params.l * np.cos(theta)


def effective_potential_dtheta(theta, lam: LambdaPoint, params: PendulumParams):
    """Ubar' = -2 Lambda_1 sin(2 theta) + 2 Lambda_2 cos(2 theta) + g l sin(theta)."""
    theta = np.asarray(theta, dtype=float)
    return -2.0 * lam.lambda1 * np.sin(2.0 * theta) \
        + 2.0 * lam.lambda2 * np.cos(2.0 * theta) \
        + params.g * params.l * np.sin(theta)


def effective_potential_d2theta(theta, lam: LambdaPoint, params: PendulumParams):
    """Ubar'' = -4 Lambda_1 cos(2 theta) - 4 Lambda_2 sin(2 theta) + g l cos(theta)."""
    theta = np.asarray(theta, dtype=float)
    return -4.0 * lam.lambda1 * np.cos(2.0 * theta) \
        - 4.0 * lam.lambda2 * np.sin(2.0 * theta) \
        + params.g * params.l * np.cos(theta)


def averaged_hamiltonian(theta, p, lam: LambdaPoint, params: PendulumParams):
    """Hbar = p^2/(2 l^2) + Ubar(theta)."""
    p = np.asarray(p, dtype=float)
    return p**2 / (2.0 * params.l**2) + effective_potential(theta, lam, params)


def lambda_from_stats(amps: NoiseAmplitudes, stats: ErgodicStats,
                      convention: str) -> LambdaPoint:
    """Map (sigma, C) estimates to the effective-potential coefficients."""
    lambda1 = lambda1_factor(convention) * (amps.sigma1**2 * stats.c1
                                            - amps.sigma2**2 * stats.c2)
    lambda2 = 0.5 * amps.sigma1 * amps.sigma2 * stats.c12
    return LambdaPoint(lambda1=lambda1, lambda2=lambda2)


def _rk4_rhs(theta, p, x1, x2, l, g, s1, s2, cos, sin):
    ct, st = cos(theta), sin(theta)
    sx1 = s1 * x1
    sx2 = s2 * x2
    S = sx1 * ct + sx2 * st
    Sp = sx2 * ct - sx1 * st  # dS/dtheta
    dtheta = p / (l * l) - S / l
    dp = p * Sp / l - S * Sp - g * l * st
    return dtheta, dp, S, ct, st  # S, cos and sin give the node values


class _FloatSteps:
    """RK4 steps of one orbit on Python floats: the float back-end of :func:`_rk4_nodes`."""

    #: What ``math.cos``/``math.sin`` and float division raise where numpy gives inf or nan.
    blowups = (ValueError, ZeroDivisionError)

    def __init__(self, theta, p, h, params: PendulumParams, s1, s2):
        self.state = float(theta), float(p)
        self.coefs = (h, params.l, params.g, float(s1), float(s2), math.cos, math.sin)

    def start(self, xa):
        """The node values at the first node ``xa``; sets the first stage."""
        theta, p = self.state
        k1t, k1p, S, ct, st = _rk4_rhs(theta, p, *xa, *self.coefs[1:])
        self.state = theta, p, k1t, k1p
        return theta, p, S, ct, st

    def step(self, xa, xb):
        """One step from node ``xa`` to ``xb``: the node values there, or None if not finite."""
        theta, p, k1t, k1p = self.state
        h, l, g, s1, s2, cos, sin = self.coefs
        (xa1, xa2), (xb1, xb2) = xa, xb
        xm1 = 0.5 * (xa1 + xb1)
        xm2 = 0.5 * (xa2 + xb2)
        k2t, k2p, *_ = _rk4_rhs(theta + 0.5 * h * k1t, p + 0.5 * h * k1p,
                                xm1, xm2, l, g, s1, s2, cos, sin)
        k3t, k3p, *_ = _rk4_rhs(theta + 0.5 * h * k2t, p + 0.5 * h * k2p,
                                xm1, xm2, l, g, s1, s2, cos, sin)
        k4t, k4p, *_ = _rk4_rhs(theta + h * k3t, p + h * k3p,
                                xb1, xb2, l, g, s1, s2, cos, sin)
        theta = theta + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if not (math.isfinite(theta) and math.isfinite(p)):
            return None
        k1t, k1p, S, ct, st = _rk4_rhs(theta, p, xb1, xb2, l, g, s1, s2, cos, sin)
        self.state = theta, p, k1t, k1p
        return theta, p, S, ct, st


class _ArraySteps:
    """RK4 steps of a batch of orbits in place: the array back-end of :func:`_rk4_nodes`.

    Row i of the flat batch has couplings ``s1[i]``/``s2[i]`` and reads
    noise column ``col[i]``, taken per node.  Every array of a step is
    written into one block of buffers, allocated once; :meth:`keep`
    shrinks them to the kept rows.  Each operation is the IEEE double
    operation of ``_rk4_rhs`` and the float step, on the same operands in
    the same order, and the couplings times a noise value, which
    ``_rk4_rhs`` forms in each of the two stages that share it, are formed
    once.  Out-of-place steps through ``_rk4_rhs`` measured 9% slower.
    """

    blowups = ()

    def __init__(self, theta, p, h, params: PendulumParams, s1, s2, col, xa):
        self.h, self.l, self.g, self.s1, self.s2, self.col = h, params.l, params.g, s1, s2, col
        self.mid = [np.empty(np.shape(x)) for x in xa]  # the noise pair at a cell's midpoint
        self.buf = np.empty((21,) + col.shape)
        self.views = tuple(self.buf)
        self.ok = np.empty((2,) + col.shape, dtype=bool)
        self.buf[0], self.buf[1] = theta, p

    def keep(self, mask):
        """Keep only the rows of a flat batch where ``mask`` is true."""
        n = np.count_nonzero(mask)
        self.buf[:, :n] = self.buf[:, mask]
        self.buf, self.ok = self.buf[:, :n], self.ok[:, :n]
        self.views = tuple(self.buf)
        self.s1, self.s2, self.col = (a[mask] for a in (self.s1, self.s2, self.col))

    def _scaled(self, x, sx):
        """Each row's couplings times its column of the noise pair ``x``, into ``sx``."""
        for s, xc, out in zip((self.s1, self.s2), x, sx):
            xc.take(self.col, out=out, mode="clip")  # "clip" skips the buffered copy of "raise"
            np.multiply(s, out, out=out)

    def _rhs(self, theta, p, sx1, sx2, dtheta, dp):
        """``_rk4_rhs`` into ``dtheta``/``dp``, with S, cos and sin left in their buffers."""
        *_, S, ct, st = self.views[:7]
        Sp, tmp = self.views[19:]
        l, g = self.l, self.g
        np.cos(theta, out=ct)
        np.sin(theta, out=st)
        np.multiply(sx1, ct, out=S)
        np.multiply(sx2, st, out=tmp)
        np.add(S, tmp, out=S)
        np.multiply(sx2, ct, out=Sp)
        np.multiply(sx1, st, out=tmp)
        np.subtract(Sp, tmp, out=Sp)
        np.divide(p, l * l, out=dtheta)
        np.divide(S, l, out=tmp)
        np.subtract(dtheta, tmp, out=dtheta)
        np.multiply(p, Sp, out=dp)
        np.divide(dp, l, out=dp)
        np.multiply(S, Sp, out=tmp)
        np.subtract(dp, tmp, out=dp)
        np.multiply(st, g * l, out=tmp)
        np.subtract(dp, tmp, out=dp)

    def start(self, xa):
        """The node values at the first node ``xa``; sets the first stage."""
        theta, p, k1t, k1p, S, ct, st, *_, sb1, sb2, _, _ = self.views
        self._scaled(xa, (sb1, sb2))
        self._rhs(theta, p, sb1, sb2, k1t, k1p)
        return theta, p, S, ct, st

    def step(self, xa, xb):
        """One step from node ``xa`` to ``xb``: the node values there, or None if not finite."""
        (theta, p, k1t, k1p, S, ct, st, tt, pp, k2t, k2p, k3t, k3p, k4t, k4p,
         sm1, sm2, sb1, sb2, _, _) = self.views
        h = self.h
        for mid, a, b in zip(self.mid, xa, xb):
            np.add(a, b, out=mid)
            np.multiply(mid, 0.5, out=mid)
        self._scaled(self.mid, (sm1, sm2))
        self._scaled(xb, (sb1, sb2))
        stages = (((k1t, k1p), (k2t, k2p), 0.5 * h, sm1, sm2),
                  ((k2t, k2p), (k3t, k3p), 0.5 * h, sm1, sm2),
                  ((k3t, k3p), (k4t, k4p), h, sb1, sb2))
        for (kt, kp), (nt, npp), c, sx1, sx2 in stages:
            np.multiply(kt, c, out=tt)
            np.add(theta, tt, out=tt)
            np.multiply(kp, c, out=pp)
            np.add(p, pp, out=pp)
            self._rhs(tt, pp, sx1, sx2, nt, npp)
        for y, a, b, c, d in ((theta, k1t, k2t, k3t, k4t), (p, k1p, k2p, k3p, k4p)):
            np.multiply(b, 2.0, out=b)  # y + (h / 6) * (a + 2 b + 2 c + d)
            np.add(a, b, out=b)
            np.multiply(c, 2.0, out=c)
            np.add(b, c, out=b)
            np.add(b, d, out=b)
            np.multiply(b, h / 6.0, out=b)
            np.add(y, b, out=y)
        if not np.isfinite(self.buf[:2], out=self.ok).all():  # theta and p
            return None
        self._rhs(theta, p, sb1, sb2, k1t, k1p)
        return theta, p, S, ct, st


def _node_rows(tiles, rows):
    """The noise pair at each node of consecutive ``tiles``, as ``rows`` gives them.

    A tile's last node is copied, since the next tile may overwrite the
    buffer that it is a view of.
    """
    for xi1, xi2 in tiles:
        r1, r2 = rows(xi1), rows(xi2)
        yield from zip(r1[:-1], r2[:-1])
        if len(r1):
            yield copy.copy(r1[-1]), copy.copy(r2[-1])


def _rk4_nodes(theta, p, tiles, h, params: PendulumParams, s1, s2, col):
    """Classical RK4 on the noise grid; yields the state at every node.

    ``tiles`` is an iterable of time-major noise tiles ``(xi1, xi2)``
    (``xi[k]`` is the noise at the tile's row k) that cut nodes 0 .. n
    into consecutive disjoint pieces.  Each tile is read before the next
    is asked for; the state and a copy of the tile's last node are
    carried across, so the steps across tiles are the steps over one
    whole array, even when the next tile overwrites the buffer the last
    one was a view of.  With ``col`` None, ``theta``, ``p``, ``s1``, ``s2``
    and each node's noise are scalars: one orbit.  Otherwise the batch is
    flat: ``theta`` and ``p`` are scalars or one value per row, and row i
    has couplings ``s1[i]``/``s2[i]`` and reads column ``col[i]`` of each
    noise row.  The noise is linearly interpolated in each cell.  Yields
    ``(k, theta, p, S, cos theta, sin theta)`` for k = 0 .. n; the
    right-hand side at node k + 1 is the next step's first stage, so the
    node values cost no extra work.  Raises :class:`BlowUpError` with the
    first step at which any row blows up.

    A flat batch can drop rows: a boolean mask sent into the generator
    (``send(mask)``, answered by None) after node k keeps only the rows
    where it is true from step k + 1 on.

    The right-hand side of ``_rk4_rhs`` runs on one of two back-ends,
    chosen by ``col``.  One orbit (``col`` None) steps on Python floats
    with ``math.cos``/``math.sin`` and noise lists through ``_rk4_rhs``
    itself (:class:`_FloatSteps`), which skips the per-call overhead of
    numpy scalars; a flat batch steps on arrays in place
    (:class:`_ArraySteps`), and the arrays it yields are overwritten by
    the next step.  Both back-ends do the same IEEE double operations in
    the same order, so an orbit is bit-identical to the same orbit run as
    a one-row flat batch as long as numpy's float64 cos/sin round as
    the platform libm does.  numpy 2.4 on x86-64 Linux (AVX-512 included)
    does; a numpy build with its own vectorized float64 trig may differ in
    the last bit, and the test suite checks this.  ``math.cos``/``math.sin``
    raise ``ValueError`` on an infinite angle and Python float division
    raises ``ZeroDivisionError`` where numpy gives inf or nan; on the
    float back-end either one becomes ``BlowUpError(k + 1)``, the step at
    which the array back-end's finiteness check fails (step 1 for a
    non-finite start).
    """
    tiles = iter(tiles)
    first = next(tiles)
    if col is None:
        steps, rows = _FloatSteps(theta, p, h, params, s1, s2), np.ndarray.tolist
    else:
        steps = _ArraySteps(theta, p, h, params, s1, s2, col, (first[0][0], first[1][0]))
        rows = np.asarray
    nodes = _node_rows(itertools.chain([first], tiles), rows)
    step = steps.step
    k = 0  # the node the current step starts from
    try:
        xa = next(nodes)
        node = steps.start(xa)
        for xb in nodes:
            if (mask := (yield (k, *node))) is not None:
                steps.keep(mask)
                yield
            node = step(xa, xb)
            if node is None:
                raise BlowUpError(k + 1)
            xa = xb
            k += 1
        if (yield (k, *node)) is not None:  # a mask sent at the last node keeps nothing more
            yield
    except steps.blowups:
        raise BlowUpError(k + 1) from None


def exact_flow_ensemble(theta0, p0, xi1: np.ndarray, xi2: np.ndarray,
                        grid: PathGrid, params: PendulumParams,
                        amps: NoiseAmplitudes):
    """Classical 4th-order integration of one orbit of the noise-driven flow.

    ``theta0``/``p0`` are scalars and ``xi1``/``xi2`` value arrays of
    shape (n+1,) on ``grid``.  The noise is linearly interpolated inside
    each grid cell (the midpoint value is the endpoint average).  Returns
    (theta, p, energy) arrays over the grid nodes 0..n; ``energy`` is H at
    each node.

    Raises :class:`BlowUpError` with the offending step index if the state
    leaves the finite range.
    """
    xi1, xi2 = np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float)
    if len(xi1) != grid.n + 1 or len(xi2) != grid.n + 1:
        raise ValueError("noise values must have grid.n + 1 nodes")
    theta, p = np.empty(grid.n + 1), np.empty(grid.n + 1)
    nodes = _rk4_nodes(theta0, p0, [(xi1, xi2)], grid.h, params, amps.sigma1, amps.sigma2,
                       None)
    for k, th, mom, *_ in nodes:
        theta[k], p[k] = th, mom
    return theta, p, exact_hamiltonian(theta, p, xi1, xi2, params, amps)


def exact_flow(initial, pair: tuple[PathSample, PathSample],
               params: PendulumParams, amps: NoiseAmplitudes) -> Trajectory:
    """Integrate one orbit from ``initial`` = (theta, p), driven by a noise pair.

    A non-finite start raises :class:`BlowUpError` at step 1.
    """
    p1, p2 = pair
    if p1.grid != p2.grid:
        raise ValueError("paths must share one grid")
    theta0, p0 = map(float, initial)
    th, p, en = exact_flow_ensemble(theta0, p0, p1.values, p2.values,
                                    p1.grid, params, amps)
    return Trajectory(grid=p1.grid, theta=th, p=p, energy=en)


def averaged_flow(initial, lam: LambdaPoint, params: PendulumParams,
                  h: float, n: int) -> Trajectory:
    """Kick-drift-kick leapfrog integration of the averaged system."""
    if h <= 0:
        raise ValueError("h must be positive")
    theta0, p0 = map(float, initial)
    l2 = params.l**2
    theta = np.empty(n + 1)
    p = np.empty(n + 1)
    theta[0], p[0] = theta0, p0
    th, mom = theta0, p0
    for k in range(n):
        mom_half = mom - 0.5 * h * effective_potential_dtheta(th, lam, params)
        th = th + h * mom_half / l2
        mom = mom_half - 0.5 * h * effective_potential_dtheta(th, lam, params)
        if not (math.isfinite(th) and math.isfinite(mom)):
            raise BlowUpError(k + 1)
        theta[k + 1], p[k + 1] = th, mom
    grid = PathGrid(t0=0.0, h=h, n=n)
    energy = averaged_hamiltonian(theta, p, lam, params)
    return Trajectory(grid=grid, theta=theta, p=p, energy=energy)


def bob_embedding(traj: Trajectory, pair: tuple[PathSample, PathSample],
                  params: PendulumParams, amps: NoiseAmplitudes) -> BobEmbedding:
    """Cartesian bob coordinates: rod geometry plus integrated noise drift.

    The channel integrals are accumulated with the trapezoid rule on the
    shared grid.
    """
    p1, p2 = pair
    if p1.grid != traj.grid or p2.grid != traj.grid:
        raise ValueError("trajectory and paths must share one grid")
    l = params.l
    h = traj.grid.h
    int1 = np.concatenate([[0.0], np.cumsum(0.5 * h * (p1.values[:-1] + p1.values[1:]))])
    int2 = np.concatenate([[0.0], np.cumsum(0.5 * h * (p2.values[:-1] + p2.values[1:]))])
    x = l * np.sin(traj.theta) + amps.sigma1 * int1
    y = -l * np.cos(traj.theta) + amps.sigma2 * int2
    return BobEmbedding(grid=traj.grid, x=x, y=y)
