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
noise grid, the noise linearly interpolated in each cell.  The right-hand
side is ``_rk4_rhs``, and it is written out in two places, in the same
IEEE double operations in the same order.  An ensemble run steps its
orbits as one flat batch of rows, each with its own couplings and noise
column, in place with ``_rk4_nodes``: it reads the noise as time-major
tiles, one span at a time, and can drop rows between steps.  One orbit
(``exact_flow``) runs as one loop over Python floats, ``_float_orbit``,
which skips the per-call overhead of numpy scalars and of function
calls: 50 000 steps took 80 to 94 ms on an Intel Xeon vCPU (Python
3.11), against 150 to 167 ms for steps that each called a method and
the right-hand side as a function.  The batch
stepper yields S, cos(theta) and sin(theta) at each node, from which

    H - Hbar = S (S/2 - p/l) - (Lambda_1 (2 cos^2 theta - 1) + 2 Lambda_2 sin theta cos theta),

since the p^2/(2 l^2) and g l cos(theta) terms cancel.
``hamiltonian_partials`` returns (dH/dtheta, dH/dp) = (-pdot, thetadot)
from ``_rk4_rhs`` itself, so the partials checked against finite
differences of H are the field both steppers integrate: the test suite
checks an RK4 through ``_rk4_rhs``, the orbit loop and a one-row batch
bit for bit against each other.  This holds as long as numpy's float64
cos/sin round as the platform libm's ``math.cos``/``math.sin`` do;
numpy 2.4 on x86-64 Linux (AVX-512 included) does, and a numpy build
with its own vectorized float64 trig may differ in the last bit.  The
instantaneous coefficients, the (Lambda_1, Lambda_2) map with the
products xi_i xi_j in place of the moments C, have one site,
``instantaneous_lambda``: the frozen-time potential and the deviation
check both read them from it.
The averaged flow uses kick-drift-kick leapfrog, which keeps Hbar
bounded.  Angles are unwrapped reals throughout; wrapping to (-pi, pi]
happens only at presentation level.
"""

from __future__ import annotations

import itertools
import math
from array import array
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
                              amps.sigma1, amps.sigma2)
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


def _rk4_rhs(theta, p, x1, x2, l, g, s1, s2):
    """The right-hand side (thetadot, pdot) and the node values S, cos, sin.

    ``_float_orbit`` and ``_ArraySteps._rhs`` write these operations out
    in this order, and ``hamiltonian_partials`` reads the field from here.
    """
    ct, st = np.cos(theta), np.sin(theta)
    sx1 = s1 * x1
    sx2 = s2 * x2
    S = sx1 * ct + sx2 * st
    Sp = sx2 * ct - sx1 * st  # dS/dtheta
    dtheta = p / (l * l) - S / l
    dp = p * Sp / l - S * Sp - g * l * st
    return dtheta, dp, S, ct, st  # S, cos and sin give the node values


def _float_orbit(theta: float, p: float, x1: list, x2: list, h: float,
                 params: PendulumParams, s1: float, s2: float):
    """RK4 steps of one orbit on Python floats; (theta, p) at every node as arrays.

    ``x1``/``x2`` are the noise lists at nodes 0 .. n.  Each step runs
    one stage loop: k1 at the node, k2 and k3 at the cell's midpoint, k4
    at its end, each the operations of ``_rk4_rhs`` on ``math.cos`` and
    ``math.sin``, and accumulates k1 + 2 k2 + 2 k3 + 1.0 k4 from -0.0,
    the additive identity, so the sum is the one of the array stepper.
    A non-finite theta or p after step k raises ``BlowUpError(k)``;
    ``math.cos``/``math.sin`` on an infinite angle and a float division by
    zero raise ``ValueError`` and ``ZeroDivisionError`` where numpy gives
    inf or nan, and within step k these raise ``BlowUpError(k)`` too.
    """
    cos, sin, isfinite = math.cos, math.sin, math.isfinite
    l, gl, hh, h6 = params.l, params.g * params.l, 0.5 * h, h / 6.0
    ll = l * l
    thetas, ps = array("d", [theta]), array("d", [p])
    xa1, xa2 = x1[0], x2[0]
    try:
        for k, xb1, xb2 in zip(range(1, len(x1)), itertools.islice(x1, 1, None),
                               itertools.islice(x2, 1, None)):
            sm1, sm2 = s1 * (0.5 * (xa1 + xb1)), s2 * (0.5 * (xa2 + xb2))
            at = ap = -0.0
            tt, pp = theta, p
            # (weight of the stage's k, its share of h in the next stage, couplings)
            for w, c, sx1, sx2 in ((1.0, hh, s1 * xa1, s2 * xa2), (2.0, hh, sm1, sm2),
                                   (2.0, h, sm1, sm2), (1.0, 0.0, s1 * xb1, s2 * xb2)):
                ct, st = cos(tt), sin(tt)
                S = sx1 * ct + sx2 * st
                Sp = sx2 * ct - sx1 * st
                kt = pp / ll - S / l
                kp = pp * Sp / l - S * Sp - gl * st
                at = at + w * kt
                ap = ap + w * kp
                tt, pp = theta + c * kt, p + c * kp
            theta = theta + h6 * at
            p = p + h6 * ap
            if not (isfinite(theta) and isfinite(p)):
                raise BlowUpError(k)
            thetas.append(theta)
            ps.append(p)
            xa1, xa2 = xb1, xb2
    except (ValueError, ZeroDivisionError):
        raise BlowUpError(k) from None
    return np.frombuffer(thetas), np.frombuffer(ps)


class _ArraySteps:
    """RK4 steps of a flat batch of orbits in place, for :func:`_rk4_nodes`.

    Row i of the flat batch has couplings ``s1[i]``/``s2[i]`` and reads
    noise column ``col[i]``, taken per node.  Every array of a step is
    written into one block of buffers, allocated once; :meth:`keep`
    shrinks them to the kept rows.  Each operation is the IEEE double
    operation of ``_rk4_rhs`` and :func:`_float_orbit`, on the same
    operands in the same order, and the couplings times a noise value,
    which ``_rk4_rhs`` forms in each of the two stages that share it, are
    formed once.  Out-of-place steps through ``_rk4_rhs`` measured 9% slower.
    """

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


def _node_rows(tiles):
    """The noise pair at each node of consecutive ``tiles``.

    A tile's last node is copied, since the next tile may overwrite the
    buffer that it is a view of.
    """
    for xi1, xi2 in tiles:
        yield from zip(xi1[:-1], xi2[:-1])
        if len(xi1):
            yield xi1[-1].copy(), xi2[-1].copy()


def _rk4_nodes(theta, p, tiles, h, params: PendulumParams, s1, s2, col):
    """Classical RK4 of a flat batch of orbits on the noise grid; yields the state at every node.

    ``tiles`` is an iterable of time-major noise tiles ``(xi1, xi2)``
    (``xi[k]`` is the noise at the tile's row k) that cut nodes 0 .. n
    into consecutive disjoint pieces.  Each tile is read before the next
    is asked for; the state and a copy of the tile's last node are
    carried across, so the steps across tiles are the steps over one
    whole array, even when the next tile overwrites the buffer the last
    one was a view of.  ``theta`` and ``p`` are scalars or one value per
    row, and row i has couplings ``s1[i]``/``s2[i]`` and reads column
    ``col[i]`` of each noise row.  The noise is linearly interpolated in
    each cell.  Yields ``(k, theta, p, S, cos theta, sin theta)`` for
    k = 0 .. n, arrays that the next step overwrites (:class:`_ArraySteps`
    steps in place); the right-hand side at node k + 1 is the next step's
    first stage, so the node values cost no extra work.  Raises
    :class:`BlowUpError` with the first step at which any row blows up.

    A flat batch can drop rows: a boolean mask sent into the generator
    (``send(mask)``, answered by None) after node k keeps only the rows
    where it is true from step k + 1 on.
    """
    tiles = iter(tiles)
    first = next(tiles)
    steps = _ArraySteps(theta, p, h, params, s1, s2, col, (first[0][0], first[1][0]))
    nodes = _node_rows(itertools.chain([first], tiles))
    k = 0  # the node the current step starts from
    xa = next(nodes)
    node = steps.start(xa)
    for xb in nodes:
        if (mask := (yield (k, *node))) is not None:
            steps.keep(mask)
            yield
        node = steps.step(xa, xb)
        if node is None:
            raise BlowUpError(k + 1)
        xa = xb
        k += 1
    if (yield (k, *node)) is not None:  # a mask sent at the last node keeps nothing more
        yield


def exact_flow_ensemble(theta0, p0, xi1: np.ndarray, xi2: np.ndarray,
                        grid: PathGrid, params: PendulumParams,
                        amps: NoiseAmplitudes):
    """Classical 4th-order integration of one orbit of the noise-driven flow.

    ``theta0``/``p0`` are scalars and ``xi1``/``xi2`` value arrays of
    shape (n+1,) on ``grid``.  The noise is linearly interpolated inside
    each grid cell (the midpoint value is the endpoint average).  Returns
    (theta, p, energy) arrays over the grid nodes 0..n; ``energy`` is H at
    each node.  The orbit steps on Python floats (:func:`_float_orbit`),
    which skips the per-call overhead of numpy scalars, and is bit-identical
    to the same orbit run as a one-row flat batch of :func:`_rk4_nodes`.

    Raises :class:`BlowUpError` with the offending step index if the state
    leaves the finite range (step 1 for a non-finite start).
    """
    xi1, xi2 = np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float)
    if len(xi1) != grid.n + 1 or len(xi2) != grid.n + 1:
        raise ValueError("noise values must have grid.n + 1 nodes")
    theta, p = _float_orbit(float(theta0), float(p0), xi1.tolist(), xi2.tolist(), grid.h,
                            params, float(amps.sigma1), float(amps.sigma2))
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
