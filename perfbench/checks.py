"""Output checks, one per workload.

Each check reads the CLI's output directory and the config the run was
given, and returns a list of problems; an empty list means the output is
correct.  Tolerances come from the Monte Carlo error of the quantity
checked (binomial intervals, batch-means standard errors) or from
floating-point rounding, never from the seed at hand.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Two-sided miss probability of each binomial acceptance interval.
BINOMIAL_EPS = 1e-6
#: Standard errors allowed between an ergodic average and its closed form.
#: The batch-means error has 15 degrees of freedom; P(|t_15| > 6) = 2.4e-5.
ERGODIC_Z = 6.0
#: Independent re-integration of the single orbit must agree to this
#: absolute tolerance (same formulas, rounding differences only).
ORBIT_ATOL = 1e-8
#: Standard errors allowed between a noise path's quadratic (co)variation
#: and its expected value.  The statistic sums n = 5e4 products of normals
#: and is close to Gaussian; P(|Z| > 6) = 2e-9.
PATH_Z = 6.0


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


# ---------------------------------------------------------------------------
# ensemble-exceedance


def _clopper_pearson(k: int, n: int) -> tuple[float, float]:
    from scipy.stats import beta

    eps = BINOMIAL_EPS
    lo = 0.0 if k == 0 else float(beta.ppf(eps / 2, k, n - k + 1))
    hi = 1.0 if k == n else float(beta.ppf(1 - eps / 2, k + 1, n - k))
    return lo, hi


def exceedance_interval(k_ref: int, n_ref: int, n: int) -> tuple[int, int]:
    """Exceedance counts out of ``n`` consistent with ``k_ref`` of ``n_ref``.

    The reference probability is bracketed by its Clopper-Pearson interval;
    the count of the run must then lie within the binomial quantiles of the
    bracket ends.
    """
    from scipy.stats import binom

    p_lo, p_hi = _clopper_pearson(k_ref, n_ref)
    eps = BINOMIAL_EPS
    return int(binom.ppf(eps / 2, n, p_lo)), int(binom.isf(eps / 2, n, p_hi))


def check_exceedance(out: Path, cfg: dict) -> list[str]:
    reference = _read_json(REFERENCE)["ensemble-exceedance"]
    problems = []
    rep = _read_json(out / "exceedance.json")
    verify = cfg["verify"]
    n = cfg["seeds"]["ensemble"]
    for key, want in (("delta", verify["delta"]), ("ensemble_n", n),
                      ("horizon_periods", cfg["grid"]["horizon_periods"]),
                      ("sigma_levels", verify["sigma_levels"])):
        if rep.get(key) != want:
            problems.append(f"exceedance.json {key} = {rep.get(key)!r}, expected {want!r}")
    for key in ("sigma_levels", "delta", "burn_in_periods", "initial"):
        if reference["verify"][key] != verify[key]:
            problems.append(f"reference was recorded for verify.{key} = "
                            f"{reference['verify'][key]!r}")
    if reference["horizon_periods"] != cfg["grid"]["horizon_periods"]:
        problems.append("reference was recorded for another horizon")
    probs = rep.get("probs")
    if not isinstance(probs, list) or len(probs) != len(verify["sigma_levels"]):
        return problems + [f"probs {probs!r} do not match the sigma levels"]
    for i, p in enumerate(probs):
        if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
            problems.append(f"probability {p!r} at level {i} is outside [0, 1]")
            continue
        k = round(p * n)
        if abs(k - p * n) > 1e-6:
            problems.append(f"probability {p!r} at level {i} is not a count out of {n}")
        lo, hi = exceedance_interval(reference["exceed_counts"][i],
                                     reference["ensemble_n"], n)
        if not lo <= k <= hi:
            problems.append(f"level {i}: {k} of {n} exceed, reference "
                            f"{reference['exceed_counts'][i]} of "
                            f"{reference['ensemble_n']} allows {lo}..{hi}")
    if problems:
        return problems
    # criterion-9 shape: non-increasing up to one CI-overlapping inversion,
    # and the smallest level at most half the largest.
    ci = [1.96 * math.sqrt(p * (1 - p) / n) for p in probs]
    inversions = 0
    for i in range(len(probs) - 1):
        if probs[i + 1] > probs[i]:
            inversions += 1
            if probs[i + 1] - ci[i + 1] > probs[i] + ci[i]:
                problems.append(f"level {i + 1} exceeds level {i} beyond the CI")
    if inversions > 1:
        problems.append(f"{inversions} inversions in {probs}")
    if not probs[-1] < 0.5 * probs[0]:
        problems.append(f"smallest level {probs[-1]} is not below half of {probs[0]}")
    return problems


# ---------------------------------------------------------------------------
# single-orbit


def _rk4_orbit(theta: float, p: float, xi1: np.ndarray, xi2: np.ndarray,
               h: float, l: float, g: float, s1: float, s2: float):
    """Scalar classical RK4 of the noise-driven flow, noise linear per cell."""
    sin, cos = math.sin, math.cos

    def rhs(th, mom, x1, x2):
        ct, st = cos(th), sin(th)
        sx1, sx2 = s1 * x1, s2 * x2
        S = sx1 * ct + sx2 * st
        Sp = -sx1 * st + sx2 * ct
        return mom / (l * l) - S / l, mom * Sp / l - S * Sp - g * l * st

    x1s, x2s = xi1.tolist(), xi2.tolist()
    out_theta = [theta]
    out_p = [p]
    for k in range(len(x1s) - 1):
        xa1, xb1, xa2, xb2 = x1s[k], x1s[k + 1], x2s[k], x2s[k + 1]
        xm1, xm2 = 0.5 * (xa1 + xb1), 0.5 * (xa2 + xb2)
        k1t, k1p = rhs(theta, p, xa1, xa2)
        k2t, k2p = rhs(theta + 0.5 * h * k1t, p + 0.5 * h * k1p, xm1, xm2)
        k3t, k3p = rhs(theta + 0.5 * h * k2t, p + 0.5 * h * k2p, xm1, xm2)
        k4t, k4p = rhs(theta + h * k3t, p + h * k3p, xb1, xb2)
        theta = theta + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        out_theta.append(theta)
        out_p.append(p)
    return np.array(out_theta), np.array(out_p)


def check_noise_path(paths: np.ndarray, cfg: dict) -> list[str]:
    """The written noise path against its law, independently of the orbit.

    Channel i solves dz = -alpha_i (z - target_i(t)) dt + beta_i dW_i from
    z0_i.  Over [0, T] the sum of products of increments of channels i and
    j estimates rho_ij beta_i beta_j T, with rho = 1 on the diagonal and
    across a shared driver, 0 across independent ones.  Normalised, the
    sum has standard error sqrt((1 + rho^2) / n) and a bias below
    max(alpha) h from the drift.  This catches noise that is missing or
    wrongly scaled even when the orbit was integrated from it faithfully.
    """
    noise, h = cfg["noise"], cfg["grid"]["h"]
    channels = (noise["channel1"], noise["channel2"])
    problems = []
    for i, ch in enumerate(channels):
        if paths[0, 1 + i] != ch["z0"]:
            problems.append(f"xi{i + 1} starts at {paths[0, 1 + i]!r}, not z0 = {ch['z0']!r}")
    steps = np.diff(paths[:, 1:], axis=0)
    n = len(steps)
    rho = 1.0 if noise["driver"] == "shared" else 0.0
    for i, j, want in ((0, 0, 1.0), (1, 1, 1.0), (0, 1, rho)):
        a, b = channels[i], channels[j]
        q = float(steps[:, i] @ steps[:, j]) / (a["beta"] * b["beta"] * n * h)
        allowed = PATH_Z * math.sqrt((1.0 + want * want) / n) \
            + max(a["alpha"], b["alpha"]) * h
        if not abs(q - want) <= allowed:
            problems.append(f"xi{i + 1}/xi{j + 1} quadratic covariation is {q:.4f} "
                            f"beta{i + 1} beta{j + 1} T, expected {want} +- {allowed:.4f}")
    return problems


def check_single_orbit(out: Path, cfg: dict) -> list[str]:
    noise, grid, pend = cfg["noise"], cfg["grid"], cfg["pendulum"]
    h = grid["h"]
    spp = round(noise["tau"] / h)
    n = grid["horizon_periods"] * spp
    paths = _read_csv(out / "paths.csv", "t,xi1,xi2")
    traj = _read_csv(out / "trajectory.csv", "t,theta,p,H")
    emb = _read_csv(out / "embedding.csv", "t,x,y")
    sec = _read_csv(out / "section.csv", "n,theta_wrapped,p")
    problems = []
    for name, arr, rows in (("paths", paths, n + 1), ("trajectory", traj, n + 1),
                            ("embedding", emb, n + 1),
                            ("section", sec, grid["horizon_periods"] + 1)):
        if arr.shape[0] != rows:
            problems.append(f"{name}.csv has {arr.shape[0]} rows, expected {rows}")
        if not np.isfinite(arr).all():
            problems.append(f"{name}.csv holds non-finite values")
    if problems:
        return problems
    problems += check_noise_path(paths, cfg)
    times = h * np.arange(n + 1)
    for name, arr in (("paths", paths), ("trajectory", traj), ("embedding", emb)):
        if np.abs(arr[:, 0] - times).max() > 1e-9 * max(1.0, times[-1]):
            problems.append(f"{name}.csv times are off the grid")

    s1, s2, l, g = noise["sigma1"], noise["sigma2"], pend["l"], pend["g"]
    theta0, p0 = cfg["simulate"]["initial"]
    th, p = _rk4_orbit(theta0, p0, paths[:, 1], paths[:, 2], h, l, g, s1, s2)
    gap = max(np.abs(th - traj[:, 1]).max(), np.abs(p - traj[:, 2]).max())
    if not gap <= ORBIT_ATOL:
        problems.append(f"orbit differs from an independent RK4 by {gap:.3g} "
                        f"(final theta {float(traj[-1, 1])!r} vs {float(th[-1])!r}, "
                        f"p {float(traj[-1, 2])!r} vs {float(p[-1])!r})")
    S = s1 * paths[:, 1] * np.cos(traj[:, 1]) + s2 * paths[:, 2] * np.sin(traj[:, 1])
    energy = traj[:, 2] ** 2 / (2 * l * l) - traj[:, 2] * S / l + 0.5 * S**2 \
        - g * l * np.cos(traj[:, 1])
    if np.abs(energy - traj[:, 3]).max() > 1e-9:
        problems.append("H column differs from the exact Hamiltonian")
    nodes = traj[::spp]
    wrapped = np.pi - np.mod(np.pi - nodes[:, 1], 2 * np.pi)
    if not (np.array_equal(sec[:, 0], np.arange(len(sec)))
            and np.array_equal(sec[:, 2], nodes[:, 2])
            and np.abs(sec[:, 1] - wrapped).max() <= 1e-12):
        problems.append("section rows are not the trajectory at t = n tau")
    return problems


# ---------------------------------------------------------------------------
# atlas-scan


def _analytic_curves(box: list[float]) -> np.ndarray:
    """Gamma_1 (upper half) and the Gamma_2 ray, clipped to the box."""
    t = np.linspace(0.0, np.pi, 40001)
    gamma1 = np.column_stack([np.cos(t) ** 3 / 2 - 3 * np.cos(t) / 4,
                              np.sin(t) ** 3 / 2])
    ray = np.column_stack([np.linspace(0.25, box[1], 20000)[1:], np.zeros(19999)])
    curves = np.vstack([gamma1, ray])
    inside = ((curves[:, 0] >= box[0]) & (curves[:, 0] <= box[1])
              & (curves[:, 1] >= box[2]) & (curves[:, 1] <= box[3]))
    return curves[inside]


def check_atlas(out: Path, cfg: dict) -> list[str]:
    from scipy.spatial import cKDTree

    atlas = cfg["atlas"]
    box, step = atlas["box"], atlas["step"]
    n1 = round((box[1] - box[0]) / step) + 1
    n2 = round((box[3] - box[2]) / step) + 1
    with open(out / "scan.csv") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != ["lambda1,lambda2,label"] or len(lines) != n1 * n2 + 1:
        return [f"scan.csv has {len(lines) - 1} rows, expected {n1 * n2}"]
    rows = [line.split(",") for line in lines[1:]]
    corners = np.array([[float(a), float(b)] for a, b, _ in rows])
    want = np.column_stack([np.repeat(box[0] + step * np.arange(n1), n2),
                            np.tile(box[2] + step * np.arange(n2), n1)])
    if np.abs(corners - want).max() > 1e-9:
        return ["scan.csv corners are not the box grid"]
    code_of = {"pi1": 0, "pi2": 1, "boundary": 2}
    labels = [r[2] for r in rows]
    if not set(labels) <= set(code_of):
        return [f"unknown labels {sorted(set(labels) - set(code_of))}"]
    codes = np.array([code_of[x] for x in labels]).reshape(n1, n2)
    c00, c10, c01, c11 = codes[:-1, :-1], codes[1:, :-1], codes[:-1, 1:], codes[1:, 1:]
    mask = ~((c00 == c10) & (c00 == c01) & (c00 == c11)) \
        | (c00 == 2) | (c10 == 2) | (c01 == 2) | (c11 == 2)
    ii, jj = np.nonzero(mask)
    if len(ii) == 0:
        return ["scan has no boundary cells"]
    cells = np.column_stack([box[0] + step * (ii + 0.5), box[2] + step * (jj + 0.5)])
    curves = _analytic_curves(box)
    d_cells = cKDTree(curves).query(cells)[0].max()
    d_curve = cKDTree(cells).query(curves)[0].max()
    if d_cells > 2 * step or d_curve > 2 * step:
        return [f"boundary cells vs curves: max cell->curve {d_cells:.4f}, "
                f"curve->cell {d_curve:.4f}, allowed {2 * step:.4f}"]
    return []


# ---------------------------------------------------------------------------
# noise-average


def check_average(out: Path, cfg: dict) -> list[str]:
    stats = _read_json(out / "ergodic_stats.json")
    noise, avg = cfg["noise"], cfg["average"]
    ch1, ch2 = noise["channel1"], noise["channel2"]
    closed = {
        "c1": ch1["beta"] ** 2 / (2 * ch1["alpha"]),
        "c2": ch2["beta"] ** 2 / (2 * ch2["alpha"]),
        "c12": ch1["beta"] * ch2["beta"] / (ch1["alpha"] + ch2["alpha"]),
        "mean1": 0.0,
        "mean2": 0.0,
    }
    problems = []
    if stats.get("avg_periods") != avg["avg_periods"] \
            or stats.get("burn_in_periods") != avg["burn_in_periods"]:
        problems.append("averaging window differs from the config")
    for key, value in closed.items():
        est, se = stats.get(key), stats.get("se_" + key)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in (est, se)) \
                or se <= 0:
            problems.append(f"{key} = {est!r} with se {se!r} is not a finite estimate")
        elif abs(est - value) > ERGODIC_Z * se:
            problems.append(f"{key} = {est:.5f} is {abs(est - value) / se:.1f} "
                            f"standard errors from {value:.5f}")
    if problems:
        return problems
    s1, s2 = noise["sigma1"], noise["sigma2"]
    lam1 = 0.25 * (s1 ** 2 * stats["c1"] - s2 ** 2 * stats["c2"])
    lam2 = 0.5 * s1 * s2 * stats["c12"]
    if not (math.isclose(stats.get("lambda1", math.nan), lam1, rel_tol=1e-9, abs_tol=1e-15)
            and math.isclose(stats.get("lambda2", math.nan), lam2, rel_tol=1e-9)):
        problems.append("lambda1/lambda2 do not follow from c1, c2, c12")
    return problems


CHECKS = {
    "ensemble-exceedance": check_exceedance,
    "single-orbit": check_single_orbit,
    "atlas-scan": check_atlas,
    "noise-average": check_average,
}


def check_output(workload: str, out: Path, cfg: dict) -> list[str]:
    """Problems with one run's output; unreadable output is a problem too."""
    try:
        return CHECKS[workload](out, cfg)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
