"""Deterministic CSV/JSON exports.

All floats are written with 17 significant digits (lossless round trip;
``"%.17g" % x`` gives the bytes of ``format(x, ".17g")``, including
``nan``, ``inf`` and ``-0``), JSON objects with sorted keys and fixed
separators, and lines with explicit newline endings, so identical inputs
produce identical bytes.  Every CSV goes through one column writer: it
turns each column into a Python list once and formats whole rows with one
``%`` template, which costs far less than formatting value by value.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bifurcation import AtlasCurves, PhasePortrait, ScanResult
from .dynamics import BobEmbedding, Trajectory
from .poincare import FillReport, StroboscopicSection
from .rpsde import PathSample


def _write_columns(path, header: str, columns, row: str | None = None) -> None:
    """Equal-length columns as CSV lines under ``header``.

    ``row`` is the %-template of one line without its newline; it defaults
    to ``%.17g`` for every column.  Columns are raveled in C order.
    """
    lists = [np.asarray(c).ravel().tolist() for c in columns]
    line = (row or ",".join(["%.17g"] * len(lists))) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(line % values for values in zip(*lists))


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_pair_csv(path, pair: tuple[PathSample, PathSample]) -> None:
    """Noise pair as ``t,xi1,xi2``."""
    p1, p2 = pair
    _write_columns(path, "t,xi1,xi2", (p1.grid.times(), p1.values, p2.values))


def write_trajectory_csv(path, traj: Trajectory, energy_label: str = "H") -> None:
    """Orbit as ``t,theta,p,<energy_label>``."""
    times = traj.grid.times()
    energy = traj.energy if traj.energy is not None else np.full(len(times), np.nan)
    _write_columns(path, f"t,theta,p,{energy_label}", (times, traj.theta, traj.p, energy))


def write_embedding_csv(path, emb: BobEmbedding) -> None:
    """Bob position as ``t,x,y``."""
    _write_columns(path, "t,x,y", (emb.grid.times(), emb.x, emb.y))


def write_section_csv(path, section: StroboscopicSection) -> None:
    """Section as ``n,theta_wrapped,p``."""
    wrapped = section.theta_wrapped
    _write_columns(path, "n,theta_wrapped,p",
                   (np.arange(len(wrapped)), wrapped, section.p), "%d,%.17g,%.17g")


def write_histogram_csv(path, report: FillReport) -> None:
    """Occupancy histogram as ``theta_bin,p_bin,count``."""
    i, j = np.indices(report.counts.shape)
    _write_columns(path, "theta_bin,p_bin,count", (i, j, report.counts), "%d,%d,%d")


def write_scan_csv(path, scan: ScanResult) -> None:
    """Corner labels as ``lambda1,lambda2,label``."""
    l1, l2 = np.meshgrid(scan.lambda1_corners, scan.lambda2_corners, indexing="ij")
    _write_columns(path, "lambda1,lambda2,label", (l1, l2, scan.labels), "%.17g,%.17g,%s")


def write_portrait_csv(path, portrait: PhasePortrait) -> None:
    """Energy grid as ``theta,p,Hbar``, theta varying fastest."""
    theta, p = np.meshgrid(portrait.theta, portrait.p)
    _write_columns(path, "theta,p,Hbar", (theta, p, portrait.hbar))


def portrait_sidecar(portrait: PhasePortrait) -> dict:
    return {
        "equilibria": [
            {"theta": e.theta, "kind": e.kind, "potential": e.potential,
             "second_derivative": e.second_derivative}
            for e in portrait.equilibria
        ],
        "separatrix_levels": list(portrait.separatrix_levels),
    }


def write_atlas_json(path, atlas: AtlasCurves) -> None:
    write_json(path, {
        "gamma1": [[float(a), float(b)] for a, b in atlas.gamma1],
        "gamma2": {"min_lambda1": atlas.gamma2.min_lambda1},
    })


def sha256_of(path) -> str:
    import hashlib
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
