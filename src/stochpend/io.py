"""Deterministic CSV/JSON exports.

All floats are written with 17 significant digits (lossless round trip;
``"%.17g" % x`` gives the bytes of ``format(x, ".17g")``, including
``nan``, ``inf`` and ``-0``), JSON objects with sorted keys and fixed
separators, and lines with explicit newline endings, so identical inputs
produce identical bytes.  Every CSV goes through one column writer: it
turns each column into a Python list once and formats whole rows with one
``%`` template, which costs far less than formatting value by value.

A CSV of at least ``SPLIT_VALUES`` values (rows times columns) is
formatted by two processes when this one may run on two CPUs: a forked
helper formats the second half of the rows while the run process writes
the header and the first half, and the helper appends its text only
once the run process has closed the file.  Each row is formatted from
the same values with the same template whichever process formats it,
and the halves land in row order, so a split changes no byte.  Each
process turns only its own rows into Python values, after the fork:
values made before it would be shared pages that every reference count
update copies.  On a 2-vCPU Intel Xeon host (Python 3.11), with the
second vCPU free, a file of 12 000 values took 1.19 times as long split
as formatted in one process, 16 000 to 24 000 values 0.99 to 1.03
times, 28 000 values 0.90, ``portrait``'s default 129 x 129 grid (49 923
values) 0.78 and 150 000 values 0.64 (70 to 100 timings each); the
fork, the reap and the helper's copy-on-write faults cost about 4 ms.
With the second vCPU busy, a split is slower at every size.

Every JSON file is shaped here: a report whose file lists its fields goes
through :func:`report_dict`; every other file has a function of its own.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import nullcontext
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bifurcation import AtlasCurves, PhasePortrait, ScanResult
from .dynamics import BobEmbedding, LambdaPoint, Trajectory
from .poincare import FillReport, SplittingReport, StroboscopicSection
from .rpsde import ErgodicStats, PathSample, _forked, _swap

#: Fewest values (rows times columns) of a CSV whose rows two processes format:
#: just above the sizes at which a split measured no faster (module docstring).
SPLIT_VALUES = 1 << 15


def _write_columns(path, header: str, columns, row: str | None = None) -> None:
    """Equal-length columns as CSV lines under ``header``.

    ``row`` is the %-template of one line without its newline; it defaults
    to ``%.17g`` for every column.  Columns are raveled in C order.  A
    big file on two CPUs is split with a :func:`_forked` helper (module
    docstring).
    """
    columns = [np.asarray(c).ravel() for c in columns]
    line = (row or ",".join(["%.17g"] * len(columns))) + "\n"
    rows = len(columns[0])
    split = rows * len(columns) >= SPLIT_VALUES and len(os.sched_getaffinity(0)) > 1
    half = rows // 2 if split else rows

    def lines(lo, hi):  # each process makes its own Python values, after the fork
        return (line % values for values in zip(*(c[lo:hi].tolist() for c in columns)))

    def second_half(pipe):
        text = "".join(lines(half, rows))
        pipe.recv()  # the first half is written and the file closed
        with open(path, "a", newline="") as fh:
            fh.write(text)
        pipe.send(None)

    with _forked(second_half) if split else nullcontext() as link:
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            fh.writelines(lines(0, half))
        _swap(link, None)


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plain(value):
    """``value`` in JSON types: arrays, tuples and lists as lists, dataclasses as dicts."""
    if is_dataclass(value):
        return report_dict(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def report_dict(report) -> dict:
    """JSON form of a report dataclass: one key per field."""
    return {f.name: _plain(getattr(report, f.name)) for f in fields(report)}


def write_pair_csv(path, pair: tuple[PathSample, PathSample]) -> None:
    """Noise pair as ``t,xi1,xi2``."""
    p1, p2 = pair
    _write_columns(path, "t,xi1,xi2", (p1.grid.times(), p1.values, p2.values))


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Orbit as ``t,theta,p,H``."""
    _write_columns(path, "t,theta,p,H", (traj.grid.times(), traj.theta, traj.p, traj.energy))


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
    return {"equilibria": _plain(portrait.equilibria),
            "separatrix_levels": list(portrait.separatrix_levels)}


def ergodic_summary(stats: ErgodicStats, lam: LambdaPoint, convention: str) -> dict:
    """The noise statistics and the Lambda they give under ``convention``."""
    return {**report_dict(stats), "lambda1": lam.lambda1, "lambda2": lam.lambda2,
            "convention": convention}


def fill_summary(report: FillReport) -> dict:
    """Occupancy, overall and per averaged-energy band."""
    return {"occupancy": report.occupancy, "band_edges": report.band_edges.tolist(),
            "band_occupancy": report.band_occupancy.tolist()}


def splitting_summary(report: SplittingReport) -> dict:
    return {
        "lambda": [report.lam.lambda1, report.lam.lambda2],
        "saddle_theta": report.saddle.theta,
        "sigma_levels": _plain(report.sigma_levels),
        "spreads": report.spreads.tolist(),
        "n_points": report.n_points,
    }


def write_atlas_json(path, atlas: AtlasCurves) -> None:
    write_json(path, report_dict(atlas))


def run_manifest(command: str, effective_config: dict, files: list[Path]) -> dict:
    """The command, package and library versions, checked config and a SHA-256 per data file."""
    return {
        "command": command,
        "version": __version__,
        "libraries": {"python": "%d.%d.%d" % sys.version_info[:3],
                      "numpy": np.__version__, "scipy": scipy.__version__},
        "effective_config": effective_config,
        "outputs": {p.name: sha256_of(p) for p in files},
    }


def sha256_of(path) -> str:
    import hashlib
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
