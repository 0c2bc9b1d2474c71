"""Run the CLI on a fixed set of configs in two source trees and compare every output byte.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--seed N] [--case NAME ...]

A tree is a checkout with the package under ``src/stochpend``.  Every run
is a fresh interpreter with ``PYTHONPATH`` set to that tree's ``src``, and
it works in a temporary directory: nothing is written inside either tree.

The 34 cases cover all six commands: the four benchmark workloads of
``perfbench/workloads.py`` at ``--seed`` (default 0), a small
``portrait``, a ``portrait`` whose CSV is big enough to be formatted in
two processes on two CPUs and a ``simulate`` whose largest CSV is just
too small for that (``stochpend.io.SPLIT_VALUES``), small configs that
switch on every ``verify`` run and every ``poincare`` run, ``verify``
and ``poincare`` ensembles of three seed chunks (every run that draws
its noise chunk by chunk crosses a chunk boundary), ``verify`` and
``poincare`` ensembles whose horizon spans several time tiles of
forced, independent noise channels,
``verify`` and ``poincare`` ensembles whose burn-in and horizon end
exactly on tile edges, an ``average`` whose grid duration over tau is
not a whole number in floating point, an ``average`` whose window leaves
nodes after its last batch, a ``verify`` of the moments whose last grid
node lies one ulp past tau, three ``verify`` runs whose noise overflows
(channel 1 in the calibration path and in an ensemble, channel 2 in the
calibration path), two ``average`` runs whose noise overflows (channel 1
of a shared driver, channel 2 of an independent one), a ``verify`` whose
exceedance orbits overflow at one of four sigma levels, an ``atlas``
scan whose step is too small for a finite number of corners, a
``simulate`` whose rod length overflows a Python float power, a
``poincare`` concentration run at g l = 1e-10, an ``atlas`` scan and a
``poincare`` concentration run at g l != 1, an ``average`` whose finite
noise has long-run moments that overflow, and four configs one below a
bound that only the config check enforces (``atlas.samples``,
``portrait.grid``, ``average.batches``, ``verify.delta``).  ``--case``
(repeatable) runs only the cases named.

For each case the script prints both exit codes, the last stderr line of a
run that failed, and, per output file, the SHA-256 from each tree.  It
exits 0 when every case has the same exit code, the same last stderr line
on failure and the same files with the same bytes, and no failed run left
a file; 1 when anything differs, and 2 when a tree's package cannot be
imported from its ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

#: Exit code of a run that could not import ``stochpend.cli`` from its tree.
NO_PACKAGE = 97
#: Runs ``stochpend.cli.main`` on argv[2:] after checking that the package
#: was imported from argv[1].
_RUNNER = f"""\
import sys
from pathlib import Path
try:
    import stochpend.cli as cli
    found = Path(cli.__file__).resolve().parent.parent
except ImportError as exc:
    found = exc
if found != Path(sys.argv[1]).resolve():
    print(f"stochpend.cli is not importable from {{sys.argv[1]}}: {{found}}", file=sys.stderr)
    sys.exit({NO_PACKAGE})
sys.exit(cli.main(sys.argv[2:]))
"""


def cases(seed: int) -> dict[str, tuple[str, dict]]:
    """Case name -> (command, JSON config)."""
    out = {name: (w.command, w.config(seed)) for name, w in WORKLOADS.items()}
    small = {"grid": {"h": 0.01, "horizon_periods": 2},
             "seeds": {"master": seed, "ensemble": 12}}
    out["portrait"] = ("portrait", {"portrait": {"lambda1": 0.5, "lambda2": 0.1,
                                                 "grid": [40, 32]}})
    # 257 * 257 rows of 3 values: over io.SPLIT_VALUES, so split on two CPUs
    out["portrait-split"] = ("portrait", {"portrait": {"lambda1": 0.5, "lambda2": 0.1,
                                                       "grid": [257, 257]}})
    # trajectory.csv is 8 191 rows of 4 values, 32 764 < io.SPLIT_VALUES
    out["simulate-unsplit"] = ("simulate", {"grid": {"h": 1 / 4095, "horizon_periods": 2},
                                            "seeds": {"master": seed},
                                            "simulate": {"section": True}})
    out["verify-all-runs"] = ("verify", dict(small, verify={
        "run": ["exceedance", "deviation", "chebyshev", "moments"],
        "burn_in_periods": 2}))
    out["poincare-all-runs"] = ("poincare", dict(small, poincare={
        "run": ["concentration", "fill", "splitting", "sections"],
        "n_points": 6, "sections_exported": 2, "fill_grid": [16, 16]}))
    # 1 100 seeds: every ensemble run crosses two SEED_CHUNK boundaries
    chunked = dict(small, seeds={"master": seed, "ensemble": 1100})
    out["verify-chunked"] = ("verify", dict(chunked, verify={
        "run": ["exceedance", "deviation", "moments"]}))
    out["poincare-chunked"] = ("poincare", dict(chunked, poincare={
        "run": ["concentration", "splitting"], "n_points": 1100}))
    # 2 500 steps a period: the 3-period horizon is four time tiles of at most
    # 2 048 nodes and one period of moments two; the 40 000-node burn-in is
    # drawn as a full and a short span.  Both channels are forced and independent.
    spans = {"noise": {"tau": 1.0, "driver": "independent",
                       "channel1": {"forcing_amp": 0.5, "forcing_phase": 0.3},
                       "channel2": {"forcing_amp": 0.2}},
             "grid": {"h": 0.0004, "horizon_periods": 3},
             "seeds": {"master": seed, "ensemble": 12}}
    out["verify-spans"] = ("verify", dict(spans, verify={
        "run": ["exceedance", "deviation", "moments"], "burn_in_periods": 16}))
    out["poincare-spans"] = ("poincare", dict(spans, poincare={"run": ["concentration"]}))
    # h = 2**-11 at tau = 1: a period is exactly one 2 048-node span, so the
    # 1-period burn-in is one full span, the 2-period horizon two full tiles
    # and a one-node tile, and one period of moments a full and a one-node tile
    span_edges = {"noise": {"tau": 1.0}, "grid": {"h": 2.0**-11, "horizon_periods": 2},
                  "seeds": {"master": seed, "ensemble": 12}}
    out["verify-span-edges"] = ("verify", dict(span_edges, verify={
        "run": ["exceedance", "deviation", "moments"], "burn_in_periods": 1}))
    out["poincare-span-edges"] = ("poincare", dict(span_edges,
                                                   poincare={"run": ["concentration"]}))
    # 250 steps a period, yet h * n / tau is 44.99999999999999 for 45 periods
    out["average-short-period"] = ("average", {
        "noise": {"tau": 0.3}, "grid": {"h": 0.0012}, "seeds": {"master": seed},
        "average": {"burn_in_periods": 5, "avg_periods": 40}})
    # the estimator draws the path in spans: here no burn-in span, nine batches
    # of 411 nodes and 3 701 - 9 * 411 = 2 trailing nodes
    out["average-streamed"] = ("average", {
        "noise": {"driver": "independent", "channel1": {"forcing_amp": 0.5, "z0": 0.3}},
        "grid": {"h": 0.01}, "seeds": {"master": seed},
        "average": {"burn_in_periods": 0, "avg_periods": 37, "batches": 9}})
    # 7 h exceeds tau = 0.9 by one ulp, so the last moment time is clamped to tau
    out["verify-moments-ulp"] = ("verify", {
        "noise": {"tau": 0.9}, "grid": {"h": 0.9 / 7}, "seeds": {"master": seed},
        "verify": {"run": ["moments"], "moment_times": 8}})
    # at the default h = tau / 1000, 1 - alpha h is -2 and -2.5: channel 1
    # overflows in the calibration path near node 1 030, and in the moments
    # ensemble near node 780; both runs exit 3 and leave no file
    out["verify-blowup"] = ("verify", {"noise": {"channel1": {"alpha": 3000.0}},
                                       "seeds": {"master": seed, "ensemble": 12}})
    out["verify-blowup-moments"] = ("verify", {
        "noise": {"channel1": {"alpha": 3500.0}}, "seeds": {"master": seed, "ensemble": 12},
        "verify": {"run": ["moments"]}})
    # sigma = 1e60 overflows the exceedance orbits of its level at step 2 of
    # the horizon, while the other levels stay finite
    out["verify-orbit-blowup"] = ("verify", {
        "grid": {"horizon_periods": 3}, "seeds": {"master": seed, "ensemble": 12},
        "verify": {"run": ["exceedance"], "burn_in_periods": 1,
                   "sigma_levels": [[1e60, 1e60], [0.2, 0.2], [0.1, 0.1], [0.05, 0.05]]}})
    # as verify-blowup, but channel 2 overflows in the calibration path
    out["verify-blowup-channel2"] = ("verify", {"noise": {"channel2": {"alpha": 3000.0}},
                                                "seeds": {"master": seed, "ensemble": 12}})
    # the streamed estimate overflows on channel 1 of a shared driver, then on
    # channel 2 of an independent one: on two CPUs each channel is filtered by
    # its own process, and either one's node ends the run with exit 3
    blowup = {"seeds": {"master": seed},
              "average": {"burn_in_periods": 1, "avg_periods": 20, "batches": 8}}
    out["average-blowup"] = ("average", dict(blowup, noise={
        "driver": "shared", "channel1": {"alpha": 3000.0}}))
    out["average-blowup-channel2"] = ("average", dict(blowup, noise={
        "driver": "independent", "channel2": {"alpha": 3000.0}}))
    # 0.4 / 5e-324 overflows: the scan is rejected with exit 2 before --out exists
    out["atlas-scan-overflow"] = ("atlas", {"atlas": {"box": [0.0, 0.4, 0.0, 0.4],
                                                      "step": 5e-324, "scan": True}})
    # l**2 overflows: the run exits 3 and leaves no file
    out["simulate-overflow"] = ("simulate", {"pendulum": {"l": 1e200},
                                             "grid": {"horizon_periods": 2}})
    # g l = 1e-10: the classifier's tolerances scale with g l, so the run
    # starts at the stable equilibrium theta = 0 as for any pendulum
    out["poincare-flat-well"] = ("poincare", {"pendulum": {"g": 1e-10},
                                              "seeds": {"master": seed, "ensemble": 12},
                                              "poincare": {"run": ["concentration"]}})
    # g l != 1: atlas.json gives the curves of this pendulum, the ones its scan finds
    out["atlas-scaled"] = ("atlas", {"pendulum": {"g": 2.0},
                                     "atlas": {"samples": 256, "box": [-2.0, 2.0, 0.0, 1.2],
                                               "step": 0.05, "scan": True}})
    out["poincare-scaled"] = ("poincare", {"pendulum": {"g": 4.0},
                                           "seeds": {"master": seed, "ensemble": 12},
                                           "poincare": {"run": ["concentration"]}})
    # finite noise whose moments overflow: Lambda is not finite, exit 3 and no file
    out["average-lambda-overflow"] = ("average", {
        "noise": {"channel1": {"beta": 1e200}, "channel2": {"forcing_amp": 1e200}},
        "grid": {"h": 0.1}, "seeds": {"master": seed},
        "average": {"burn_in_periods": 1, "avg_periods": 16}})
    # one below a bound that only the config check enforces: exit 2 before --out exists
    out["atlas-samples-low"] = ("atlas", {"atlas": {"samples": 15}})
    out["portrait-grid-low"] = ("portrait", {"portrait": {"grid": [31, 32]}})
    out["average-batches-low"] = ("average", {"seeds": {"master": seed},
                                              "average": {"batches": 7}})
    out["verify-delta-zero"] = ("verify", {"seeds": {"master": seed}, "verify": {"delta": 0}})
    return out


def run(tree: Path, command: str, config: Path, out: Path) -> tuple[int, str]:
    """Exit code and stderr of one CLI run in a fresh interpreter."""
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", _RUNNER, str(src), command,
                          "--config", str(config), "--out", str(out)],
                         cwd=out.parent, env=env, capture_output=True, text=True)
    return res.returncode, res.stderr


def digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--case", action="append", help="run only this case")
    args = parser.parse_args(argv)
    table = cases(args.seed)
    names = args.case or list(table)
    unknown = sorted(set(names) - set(table))
    if unknown:
        parser.error(f"unknown case(s) {unknown}; known: {sorted(table)}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    differing = []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for name in names:
            command, config = table[name]
            case_dir = Path(tmp) / name
            case_dir.mkdir()
            cfg_path = case_dir / "config.json"
            cfg_path.write_text(json.dumps(config))
            codes, files, last = {}, {}, {}
            for label, tree in trees.items():
                (case_dir / label).mkdir()
                out = case_dir / label / "out"
                codes[label], err = run(tree, command, cfg_path, out)
                if codes[label] == NO_PACKAGE:
                    print(f"{label} tree {tree}: {err.strip()}", file=sys.stderr)
                    return 2
                files[label] = digests(out)
                # the error of a failed run; a successful one prints timings
                last[label] = (err.strip().splitlines() or [""])[-1] if codes[label] else ""
            same_code = codes["parent"] == codes["change"]
            print(f"{name} ({command}): exit {codes['parent']} / {codes['change']}"
                  f"{'' if same_code else '  DIFFERENT'}")
            same = same_code
            for label in trees:
                if codes[label] and files[label]:
                    print(f"  LEFT FILES  {label} failed and left {sorted(files[label])}")
                    same = False
            if last["parent"] or last["change"]:
                if last["parent"] == last["change"]:
                    print(f"  identical  stderr  {last['parent']}")
                else:
                    print(f"  DIFFERENT  stderr  {last['parent']!r} != {last['change']!r}")
                    same = False
            for fname in sorted(set(files["parent"]) | set(files["change"])):
                a = files["parent"].get(fname, "missing")
                b = files["change"].get(fname, "missing")
                if a == b:
                    print(f"  identical  {fname}  {a}")
                else:
                    print(f"  DIFFERENT  {fname}  {a} != {b}")
                    same = False
            if not same:
                differing.append(name)
    if differing:
        print(f"outputs differ in {len(differing)} of {len(names)} cases: "
              f"{', '.join(differing)}")
        return 1
    print(f"all outputs identical in {len(names)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
