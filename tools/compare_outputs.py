"""Run the CLI on a fixed set of configs in two source trees and compare every output byte.

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE [--seed N] [--case NAME ...]

A tree is a checkout with the package under ``src/stochpend``.  Every run
is a fresh interpreter with ``PYTHONPATH`` set to that tree's ``src``, and
it works in a temporary directory: nothing is written inside either tree.

The cases cover all six commands: the four benchmark workloads of
``perfbench/workloads.py`` at ``--seed`` (default 0), a small ``portrait``,
small configs that switch on every ``verify`` run and every ``poincare``
run, ``verify`` and ``poincare`` ensembles of three seed chunks (every
run that draws its noise chunk by chunk crosses a chunk boundary), an
``average`` whose grid duration over tau is not a whole number in
floating point, an ``average`` whose window leaves nodes after its last
batch, and a ``verify`` of the moments whose last grid node lies one ulp
past tau.  ``--case`` (repeatable) runs only the cases named.

For each case the script prints both exit codes and, per output file, the
SHA-256 from each tree.  It exits 0 when every case has the same exit code
and the same files with the same bytes, 1 when anything differs, and 2 when
a tree's package cannot be imported from its ``src``.
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
            codes, files = {}, {}
            for label, tree in trees.items():
                (case_dir / label).mkdir()
                out = case_dir / label / "out"
                codes[label], err = run(tree, command, cfg_path, out)
                if codes[label] == NO_PACKAGE:
                    print(f"{label} tree {tree}: {err.strip()}", file=sys.stderr)
                    return 2
                files[label] = digests(out)
            same_code = codes["parent"] == codes["change"]
            print(f"{name} ({command}): exit {codes['parent']} / {codes['change']}"
                  f"{'' if same_code else '  DIFFERENT'}")
            same = same_code
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
