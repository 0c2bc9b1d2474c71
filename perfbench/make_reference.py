"""Record the exceedance reference that ``checks.check_exceedance`` compares to.

    python3 perfbench/make_reference.py

Runs the ensemble-exceedance workload through the CLI for ``CHUNKS``
master seeds whose 500-seed ensembles do not overlap, pools the exceedance
counts per sigma level and writes them to ``perfbench/reference.json``.
Rerun it only when the workload's config changes; the counts describe the
program at the commit that recorded them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import stochpend.cli as cli  # noqa: E402
from run import environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIRST_SEED = 1_000_000
CHUNKS = 20


def main() -> int:
    workload = WORKLOADS["ensemble-exceedance"]
    counts = None
    seeds = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(CHUNKS):
            seed = FIRST_SEED + k * workload.config(0)["seeds"]["ensemble"]
            cfg = workload.config(seed)
            cfg_path = Path(tmp) / f"cfg-{k}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = Path(tmp) / f"out-{k}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([workload.command, "--config", str(cfg_path),
                                 "--out", str(out)])
            if code != 0:
                print(f"seed {seed}: exit code {code}", file=sys.stderr)
                return code
            rep = json.loads((out / "exceedance.json").read_text())
            n = rep["ensemble_n"]
            chunk = [round(p * n) for p in rep["probs"]]
            counts = chunk if counts is None else [a + b for a, b in zip(counts, chunk)]
            seeds.append(seed)
            print(f"seed {seed}: {chunk}", file=sys.stderr)
    env = environment()
    reference = {"ensemble-exceedance": {
        "verify": {key: cfg["verify"][key]
                   for key in ("sigma_levels", "delta", "burn_in_periods", "initial")},
        "horizon_periods": cfg["grid"]["horizon_periods"],
        "master_seeds": seeds,
        "ensemble_n": n * len(seeds),
        "exceed_counts": counts,
        "recorded_with": {k: env[k] for k in ("python", "numpy", "scipy")},
    }}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
