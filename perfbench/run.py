"""Benchmark runner: runs one workload through ``stochpend.cli.main``.

    python3 perfbench/run.py --workload single-orbit --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout.  The runner writes the workload's
JSON config from ``--seed`` and runs the CLI on it in fresh child
interpreters, one at a time, until ``--seconds`` have passed (at least
three runs).  Each child reports its import time (``setup_s``), its time
inside ``cli.main`` (``wall_s``), its CPU time and its peak resident set;
the run's median times are scaled to a reference host speed (see
``REFERENCE_KERNEL_S``).  Outputs are checked: the first run's output in
full, every later run's byte for byte against the first.

With ``--trace 1`` untraced and traced children alternate; the traced ones
report per-layer metrics, and ``trace.overhead_frac`` compares the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, the error rate and the
environment.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from checks import check_output  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_RUNS = 3
#: Typical time of ``child.calibration_kernel`` on the reference host (2 vCPUs
#: of an Intel Xeon, Python 3.11.7).  The host's speed drifts by up to 2x over
#: seconds to minutes, because other tenants share it.  Each run's times are
#: therefore scaled by this constant over the median kernel time of the run.
REFERENCE_KERNEL_S = 0.12
MIN_TRACED_PAIRS = 2
#: A traced run's root span (``cli.main``) must cover the child's own
#: ``wall_s`` to within this share plus ``TRACE_GAP_S``.
TRACE_GAP_FRAC = 0.01
TRACE_GAP_S = 0.001
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {f"{layer}.{m}": unit for layer in LAYERS
             for m, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))}
PER_LAYER.update({
    "rng.samples": "count", "rng.ns_per_sample": "ns",
    "rpsde.path_values": "count", "rpsde.ns_per_value": "ns",
    "rpsde.samples_per_orbit_step": "samples/step",
    "dynamics.orbit_steps": "count", "dynamics.ns_per_orbit_step": "ns",
    "dynamics.batch_width": "count",
    "verification.orbit_steps": "count", "verification.ns_per_orbit_step": "ns",
    "bifurcation.lambda_points": "count", "bifurcation.classify_p50_us": "us",
    "bifurcation.classify_p99_us": "us",
    "io.rows": "count", "io.bytes": "B", "io.ns_per_byte": "ns/B",
    "trace.wall_s": "s", "trace.overhead_frac": "fraction",
})

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    """Facts that byte identity and timings hold within."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "cpu_model": cpu or platform.processor() or None,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def run_child(workdir: Path, index: int, workload, config_path: Path,
              traced: bool) -> dict:
    """One CLI run in a fresh interpreter; returns its record."""
    cdir = workdir / f"run-{index:03d}"
    cdir.mkdir()
    out, result = cdir / "out", cdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--command", workload.command,
           "--config", str(config_path), "--out", str(out), "--result", str(result)]
    if traced:
        cmd += ["--spans", str(cdir / "spans.json")]
    record = {"index": index, "traced": traced, "problems": []}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["problems"].append(f"timed out after {CHILD_TIMEOUT_S} s")
        return record
    if proc.returncode != 0:
        record["problems"].append(f"exit code {proc.returncode}")
    if "Traceback" in proc.stderr:
        record["problems"].append("printed a traceback: "
                                  + proc.stderr.strip().splitlines()[-1])
    if result.is_file():
        record.update(json.loads(result.read_text()))
    else:
        record["problems"].append("no result written")
    if out.is_dir():
        record["digests"] = digests(out)
    return record


def verify_outputs(records: list[dict], workdir: Path, workload, cfg: dict) -> None:
    """Check the first output in full and the rest byte for byte against it."""
    first = None
    for rec in records:
        if rec["problems"] or "digests" not in rec:
            if "digests" not in rec:
                rec["problems"].append("no output directory")
            continue
        if first is None:
            first = rec
            out = workdir / f"run-{rec['index']:03d}" / "out"
            rec["problems"] += check_output(workload.name, out, cfg)
        elif rec["digests"] != first["digests"]:
            rec["problems"].append(f"output bytes differ from run {first['index']}")
        else:
            rec["problems"] += first["problems"]
        if rec is not first:
            shutil.rmtree(workdir / f"run-{rec['index']:03d}" / "out",
                          ignore_errors=True)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cfg = workload.config(seed)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")

    # Start another child only while it is expected to finish in time, so a
    # run lasts about ``seconds`` however long one child takes.
    records = []
    start = time.perf_counter()
    last = 0.0
    while (len(records) < (2 * MIN_TRACED_PAIRS if trace else MIN_RUNS)
           or time.perf_counter() - start + last <= seconds):
        traced = trace and len(records) % 2 == 1
        t0 = time.perf_counter()
        records.append(run_child(workdir, len(records), workload, config_path, traced))
        last = time.perf_counter() - t0
    elapsed = time.perf_counter() - start
    verify_outputs(records, workdir, workload, cfg)

    for rec in records:
        layers = rec.get("layers")
        if layers and abs(layers["trace.wall_s"] - rec["wall_s"]) \
                > TRACE_GAP_FRAC * rec["wall_s"] + TRACE_GAP_S:
            rec["problems"].append(f"traced spans cover {layers['trace.wall_s']:.6f} s "
                                   f"of the child's {rec['wall_s']:.6f} s wall_s")
    good = [r for r in records if not r["problems"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    samples = {name: [r[name] for r in plain] for name in END_TO_END}
    timings = [k for r in plain for k in r["kernel_s"]]
    kernels = [k for k in timings if k is not None]
    host = REFERENCE_KERNEL_S / statistics.median(kernels) if kernels else 1.0
    metrics = {}
    if trace:
        if traced and plain:
            for name, unit in PER_LAYER.items():
                if name != "trace.overhead_frac":
                    values = [r["layers"].get(name, 0.0) for r in traced]
                    metrics[name] = {"value": statistics.median(values), "unit": unit}
            overhead = (statistics.median(r["wall_s"] for r in traced)
                        / statistics.median(samples["wall_s"]) - 1.0)
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    elif plain:
        metrics = {name: {"value": statistics.median(values)
                          * (1.0 if name == "peak_rss_mb" else host),
                          "unit": END_TO_END[name]}
                   for name, values in samples.items()}
    failed = len(records) - len(good)
    return {"workload": workload.name, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, "env": environment(),
            "correct": failed == 0 and bool(metrics),
            "attempted": len(records), "failed": failed, "metrics": metrics,
            "samples": samples, "host_factor": host,
            "kernels_dropped": len(timings) - len(kernels), "traced_runs": len(traced),
            "records": records}


def summary_lines(res: dict) -> list[str]:
    n = len(res["samples"]["wall_s"])
    lines = [f"{res['workload']} seed {res['seed']} trace {int(res['trace'])}: "
             f"{res['attempted']} runs in {res['elapsed_s']:.1f} s"]
    for name, m in res["metrics"].items():
        count = n if name in END_TO_END else res["traced_runs"]
        lines.append(f"  {name:32s} {m['value']:14.6g} {m['unit']:12s} "
                     f"median of {count}")
    lines.append(f"  {'error_rate':32s} {res['failed'] / res['attempted']:14.6g} "
                 f"{'fraction':12s} {res['failed']} of {res['attempted']}")
    if res["trace"] and res["metrics"]:
        wall = res["metrics"]["trace.wall_s"]["value"]
        shares = ", ".join(f"{layer} {res['metrics'][layer + '.self_s']['value'] / wall:.1%}"
                           for layer in LAYERS)
        lines.append(f"  self-time shares: {shares}")
    raw = ", ".join(f"{name} {statistics.median(v):.6g}"
                    for name, v in res["samples"].items() if v and name != "peak_rss_mb")
    lines.append(f"  unscaled medians (s): {raw}; host factor {res['host_factor']:.4f}, "
                 f"{res['kernels_dropped']} kernel timings dropped")
    for rec in res["records"]:
        for problem in rec["problems"]:
            lines.append(f"  run {rec['index']}: {problem}")
        for key in ("absent_layers", "uncounted"):
            if rec.get(key):
                lines.append(f"  run {rec['index']}: {key} {rec[key]}")
    lines.append("  env: " + json.dumps(res["env"], sort_keys=True))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "stochpend" / "cli.py").is_file():
        print(f"no stochpend source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    warm = subprocess.run([sys.executable, str(HERE / "child.py"), "--import-only"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"cannot import stochpend.cli:\n{warm.stderr}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        (WORK / name / "result.json").write_text(
            json.dumps(res, indent=2, sort_keys=True) + "\n")
        print("\n".join(summary_lines(res)))
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
