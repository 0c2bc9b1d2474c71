"""One measured CLI run in a fresh interpreter.

    python3 perfbench/child.py --command verify --config cfg.json --out DIR \
        --result result.json [--spans spans.json]

Imports ``stochpend.cli`` from the checkout's ``src`` (timed: ``setup_s``),
then calls ``cli.main`` once (timed: ``wall_s`` and ``cpu_s``) and writes
the measurements to ``--result``.  With ``--spans`` the outside-in tracer
is installed first and its spans and per-layer metrics are written out
after the run, outside the CLI's output directory.  ``--import-only``
stops after the import; it warms the bytecode cache and checks the tree.

A fixed calibration kernel is timed before the import and after
``cli.main`` (``kernel_s``); ``run.py`` scales the times by it to a
reference host speed.  A timing is kept only if nothing of the program
could have slowed it: no other thread of the process used CPU meanwhile
and no child process was alive.  Otherwise it is reported as ``None``.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


#: The calibration kernel makes dependent random loads from a 32 MB buffer,
#: larger than the CPU caches.  On a shared host the speed drifts mostly as
#: other tenants contend for the memory system; the workloads feel that drift
#: and so does this kernel, while a kernel that stays in the caches does not.
KERNEL_WORDS = 1 << 22
KERNEL_LOADS = 300_000
#: CPU time other threads of the process may use during a kernel timing,
#: as a share of the kernel's own CPU time, before the timing is dropped.
KERNEL_QUIET_FRAC = 0.01


def _has_live_children() -> bool:
    """Whether this process has a child process (one exited child is reaped)."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def calibration_kernel() -> float | None:
    """Time a fixed chain of dependent loads from a buffer larger than the caches.

    Pure Python, so it imports nothing the program would.  Returns None if
    the program may have competed with it: a child process is alive, or
    other threads of this process used CPU meanwhile.
    """
    if _has_live_children():
        return None
    mask = KERNEL_WORDS - 1
    buf = array.array("q", bytes(8 * KERNEL_WORDS))
    process0, thread0 = time.process_time(), time.thread_time()
    t0 = time.perf_counter()
    j = 0
    for _ in range(KERNEL_LOADS):
        j = (j * 1103515245 + 12345 + buf[j]) & mask
    elapsed = time.perf_counter() - t0
    own = time.thread_time() - thread0
    others = time.process_time() - process0 - own
    if others > KERNEL_QUIET_FRAC * own or _has_live_children():
        return None
    return elapsed


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command")
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    k0 = calibration_kernel()
    t0 = time.perf_counter()
    import stochpend.cli as cli
    setup_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"stochpend was imported from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.import_only:
        return 0

    tracer = None
    if args.spans:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    argv_cli = [args.command, "--config", args.config, "--out", args.out]
    c0 = _cpu_s()
    t0 = time.perf_counter()
    code = cli.main(argv_cli)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    k2 = calibration_kernel()

    result = {"exit_code": code, "setup_s": setup_s, "wall_s": wall_s,
              "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb, "kernel_s": [k0, k2]}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["absent_layers"] = tracer.absent_layers
        result["absent_functions"] = tracer.absent_functions
        result["uncounted"] = sorted(tracer.uncounted)
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["layer", "function", "start_ns", "end_ns",
                                  "parent", "error"],
                       "spans": tracer.spans, "counts": tracer.counts}, fh)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
