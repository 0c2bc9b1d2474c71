"""Outside-in tracer: spans around the public functions of each stochpend layer.

The program itself is not changed.  :meth:`Tracer.install` replaces every
``stochpend.*`` module attribute that refers to a traced function by a
wrapper, so ``from .x import f`` call sites and intra-module calls (for
example ``numeric_bifurcation_scan`` -> ``classify_region``) are caught.
Spans are kept in memory; :meth:`Tracer.metrics` reduces them at the end.

Times are integer nanoseconds from ``time.perf_counter_ns``, so the self
times of all spans add up exactly to the duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time

import numpy as np

#: Layer name -> public functions traced in ``stochpend.<layer>``.  Only
#: module-boundary entry points are listed; numeric helpers called inside
#: hot loops (``exact_hamiltonian``, ``_rk4_rhs``) stay with their caller.
LAYERS = {
    "rng": ("standard_normals", "ensemble_seeds"),
    "rpsde": ("simulate_path", "simulate_pair", "simulate_ensemble",
              "simulate_pair_ensemble", "estimate_ergodic_stats"),
    "dynamics": ("exact_flow", "exact_flow_ensemble", "bob_embedding",
                 "lambda_from_stats", "averaged_flow"),
    "verification": ("calibration_stats", "exceedance_probability",
                     "potential_deviation", "moment_growth",
                     "m1m2_decomposition", "chebyshev_consistency"),
    "bifurcation": ("numeric_bifurcation_scan", "classify_region",
                    "find_equilibria", "atlas_curves", "phase_portrait"),
    "poincare": ("stroboscope", "equilibrium_concentration",
                 "plane_fill_density", "separatrix_splitting_probe"),
    "io": ("write_json", "write_pair_csv", "write_trajectory_csv",
           "write_embedding_csv", "write_section_csv", "write_scan_csv",
           "write_atlas_json", "write_histogram_csv", "write_portrait_csv",
           "sha256_of"),
    "cli": ("main",),
}

#: Package whose modules are searched for references to traced functions.
PACKAGE = "stochpend"

# span record fields
LAYER, FUNC, START, END, PARENT, ERROR = range(6)


def _batch_width(a) -> int:
    """Product of the batch shape of ``exact_flow_ensemble`` arguments."""
    shape = np.broadcast_shapes(np.shape(a["theta0"]), np.shape(a["p0"]),
                                np.shape(a["xi1"])[:-1], np.shape(a["xi2"])[:-1])
    return int(math.prod(shape))


#: CSV writer -> rows it is asked to write, from its bound arguments.
_CSV_ROWS = {
    "write_pair_csv": lambda a: len(a["pair"][0].values),
    "write_trajectory_csv": lambda a: len(a["traj"].theta),
    "write_embedding_csv": lambda a: len(a["emb"].x),
    "write_section_csv": lambda a: len(a["section"].theta),
    "write_scan_csv": lambda a: a["scan"].labels.size,
    "write_histogram_csv": lambda a: a["report"].counts.size,
    "write_portrait_csv": lambda a: a["portrait"].hbar.size,
}


def count_work(func: str, a, counts: dict) -> None:
    """Add the work a call is asked to do, read from its bound arguments."""
    if func == "standard_normals":
        counts["rng.samples"] += int(a["n"])
    elif func in ("simulate_path", "simulate_pair"):
        channels = 1 if func == "simulate_path" else 2
        counts["rpsde.path_values"] += channels * (a["grid"].n + 1)
    elif func in ("simulate_ensemble", "simulate_pair_ensemble"):
        channels = 1 if func == "simulate_ensemble" else 2
        counts["rpsde.path_values"] += channels * len(a["seeds"]) * (a["grid"].n + 1)
    elif func == "exact_flow_ensemble":
        width = _batch_width(a)
        counts["dynamics.orbit_steps"] += width * a["grid"].n
        counts["dynamics.width_steps"] += width * width * a["grid"].n
    elif func == "exceedance_probability":
        counts["verification.orbit_steps"] += (
            len(a["sigma_levels"]) * int(a["ensemble_n"])
            * int(a["horizon_periods"]) * int(a["steps_per_period"]))
    elif func == "classify_region":
        counts["bifurcation.lambda_points"] += 1
    elif func in _CSV_ROWS:
        counts["io.rows"] += int(_CSV_ROWS[func](a))


#: Functions whose written file size is added to ``io.bytes``.
_WRITERS = {name for name in LAYERS["io"] if name.startswith("write_")}
#: Functions whose arguments ``count_work`` reads.
_COUNTED = {"standard_normals", "simulate_path", "simulate_pair",
            "simulate_ensemble", "simulate_pair_ensemble",
            "exact_flow_ensemble", "exceedance_probability",
            "classify_region"} | _WRITERS

COUNTERS = ("rng.samples", "rpsde.path_values", "dynamics.orbit_steps",
            "dynamics.width_steps", "verification.orbit_steps",
            "bifurcation.lambda_points", "io.rows", "io.bytes")


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self, layers: dict = LAYERS):
        self.layers = layers
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.absent_functions: list[str] = []
        #: Functions whose arguments no longer match the work counters.
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that exists; note those that do not."""
        homes = {}
        for layer in self.layers:
            try:
                homes[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                homes[layer] = None
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for layer, funcs in self.layers.items():
            home = homes[layer]
            for func in funcs:
                original = getattr(home, func, None) if home is not None else None
                if not callable(original):
                    self.absent_functions.append(f"{layer}.{func}")
                    continue
                wrapper = self._wrap(layer, func, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @property
    def absent_layers(self) -> list[str]:
        absent = set(self.absent_functions)
        return [layer for layer, funcs in self.layers.items()
                if all(f"{layer}.{f}" in absent for f in funcs)]

    def _wrap(self, layer: str, func: str, original):
        spans, stack, counts = self.spans, self._stack, self.counts
        uncounted = self.uncounted
        signature = inspect.signature(original) if func in _COUNTED else None
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            arguments = None
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                    count_work(func, arguments, counts)
                except (TypeError, KeyError, AttributeError, IndexError):
                    uncounted.add(func)
            index = len(spans)
            spans.append([layer, func, clock(), 0, stack[-1] if stack else -1, False])
            stack.append(index)
            try:
                return original(*args, **kwargs)
            except BaseException:
                spans[index][ERROR] = True
                raise
            finally:
                spans[index][END] = clock()
                stack.pop()
                if func in _WRITERS and arguments is not None:
                    _add_file_size(counts, arguments.get("path"))

        return wrapper

    # -- reduction --------------------------------------------------------

    def metrics(self) -> dict:
        return layer_metrics(self.spans, self.counts, list(self.layers))


def _add_file_size(counts: dict, path) -> None:
    try:
        counts["io.bytes"] += os.path.getsize(path)
    except (OSError, TypeError):
        pass


def self_times(spans: list) -> list[int]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread and nest properly, so children of a span
    never overlap and their durations can simply be subtracted.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, counts: dict, layers: list[str]) -> dict:
    """Per-layer self time, calls and errors plus the work-unit costs."""
    own = self_times(spans)
    self_ns = dict.fromkeys(layers, 0)
    func_ns: dict[str, int] = {}
    out: dict[str, float] = {}
    for layer in layers:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.errors"] = 0
    classify_us = []
    for s, ns in zip(spans, own):
        layer = s[LAYER]
        self_ns[layer] = self_ns.get(layer, 0) + ns
        func_ns[s[FUNC]] = func_ns.get(s[FUNC], 0) + ns
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        out[f"{layer}.errors"] = out.get(f"{layer}.errors", 0) + int(s[ERROR])
        if s[FUNC] == "classify_region":
            classify_us.append((s[END] - s[START]) / 1e3)
    for layer, ns in self_ns.items():
        out[f"{layer}.self_s"] = ns / 1e9

    c = counts
    steps = max(c["dynamics.orbit_steps"], c["verification.orbit_steps"])
    out.update({
        "rng.samples": c["rng.samples"],
        "rng.ns_per_sample": _ratio(self_ns.get("rng", 0), c["rng.samples"]),
        "rpsde.path_values": c["rpsde.path_values"],
        "rpsde.ns_per_value": _ratio(self_ns.get("rpsde", 0), c["rpsde.path_values"]),
        "rpsde.samples_per_orbit_step": _ratio(c["rng.samples"], steps),
        "dynamics.orbit_steps": c["dynamics.orbit_steps"],
        "dynamics.ns_per_orbit_step": _ratio(func_ns.get("exact_flow_ensemble", 0),
                                             c["dynamics.orbit_steps"]),
        "dynamics.batch_width": _ratio(c["dynamics.width_steps"],
                                       c["dynamics.orbit_steps"]),
        "verification.orbit_steps": c["verification.orbit_steps"],
        "verification.ns_per_orbit_step": _ratio(
            func_ns.get("exceedance_probability", 0), c["verification.orbit_steps"]),
        "bifurcation.lambda_points": c["bifurcation.lambda_points"],
        "bifurcation.classify_p50_us": _percentile(classify_us, 50.0),
        "bifurcation.classify_p99_us": _percentile(classify_us, 99.0),
        "io.rows": c["io.rows"],
        "io.bytes": c["io.bytes"],
        "io.ns_per_byte": _ratio(self_ns.get("io", 0), c["io.bytes"]),
        "trace.wall_s": sum(s[END] - s[START] for s in spans if s[PARENT] < 0) / 1e9,
    })
    return out
