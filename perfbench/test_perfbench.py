"""Tests of the benchmark itself: tracer arithmetic, configs and output checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
from tracer import COUNTERS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(layer, func, start, end, parent, error=False):
    return [layer, func, start, end, parent, error]


# -- tracer -------------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        _span("cli", "main", 0, 100, -1),
        _span("rpsde", "simulate_pair", 10, 50, 0),
        _span("rng", "standard_normals", 20, 30, 1),
        _span("rng", "standard_normals", 32, 40, 1),
        _span("io", "write_json", 60, 90, 0, error=True),
    ]
    assert self_times(spans) == [30, 22, 10, 8, 30]
    counts = dict.fromkeys(COUNTERS, 0)
    m = layer_metrics(spans, counts, ["cli", "rpsde", "rng", "io", "poincare"])
    assert m["rng.self_s"] == 18e-9 and m["rng.calls"] == 2
    assert m["io.errors"] == 1 and m["cli.errors"] == 0
    assert m["poincare.calls"] == 0 and m["poincare.self_s"] == 0
    layer_sum = sum(m[f"{x}.self_s"] for x in ("cli", "rpsde", "rng", "io"))
    assert layer_sum == pytest.approx(m["trace.wall_s"]) == pytest.approx(100e-9)


def test_tracer_catches_imported_names_and_restores_them(tmp_path):
    import stochpend.rng as rng
    import stochpend.rpsde as rpsde

    original = rng.standard_normals
    tracer = Tracer()
    tracer.install()
    try:
        assert rpsde.standard_normals.__wrapped__ is original
        _run_cli("simulate", _small_orbit_config(), tmp_path / "out")
    finally:
        tracer.uninstall()
    assert rng.standard_normals is original and rpsde.standard_normals is original
    assert not tracer.absent_layers
    m = tracer.metrics()
    roots = [s for s in tracer.spans if s[4] < 0]
    assert [s[1] for s in roots] == ["main"]
    assert sum(m[f"{x}.self_s"] for x in tracer.layers) == pytest.approx(m["trace.wall_s"])
    assert m["rng.samples"] == 300 and m["dynamics.orbit_steps"] == 300
    assert m["dynamics.batch_width"] == 1 and m["io.rows"] == 3 * 301 + 4
    assert m["io.bytes"] > 0 and m["rpsde.path_values"] == 2 * 301


def test_tracer_records_missing_names_instead_of_failing():
    layers = {"rng": ("standard_normals", "no_such_function"),
              "gone": ("anything",)}
    tracer = Tracer(layers=layers)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent_functions == ["rng.no_such_function", "gone.anything"]
    assert tracer.absent_layers == ["gone"]


# -- host-speed calibration ---------------------------------------------------


def test_calibration_kernel_is_dropped_while_the_program_could_compete():
    fresh = subprocess.run([sys.executable, "-c", "import child; "
                            "print(child.calibration_kernel())"],
                           cwd=HERE, capture_output=True, text=True, check=True)
    assert float(fresh.stdout) > 0
    stop = threading.Event()

    def burn():
        while not stop.is_set():
            pass

    worker = threading.Thread(target=burn)
    worker.start()
    try:
        assert child.calibration_kernel() is None
    finally:
        stop.set()
        worker.join()
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        assert child.calibration_kernel() is None
    finally:
        proc.kill()
        proc.wait()


# -- configs ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_is_a_pure_function_of_the_seed(name):
    w = WORKLOADS[name]
    a, b = w.config(7), w.config(7)
    assert a == b and json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    a["noise"]["channel1"]["alpha"] = 99.0
    assert w.config(7) == b
    c = w.config(8)
    assert c["seeds"]["master"] == 8 and b["seeds"]["master"] == 7
    c["seeds"]["master"] = 7
    assert c == b
    ch1, ch2 = b["noise"]["channel1"], b["noise"]["channel2"]
    assert (ch1["alpha"], ch1["beta"], ch2["alpha"], ch2["beta"]) == (1.0, 0.6, 2.0, 0.8)
    with pytest.raises(ValueError):
        w.config(-1)


# -- output checks ------------------------------------------------------------


def _run_cli(command, cfg, out):
    import stochpend.cli as cli

    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0


def _small_orbit_config():
    cfg = WORKLOADS["single-orbit"].config(4)
    cfg["grid"] = {"h": 0.01, "horizon_periods": 3}
    return cfg


def _rewrite_line(path, index, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines))


def test_single_orbit_check_rejects_corruption(tmp_path):
    cfg = _small_orbit_config()
    out = tmp_path / "orbit"
    _run_cli("simulate", cfg, out)
    assert checks.check_output("single-orbit", out, cfg) == []

    traj = out / "trajectory.csv"
    good = traj.read_text()
    _rewrite_line(traj, -1, lambda s: ",".join(
        repr(float(x) + 1e-6) if i == 1 else x for i, x in enumerate(s.split(","))))
    assert any("independent RK4" in p for p in checks.check_output("single-orbit", out, cfg))
    traj.write_text(good)
    _rewrite_line(traj, 5, lambda s: s.rsplit(",", 1)[0] + ",nan\n")
    assert any("non-finite" in p for p in checks.check_output("single-orbit", out, cfg))
    traj.write_text(good)
    _rewrite_line(out / "section.csv", -1, lambda s: "")
    assert any("rows" in p for p in checks.check_output("single-orbit", out, cfg))


def test_noise_path_check_rejects_missing_or_rescaled_noise(tmp_path):
    cfg = _small_orbit_config()
    out = tmp_path / "orbit"
    _run_cli("simulate", cfg, out)
    paths = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1)
    assert checks.check_noise_path(paths, cfg) == []
    for scale in (0.0, 2.0):
        bad = paths.copy()
        bad[:, 1:] *= scale
        problems = checks.check_noise_path(bad, cfg)
        assert len(problems) == 3 and all("quadratic covariation" in p for p in problems)
    bad = paths.copy()
    bad[0, 1] = 0.5
    assert any("starts at" in p for p in checks.check_noise_path(bad, cfg))


def test_atlas_check_rejects_a_spurious_boundary(tmp_path):
    cfg = WORKLOADS["atlas-scan"].config(0)
    cfg["atlas"]["step"] = 0.1
    out = tmp_path / "atlas"
    _run_cli("atlas", cfg, out)
    assert checks.check_output("atlas-scan", out, cfg) == []
    # corner (-1.0, 1.2) is far from both curves
    _rewrite_line(out / "scan.csv", 13, lambda s: s.rsplit(",", 1)[0] + ",boundary\n")
    assert "-1,1.2" in (out / "scan.csv").read_text().splitlines()[13]
    assert checks.check_output("atlas-scan", out, cfg)


def test_exceedance_check_rejects_bad_probabilities(tmp_path):
    cfg = WORKLOADS["ensemble-exceedance"].config(0)
    n = cfg["seeds"]["ensemble"]
    rep = {"delta": 0.05, "ensemble_n": n, "horizon_periods": 6,
           "sigma_levels": cfg["verify"]["sigma_levels"],
           "probs": [449 / n, 62 / n, 0.0, 0.0]}
    tmp_path.joinpath("exceedance.json").write_text(json.dumps(rep))
    assert checks.check_output("ensemble-exceedance", tmp_path, cfg) == []
    for probs in ([1.5, 62 / n, 0.0, 0.0],      # outside [0, 1]
                  [350 / n, 62 / n, 0.0, 0.0],  # far from the reference
                  [449 / n, 62 / n, 9 / n, 0.0]):  # level 0.1 never exceeds
        tmp_path.joinpath("exceedance.json").write_text(json.dumps(dict(rep, probs=probs)))
        assert checks.check_output("ensemble-exceedance", tmp_path, cfg)


def test_exceedance_interval_contains_the_reference_rate():
    lo, hi = checks.exceedance_interval(7140, 10000, 500)
    assert lo < 357 < hi and hi - lo < 130
    assert checks.exceedance_interval(0, 10000, 500)[0] == 0


def test_average_check_rejects_estimates_off_the_closed_form(tmp_path):
    cfg = WORKLOADS["noise-average"].config(0)
    stats = {"c1": 0.1793, "c2": 0.1596, "c12": 0.1595, "mean1": -0.001,
             "mean2": -0.0007, "se_c1": 0.0027, "se_c2": 0.0014, "se_c12": 0.0019,
             "se_mean1": 0.0062, "se_mean2": 0.0042, "avg_periods": 10000,
             "burn_in_periods": 100}
    stats["lambda1"] = 0.25 * (0.01 * stats["c1"] - 0.01 * stats["c2"])
    stats["lambda2"] = 0.5 * 0.01 * stats["c12"]
    path = tmp_path / "ergodic_stats.json"
    path.write_text(json.dumps(stats))
    assert checks.check_output("noise-average", tmp_path, cfg) == []
    path.write_text(json.dumps(dict(stats, c1=0.18 + 10 * 0.0027)))
    assert checks.check_output("noise-average", tmp_path, cfg)
    path.write_text(json.dumps(dict(stats, lambda2=0.5)))
    assert checks.check_output("noise-average", tmp_path, cfg)
    path.unlink()
    assert checks.check_output("noise-average", tmp_path, cfg)
