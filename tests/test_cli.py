import contextlib
import csv
import inspect
import io
import json
import os
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochpend import bifurcation, cli, dynamics, poincare, rng, rpsde, verification
from stochpend import io as stochpend_io
from stochpend.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, RunConfig, main
from stochpend.rpsde import grid_for_periods
from stochpend.verification import calibration_stats

from conftest import default_noise_pair, set_workers


def run_cli(tmp_path, command, config, out="run", seed=None):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), tmp_path / out


BASE = {
    "noise": {"sigma1": 0.1, "sigma2": 0.1},
    "grid": {"h": 0.001, "horizon_periods": 3},
    "seeds": {"master": 11},
}


def read_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


# ---------------------------------------------------------------------------
# simulate


def test_simulate_classical_trajectory(tmp_path, capsys):
    cfg = dict(BASE, noise={"sigma1": 0.0, "sigma2": 0.0},
               simulate={"initial": [0.5, 0.0]})
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"paths.csv", "trajectory.csv",
                                        "embedding.csv"}
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    energy = np.array([float(r["H"]) for r in rows])
    assert np.abs(energy - energy[0]).max() <= 1e-8
    # 17-significant-digit round trip
    theta = [float(r["theta"]) for r in rows]
    assert all(np.isfinite(theta))


def test_simulate_byte_identical_rerun(tmp_path):
    cfg = dict(BASE, simulate={"initial": [0.1, 0.0], "section": True})
    code1, out1 = run_cli(tmp_path, "simulate", cfg, out="a")
    code2, out2 = run_cli(tmp_path, "simulate", cfg, out="b")
    assert code1 == code2 == EXIT_OK
    assert read_bytes(out1) == read_bytes(out2)


def test_simulate_seed_override_changes_outputs(tmp_path):
    cfg = dict(BASE, simulate={"initial": [0.1, 0.0]})
    _, out1 = run_cli(tmp_path, "simulate", cfg, out="a", seed=1)
    _, out2 = run_cli(tmp_path, "simulate", cfg, out="b", seed=2)
    a = (out1 / "paths.csv").read_bytes()
    b = (out2 / "paths.csv").read_bytes()
    assert a != b


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = dict(BASE)
    cfg["noise"] = {"sigma1": 0.1, "typo_field": 1}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "typo_field" in capsys.readouterr().err


def test_incommensurate_tau_with_section(tmp_path, capsys):
    cfg = dict(BASE, grid={"h": 0.0003, "horizon_periods": 2},
               simulate={"section": True})
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "multiple" in err and "0.0003" in err


@pytest.mark.parametrize("command", ["simulate", "average"])
def test_incommensurate_tau_without_section_rejected(tmp_path, capsys, command):
    # the grid always covers whole periods, with or without a section
    cfg = dict(BASE, grid={"h": 0.0003, "horizon_periods": 2})
    code, out = run_cli(tmp_path, command, cfg)
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "multiple" in capsys.readouterr().err


def test_width1_overflow_exits_numeric(tmp_path, capsys):
    # noise near 1e200 makes an RK4 stage angle infinite; the float
    # back-end's math.cos(inf) must surface as a blow-up, not a config error
    cfg = dict(BASE, noise={"sigma1": 0.1, "sigma2": 0.1, "channel1": {"beta": 1e200}})
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == EXIT_NUMERIC
    assert not out.exists()
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("command, out", [
    ("simulate", "run"), ("simulate", "nest/a/run"),
    ("average", "run"), ("average", "nest/a/run"),
], ids=["run", "nest/a/run", "average-run", "average-nest/a/run"])
def test_blowup_exits_numeric(tmp_path, capsys, command, out):
    cfg = {
        "noise": {"channel1": {"alpha": 3000.0}},
        "grid": {"h": 0.001, "horizon_periods": 3},
    }
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, command, cfg, out=out)
    assert code == EXIT_NUMERIC
    assert not out.exists()
    assert not (tmp_path / "nest").exists()  # nor any directory the run created
    assert "numeric failure" in capsys.readouterr().err


SMALL = {"grid": {"h": 0.01, "horizon_periods": 2}, "seeds": {"ensemble": 4},
         "average": {"burn_in_periods": 1, "avg_periods": 16}}
LAMBDA_OVERFLOW = {"channel1": {"beta": 1e200}, "channel2": {"forcing_amp": 1e200}}


@pytest.mark.parametrize("command, cfg, line", [
    # Python float ** raises OverflowError where numpy would give inf
    ("simulate", {"pendulum": {"l": 1e200}},
     "numeric failure: float overflow: Numerical result out of range"),
    ("portrait", {"pendulum": {"l": 1e200}}, "numeric failure: "),
    ("average", {"noise": {"sigma1": 1e200}}, "numeric failure: "),
    ("verify", {"noise": {"sigma1": 1e100}, "verify": {"run": ["moments"]}}, "numeric failure: "),
    ("verify", {"verify": {"sigma_levels": [[1e200, 0]]}}, "numeric failure: "),
    ("poincare", {"noise": {"sigma1": 1e200}, "poincare": {"run": ["fill"]}},
     "numeric failure: "),
    # finite noise whose long-run moments overflow, so Lambda is not finite
    ("average", {"noise": LAMBDA_OVERFLOW, "grid": {"h": 0.1, "horizon_periods": 1}},
     "numeric failure: "),
    ("verify", {"noise": LAMBDA_OVERFLOW, "grid": {"h": 0.1, "horizon_periods": 1}},
     "numeric failure: "),
], ids=["simulate-length", "portrait-length", "average-sigma", "moments-sigma",
        "exceedance-level", "fill-sigma", "average-lambda-overflow",
        "verify-lambda-overflow"])
def test_extreme_values_fail_cleanly(tmp_path, capsys, command, cfg, line):
    """Each run exits 3 with no ``--out``; ``line`` starts its last stderr line."""
    with np.errstate(all="ignore"):
        got, out = run_cli(tmp_path, command, {**SMALL, **cfg}, out="nest/a/run")
    assert got == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(line)
    assert "Traceback" not in err
    assert not (tmp_path / "nest").exists()  # nor any directory the run created


def test_flat_well_concentration_starts_at_the_stable_equilibrium(tmp_path):
    # g l = 1e-10: the classifier's tolerances scale with g l, so at Lambda = 0
    # theta = 0 is a stable equilibrium, as for any pendulum
    cfg = {**SMALL, "pendulum": {"g": 1e-10}, "poincare": {"run": ["concentration"]}}
    code, out = run_cli(tmp_path, "poincare", cfg)
    assert code == EXIT_OK
    report = json.loads((out / "concentration.json").read_text())
    assert report["equilibrium_theta"] == 0.0
    assert len(report["radii"]) == len(RunConfig({}, "poincare").poincare["sigma_levels"])


@pytest.mark.parametrize("run", ["moments", "exceedance"])
def test_noise_overflow_in_a_late_tile_exits_numeric(tmp_path, capsys, monkeypatch, run):
    # alpha h = 3: channel 1 doubles each step and overflows near node 1 025,
    # in the seventeenth time tile of 64 nodes; the exceedance orbits blow up
    # in an earlier tile, before that noise is drawn
    stats = calibration_stats(default_noise_pair(), 0, steps_per_period=100)
    monkeypatch.setattr("stochpend.cli.calibration_stats", lambda *args, **kwargs: stats)
    monkeypatch.setattr("stochpend.rpsde._SPAN", 64)
    cfg = {"noise": {"channel1": {"alpha": 6000.0}},
           "grid": {"h": 0.0005, "horizon_periods": 1}, "seeds": {"ensemble": 4},
           "verify": {"run": [run], "burn_in_periods": 0}}
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(tmp_path, "verify", cfg)
    assert code == EXIT_NUMERIC
    assert not out.exists()
    assert "numeric failure" in capsys.readouterr().err


# every output file of each ensemble run, and the error lines of a noise and
# an orbit blow-up in an ensemble (the tools/compare_outputs.py cases)
PARTITION_CASES = {
    "verify": ("verify", {"grid": {"h": 0.01, "horizon_periods": 3},
                          "seeds": {"master": 3, "ensemble": 30},
                          "verify": {"run": ["exceedance", "moments", "deviation"],
                                     "burn_in_periods": 2}}),
    "poincare": ("poincare", {"grid": {"h": 0.01, "horizon_periods": 3},
                              "seeds": {"master": 3, "ensemble": 30},
                              "poincare": {"run": ["concentration"]}}),
    "verify-blowup-moments": ("verify", {"noise": {"channel1": {"alpha": 3500.0}},
                                         "seeds": {"master": 0, "ensemble": 12},
                                         "verify": {"run": ["moments"]}}),
    "verify-orbit-blowup": ("verify", {
        "grid": {"horizon_periods": 3}, "seeds": {"master": 0, "ensemble": 12},
        "verify": {"run": ["exceedance"], "burn_in_periods": 1,
                   "sigma_levels": [[1e60, 1e60], [0.2, 0.2], [0.1, 0.1], [0.05, 0.05]]}}),
}


@pytest.mark.parametrize("case", list(PARTITION_CASES))
def test_seed_partition_changes_no_byte(tmp_path, capsys, monkeypatch, case):
    """One or two workers and seed blocks of ``SEED_CHUNK`` or 7 seeds give
    the same files, or the same error line, as one block of all the seeds.
    The 32-node tiles let decided exceedance rows leave the batch.  On two
    workers the run process runs no block: its peak memory holds no tile."""
    command, cfg = PARTITION_CASES[case]
    monkeypatch.setattr(rpsde, "_SPAN", 32)
    run, run_block = os.getpid(), rpsde._run_block

    def helper_only(*args):
        if os.getpid() == run:
            raise AssertionError("an ensemble block ran in the run process")
        return run_block(*args)

    runs = []
    for workers, chunk in [(1, rpsde.SEED_CHUNK), (2, rpsde.SEED_CHUNK), (2, 7), (1, 7)]:
        set_workers(monkeypatch, workers)
        monkeypatch.setattr(rpsde, "SEED_CHUNK", chunk)
        monkeypatch.setattr(rpsde, "_run_block", helper_only if workers == 2 else run_block)
        with np.errstate(over="ignore", invalid="ignore"):
            code, out = run_cli(tmp_path, command, cfg, out=f"{workers}-{chunk}")
        err = capsys.readouterr().err
        assert "Traceback" not in err
        runs.append((code, read_bytes(out)) if code == EXIT_OK else (code, err.splitlines()[-1]))
    assert runs[0][0] == (EXIT_OK if case in ("verify", "poincare") else EXIT_NUMERIC)
    assert all(run == runs[0] for run in runs[1:])


def test_no_worker_outlives_the_run(tmp_path, capsys, monkeypatch):
    """Every forked helper, the ensemble's, the streamed estimate's and the
    CSV writer's, is reaped before ``main`` returns, so no child process is
    left that could compete with a timing taken after it: when the run
    succeeds, when channel 2 (the helper's) overflows, and when a helper
    raises or is killed.  A killed helper ends the run at once, with exit
    3: it does not leave the run waiting for an answer that never comes.
    In the ensemble cases the calibration is given, so only the ensemble's
    helpers filter noise; in the ``simulate`` cases every CSV is split, and
    the helper fails in its append."""
    set_workers(monkeypatch, 2)
    stats = calibration_stats(default_noise_pair(), 3, steps_per_period=100)
    run = os.getpid()

    def in_helper(func, fail):
        def patched(*args, **kwargs):
            if os.getpid() != run:
                fail()
            return func(*args, **kwargs)
        return patched

    def noise_helper(fail):
        return {(rpsde, "_filter_tile"): in_helper(rpsde._filter_tile, fail),
                (cli, "calibration_stats"): lambda *args, **kwargs: stats}

    def csv_helper(fail=None):
        split = {(stochpend_io, "SPLIT_VALUES"): 1}
        return split if fail is None else {**split, (stochpend_io, "open"): in_helper(open, fail)}

    def no_memory():
        raise MemoryError("Unable to allocate 7.11 PiB for an array")

    def killed():
        os.kill(os.getpid(), signal.SIGKILL)

    average = {"grid": {"h": 0.01},
               "average": {"burn_in_periods": 2, "avg_periods": 20, "batches": 8}}
    simulate = dict(BASE, simulate={"section": True})
    cases = [
        (*PARTITION_CASES["verify"], {}, None),
        ("average", average, {}, None),
        ("average", dict(average, noise={"channel2": {"alpha": 300.0}}), {},
         "numeric failure: noise path non-finite at grid step "),
        ("average", average, noise_helper(no_memory),
         "numeric failure: Unable to allocate 7.11 PiB"),
        ("average", average, noise_helper(killed),
         "numeric failure: a helper process ended early"),
        (*PARTITION_CASES["verify"], noise_helper(no_memory),
         "numeric failure: Unable to allocate 7.11 PiB"),
        (*PARTITION_CASES["verify"], noise_helper(killed),
         "numeric failure: a helper process ended early"),
        ("simulate", simulate, csv_helper(), None),
        ("simulate", simulate, csv_helper(no_memory),
         "numeric failure: Unable to allocate 7.11 PiB"),
        ("simulate", simulate, csv_helper(killed),
         "numeric failure: a helper process ended early"),
    ]

    def hung(signum, frame):
        raise TimeoutError("the run did not end within 60 s")

    for k, (command, cfg, patches, line) in enumerate(cases):
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with monkeypatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
                for (module, name), value in patches.items():
                    mp.setattr(module, name, value, raising=False)
                code, out = run_cli(tmp_path, command, cfg, out=f"run-{k}")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if line is None:
            assert code == EXIT_OK
        else:
            assert code == EXIT_NUMERIC and not out.exists()
            assert err.splitlines()[-1].startswith(line)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_failed_fork_exits_numeric(tmp_path, capsys, monkeypatch):
    """A helper that cannot be started (out of process ids) is a resource
    failure: exit 3, no ``--out`` and no child left."""
    def no_pids():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    set_workers(monkeypatch, 2)
    monkeypatch.setattr(stochpend_io, "SPLIT_VALUES", 1)
    monkeypatch.setattr(os, "fork", no_pids)
    code, out = run_cli(tmp_path, "simulate", BASE)
    assert code == EXIT_NUMERIC and not out.exists()
    assert capsys.readouterr().err.splitlines()[-1] == (
        "numeric failure: could not start a helper process: "
        "[Errno 11] Resource temporarily unavailable")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_out_of_memory_exits_numeric(tmp_path, capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 7.11 PiB for an array")
    monkeypatch.setattr("stochpend.rpsde._spans", no_memory)
    code, out = run_cli(tmp_path, "simulate", BASE)
    assert code == EXIT_NUMERIC
    assert not out.exists()
    assert "numeric failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# average


def test_average_matches_ou_oracle(tmp_path):
    cfg = {
        "noise": {
            "channel1": {"alpha": 1.0, "beta": float(np.sqrt(2.0))},
            "channel2": {"alpha": 1.0, "beta": float(np.sqrt(2.0))},
        },
        "grid": {"h": 0.002},
        "average": {"burn_in_periods": 100, "avg_periods": 500, "batches": 16},
    }
    code, out = run_cli(tmp_path, "average", cfg)
    assert code == EXIT_OK
    stats = json.loads((out / "ergodic_stats.json").read_text())
    assert abs(stats["c1"] - 1.0) <= 3 * stats["se_c1"]
    assert stats["lambda1"] == pytest.approx(0.0, abs=1e-12)  # equal channels


def test_average_rejects_short_window(tmp_path, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("noise drawn before the window was checked")
    monkeypatch.setattr("stochpend.rpsde.standard_normals", no_draw)
    for cfg in (
        {"average": {"burn_in_periods": 100, "avg_periods": 10, "batches": 16}},
        # fewer periods than the 16 default batches, on a path that would blow up
        {"noise": {"channel1": {"alpha": 3000.0}},
         "average": {"burn_in_periods": 2, "avg_periods": 5}},
    ):
        code, out = run_cli(tmp_path, "average", cfg)
        assert code == EXIT_CONFIG
        assert not out.exists()


# ---------------------------------------------------------------------------
# atlas / portrait


def test_atlas_contains_cusp_anchor(tmp_path):
    cfg = {"atlas": {"samples": 512}}
    code, out = run_cli(tmp_path, "atlas", cfg)
    assert code == EXIT_OK
    atlas = json.loads((out / "atlas.json").read_text())
    points = np.array(atlas["gamma1"])
    cusp = points[np.argmin(np.abs(points[:, 0] - 0.25) + np.abs(points[:, 1]))]
    assert cusp[0] == pytest.approx(0.25, abs=1e-12)
    assert cusp[1] == pytest.approx(0.0, abs=1e-12)
    assert atlas["gamma2"]["min_lambda1"] == 0.25


def test_atlas_scan_writes_labels(tmp_path):
    cfg = {"atlas": {"samples": 64, "scan": True,
                     "box": [0.0, 0.6, 0.0, 0.6], "step": 0.1,
                     "scan_grid_n": 256}}
    code, out = run_cli(tmp_path, "atlas", cfg)
    assert code == EXIT_OK
    with open(out / "scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    labels = {r["label"] for r in rows}
    assert labels <= {"pi1", "pi2", "boundary"}
    assert "pi1" in labels and "pi2" in labels


def test_atlas_curves_bound_the_scan_of_a_scaled_pendulum(tmp_path):
    """At g = 2 every boundary cell of the scan lies within one step of the
    Gamma_1 or Gamma_2 that atlas.json gives for the same pendulum."""
    step = 0.02
    cfg = {"pendulum": {"g": 2.0},
           "atlas": {"samples": 4096, "scan": True, "box": [-2.0, 2.0, 0.0, 1.2], "step": step}}
    code, out = run_cli(tmp_path, "atlas", cfg)
    assert code == EXIT_OK
    atlas = json.loads((out / "atlas.json").read_text())
    with open(out / "scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    corners = np.array([(float(r["lambda1"]), float(r["lambda2"])) for r in rows])
    n1 = len(np.unique(corners[:, 0]))
    labels = np.array([r["label"] for r in rows]).reshape(n1, -1)
    # a cell is on the boundary if its corners disagree or one is a boundary corner
    quad = np.stack([labels[:-1, :-1], labels[1:, :-1], labels[:-1, 1:], labels[1:, 1:]])
    on = (quad != quad[0]).any(axis=0) | (quad == "boundary").any(axis=0)
    cells = corners.reshape(n1, -1, 2)[:-1, :-1][on] + 0.5 * step
    assert len(cells) > 100
    gamma1 = np.array(atlas["gamma1"])
    to_gamma1 = np.hypot(*(cells[:, None, :] - gamma1[None, :, :]).T).min(axis=0)
    start = atlas["gamma2"]["min_lambda1"]
    to_gamma2 = np.hypot(np.maximum(start - cells[:, 0], 0.0), cells[:, 1])
    assert np.minimum(to_gamma1, to_gamma2).max() <= step


def test_portrait_files(tmp_path):
    cfg = {"portrait": {"lambda1": 0.5, "lambda2": 1.0, "grid": [48, 48]}}
    code, out = run_cli(tmp_path, "portrait", cfg)
    assert code == EXIT_OK
    meta = json.loads((out / "portrait_meta.json").read_text())
    assert len(meta["equilibria"]) == 4
    assert len(meta["separatrix_levels"]) == 2
    with open(out / "portrait.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 48 * 48


# ---------------------------------------------------------------------------
# verify / poincare


def test_verify_deviation_needs_three_levels(tmp_path, capsys):
    cfg = {"verify": {"run": ["deviation"], "sigma_levels": [[0.1, 0.1]]}}
    code, out = run_cli(tmp_path, "verify", cfg)
    assert code == EXIT_CONFIG
    assert "3 sigma levels" in capsys.readouterr().err


def test_verify_small_exceedance(tmp_path):
    cfg = {
        "grid": {"h": 0.01, "horizon_periods": 3},
        "seeds": {"master": 5, "ensemble": 30},
        "verify": {"run": ["exceedance", "chebyshev"], "delta": 0.02,
                   "sigma_levels": [[0.2, 0.2], [0.05, 0.05]],
                   "burn_in_periods": 5},
    }
    code, out = run_cli(tmp_path, "verify", cfg)
    assert code == EXIT_OK
    rep = json.loads((out / "exceedance.json").read_text())
    assert rep["probs"][0] >= rep["probs"][1]
    cheb = json.loads((out / "chebyshev.json").read_text())
    assert cheb["passed"]


def test_poincare_concentration_run(tmp_path):
    cfg = {
        "grid": {"h": 0.01, "horizon_periods": 5},
        "seeds": {"master": 3, "ensemble": 40},
        "poincare": {"run": ["concentration", "sections", "fill"],
                     "sigma_levels": [[0.1, 0.1], [0.05, 0.05]],
                     "sections_exported": 2, "fill_grid": [16, 16]},
    }
    code, out = run_cli(tmp_path, "poincare", cfg)
    assert code == EXIT_OK
    rep = json.loads((out / "concentration.json").read_text())
    assert rep["radii"][0] > rep["radii"][1]
    assert (out / "section-000.csv").exists()
    assert (out / "fill.json").exists()


def test_poincare_sections_start_at_configured_initial_state(tmp_path):
    cfg = {"grid": {"h": 0.01, "horizon_periods": 2},
           "poincare": {"run": ["sections"], "initial": [0.7, -0.3],
                        "sections_exported": 1}}
    code, out = run_cli(tmp_path, "poincare", cfg)
    assert code == EXIT_OK
    with open(out / "section-000.csv") as fh:
        first = next(csv.DictReader(fh))
    assert float(first["theta_wrapped"]) == pytest.approx(0.7, abs=1e-12)
    assert float(first["p"]) == -0.3


# the keys of every JSON file of an all-runs verify and poincare, so that a
# field added to a report shows up here and not only in its output file
REPORT_KEYS = {
    "verify": {
        "exceedance.json": {"delta", "sigma_levels", "probs", "ci_half_widths",
                            "ensemble_n", "horizon_periods"},
        "deviation.json": {"sigma_levels", "mean_abs_dev", "loglog_slope", "ensemble_n"},
        "chebyshev.json": {"empirical", "bound", "slack", "n_admissible", "n_excluded",
                           "passed", "no_admissible"},
        "moments.json": {"t", "fourth1", "fourth2", "cross22", "cross31", "cross13",
                         "fitted_constants", "residuals", "ensemble_n"},
    },
    "poincare": {
        "concentration.json": {"equilibrium_theta", "sigma_levels", "radii",
                               "ensemble_n", "horizon_periods"},
        "fill.json": {"occupancy", "band_edges", "band_occupancy"},
        "splitting.json": {"lambda", "saddle_theta", "sigma_levels", "spreads",
                           "n_points"},
    },
}


@pytest.mark.parametrize("command", sorted(REPORT_KEYS))
def test_report_json_keys_pinned(tmp_path, command):
    cfg = {"grid": {"h": 0.1, "horizon_periods": 2}, "seeds": {"ensemble": 4},
           "verify": {"run": ["exceedance", "deviation", "chebyshev", "moments"],
                      "moment_times": 4, "theta_grid_n": 8},
           "poincare": {"run": ["concentration", "fill", "splitting", "sections"],
                        "n_points": 4, "fill_grid": [16, 16], "sections_exported": 1}}
    code, out = run_cli(tmp_path, command, cfg)
    assert code == EXIT_OK
    written = {p.name: set(json.loads(p.read_text())) for p in out.glob("*.json")}
    manifest_keys = {"command", "version", "libraries", "effective_config", "outputs"}
    assert written == {**REPORT_KEYS[command], "manifest.json": manifest_keys}


def test_default_noise_pair_comes_from_the_schema():
    channel1, channel2 = RunConfig({}, "simulate").pair
    assert (channel1.drift.alpha, channel1.beta) == (1.0, 0.6)
    assert (channel2.drift.alpha, channel2.beta) == (2.0, 0.8)


def test_computational_functions_have_no_parameter_defaults():
    """Every default is a field of ``cli.SCHEMA``: no module-level function of
    the computational modules supplies one of its own."""
    defaulted = [f"{module.__name__}.{name}({p.name})"
                 for module in (rng, rpsde, dynamics, verification, poincare, bifurcation)
                 for name, f in vars(module).items()
                 if inspect.isfunction(f) and f.__module__ == module.__name__
                 for p in inspect.signature(f).parameters.values()
                 if p.default is not p.empty]
    assert defaulted == []


# effective_config of {} as the manifest writes it
DEFAULTS = {
    "pendulum": {"l": 1.0, "g": 1.0},
    "noise": {
        "tau": 1.0, "sigma1": 0.1, "sigma2": 0.1, "driver": "shared",
        "convention": "derived",
        "channel1": {"alpha": 1.0, "beta": 0.6, "forcing_amp": 0.0,
                     "forcing_phase": 0.0, "z0": 0.0},
        "channel2": {"alpha": 2.0, "beta": 0.8, "forcing_amp": 0.0,
                     "forcing_phase": 0.0, "z0": 0.0},
    },
    "grid": {"h": 0.001, "horizon_periods": 50},
    "seeds": {"master": 0, "ensemble": 100},
    "simulate": {"initial": [0.1, 0.0], "section": False},
    "average": {"burn_in_periods": 100, "avg_periods": 10000, "batches": 16},
    "atlas": {"samples": 512, "box": [-1.0, 1.0, 0.0, 1.2], "step": 0.01,
              "scan": False, "scan_grid_n": 1024},
    "portrait": {"lambda1": 0.0, "lambda2": 0.0, "theta_min": -3.141592653589793,
                 "theta_max": 3.141592653589793, "p_min": -3.0, "p_max": 3.0,
                 "grid": [129, 129]},
    "verify": {"run": ["exceedance"], "delta": 0.05,
               "sigma_levels": [[0.4, 0.4], [0.2, 0.2], [0.1, 0.1], [0.05, 0.05]],
               "burn_in_periods": 20, "initial": [0.1, 0.0], "moment_times": 16,
               "theta_grid_n": 64},
    "poincare": {"run": ["concentration"],
                 "sigma_levels": [[0.2, 0.2], [0.1, 0.1], [0.05, 0.05]],
                 "n_points": 64, "initial": [0.1, 0.0],
                 "fill_grid": [64, 64], "sections_exported": 4},
}


@pytest.mark.parametrize("command", ["simulate", "average", "atlas", "portrait",
                                     "verify", "poincare"])
def test_defaults_pinned(command):
    effective = json.dumps(RunConfig({}, command).values, sort_keys=True)
    assert effective == json.dumps(DEFAULTS, sort_keys=True)


@pytest.mark.parametrize("text", [b"{not json", b"\xff\xfe{}", b"[" * 200000],
                         ids=["not-json", "not-utf8", "nested-too-deep"])
def test_invalid_json_config(tmp_path, capsys, text):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_bytes(text)
    out = tmp_path / "x"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["taken", "taken/run"], ids=["is-a-file", "under-a-file"])
def test_unwritable_out_exits_config(tmp_path, capsys, out):
    (tmp_path / "taken").write_text("kept")
    code, _ = run_cli(tmp_path, "atlas", {"atlas": {"samples": 16}}, out=out)
    assert code == EXIT_CONFIG
    assert (tmp_path / "taken").read_text() == "kept"
    assert "config error" in capsys.readouterr().err


def test_failed_manifest_write_leaves_nothing(tmp_path, capsys, monkeypatch):
    # the disk fills up while manifest.json is written: the partial manifest
    # goes with every other file and directory the run created
    write_json = cli.write_json

    def full_disk(path, payload):
        if Path(path).name != "manifest.json":
            return write_json(path, payload)
        Path(path).write_text("{")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("stochpend.cli.write_json", full_disk)
    code, out = run_cli(tmp_path, "atlas", {"atlas": {"samples": 16}}, out="out/run")
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("box, step", [
    ([-1e308, 1e308, 0.0, 0.4], 0.1),
    ([0.0, 0.4, 0.0, 0.4], 5e-324),
], ids=["box-span-overflows", "step-subnormal"])
def test_atlas_scan_with_infinitely_many_corners_exits_config(tmp_path, capsys, box, step):
    code, out = run_cli(tmp_path, "atlas", {"atlas": {"scan": True, "box": box, "step": step}})
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "atlas.step" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, text", [
    ("simulate", '{"noise": {"sigma1": 1e400}}'),
    ("simulate", '{"pendulum": {"l": 1e400}}'),
    # one period at h = 0.01 has 101 grid nodes
    ("verify", '{"grid": {"h": 0.01}, "seeds": {"ensemble": 4}, '
               '"verify": {"run": ["exceedance", "moments"], "moment_times": 102}}'),
    ("simulate", '{"noise": {"sigma1": NaN}}'),
    ("simulate", '{"pendulum": {"l": 1' + '0' * 400 + '}}'),
    # a block the command does not run is checked all the same
    ("atlas", '{"verify": {"delta": "abc", "sigma_levels": "x"}}'),
    ("simulate", '{"seeds": {"ensemble": 1.5}}'),
    ("simulate", '{"pendulum": {"l": 0}}'),
    ("simulate", '{"noise": {"driver": "both"}}'),
    ("verify", '{"verify": {"sigma_levels": []}}'),
    # the only checks of these bounds: the library functions do not repeat them
    ("atlas", '{"atlas": {"samples": 15}}'),
    ("average", '{"average": {"batches": 7}}'),
    ("verify", '{"verify": {"delta": 0}}'),
    ("verify", '{"seeds": {"ensemble": 0}}'),
    ("verify", '{"verify": {"run": ["moments"], "moment_times": 1}}'),
], ids=["sigma-overflow", "length-overflow", "moment-times-past-grid", "sigma-nan",
        "length-huge-int", "unrun-block-checked", "ensemble-not-integer", "length-zero",
        "driver-unknown", "sigma-levels-empty", "atlas-samples-low", "average-batches-low",
        "delta-zero", "ensemble-zero", "moment-times-low"])
def test_rejected_values_exit_config(tmp_path, capsys, command, text):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    out = tmp_path / "run"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, text, field", [
    ("atlas", '{"atlas": {"scan": true, "box": ["a", 1, 0, 1], "step": 0.5}}',
     "atlas.box"),
    ("atlas", '{"atlas": {"scan": true, "box": null, "step": 0.5}}', "atlas.box"),
    ("atlas", '{"atlas": {"scan": true, "box": [1, 0, 0, 1], "step": 0.5}}',
     "min < max"),
    ("verify", '{"verify": {"sigma_levels": [["a", 0.1]]}}', "verify.sigma_levels"),
    ("verify", '{"verify": {"sigma_levels": [[Infinity, 0.1]]}}',
     "verify.sigma_levels"),
    ("portrait", '{"portrait": {"grid": ["a", 48]}}', "portrait.grid"),
    ("poincare", '{"poincare": {"run": ["fill"], "fill_grid": [16, null]}}',
     "poincare.fill_grid"),
    ("verify", '{"verify": {"run": [["exceedance"]]}}', "verify.run"),
    ("poincare", '{"poincare": {"run": [{}]}}', "poincare.run"),
    ("simulate", '{"simulate": {"section": "no"}}', "simulate.section"),
    ("atlas", '{"atlas": {"scan": "false"}}', "atlas.scan"),
], ids=["box-string", "box-null", "box-reversed", "sigma-level-string",
        "sigma-level-infinite", "portrait-grid-string", "fill-grid-null",
        "run-entry-list", "run-entry-object", "section-string", "scan-string"])
def test_malformed_list_fields_exit_config(tmp_path, capsys, command, text, field):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    out = tmp_path / "run"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert "Traceback" not in err


def test_theta_grid_checked_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("calibration ran before the config was checked")

    monkeypatch.setattr("stochpend.cli.calibration_stats", no_run)
    cfg = {"verify": {"run": ["exceedance", "deviation"], "theta_grid_n": 4}}
    code, out = run_cli(tmp_path, "verify", cfg)
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "verify.theta_grid_n" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, field", [
    ({"grid": {"h": 0.01, "horizon_periods": 1}, "seeds": {"ensemble": 1},
      "verify": {"run": ["exceedance", "moments"]}}, "seeds.ensemble"),
    # one level has a sigma > 0, and the slope needs three
    ({"verify": {"run": ["deviation"], "sigma_levels": [[0, 0], [0, 0], [0.1, 0.1]]}},
     "3 sigma levels"),
], ids=["moments-one-seed", "deviation-one-noisy-level"])
def test_run_needs_checked_before_any_run(tmp_path, capsys, monkeypatch, cfg, field):
    def no_run(*args, **kwargs):
        raise AssertionError("calibration ran before the config was checked")

    monkeypatch.setattr("stochpend.cli.calibration_stats", no_run)
    code, out = run_cli(tmp_path, "verify", cfg)
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


@pytest.mark.parametrize("command", ["simulate", "verify", "poincare"])
@pytest.mark.parametrize("by_flag", [False, True], ids=["config", "flag"])
def test_master_seed_past_64_bits_rejected(tmp_path, capsys, command, by_flag):
    cfg = {"grid": {"h": 0.1, "horizon_periods": 1}, "seeds": {"ensemble": 2}}
    if not by_flag:
        cfg["seeds"]["master"] = 10**30
    code, out = run_cli(tmp_path, command, cfg, seed=10**30 if by_flag else None)
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seeds.master" in err
    assert "Traceback" not in err


def test_master_seed_bound_counts_every_member():
    # the defaults draw 100 ensemble seeds, 64 splitting seeds and 4 sections
    RunConfig({"seeds": {"master": 2**64 - 100}}, "verify")
    with pytest.raises(ValueError, match="seeds.master"):
        RunConfig({"seeds": {"master": 2**64 - 99}}, "verify")
    RunConfig({"seeds": {"ensemble": 2}, "poincare": {"n_points": 2}}, "poincare",
              seed=2**64 - 4)
    with pytest.raises(ValueError, match="seeds.master"):
        RunConfig({"seeds": {"ensemble": 2}, "poincare": {"n_points": 2}}, "poincare",
                  seed=2**64 - 3)


@pytest.mark.parametrize("command", ["simulate", "average", "atlas", "portrait",
                                     "verify", "poincare"])
@pytest.mark.parametrize("block, field, small", [
    ("portrait", "grid", [8, 8]), ("portrait", "grid", [32, 31]),
    ("poincare", "fill_grid", [8, 8]), ("poincare", "fill_grid", [15, 16]),
])
def test_schema_grid_bounds_checked_for_every_command(tmp_path, capsys, command,
                                                      block, field, small):
    """Every command rejects a grid below its ``cli.SCHEMA`` bound, whether
    or not it reads that block."""
    code, out = run_cli(tmp_path, command, {block: {field: small}})
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{block}.{field}" in err
    assert "Traceback" not in err
    RunConfig({"portrait": {"grid": [32, 32]}, "poincare": {"fill_grid": [16, 16]}},
              command)


@pytest.mark.parametrize("block", [
    {"burn_in_periods": 5, "avg_periods": 40},
    {"burn_in_periods": 3, "avg_periods": 17, "batches": 17},
])
def test_average_counts_whole_periods(tmp_path, block):
    # 250 steps a period, yet h * n / tau = 44.99999999999999 for 45 periods:
    # periods are counted on grid nodes, not from the float duration
    cfg = {"noise": {"tau": 0.3}, "grid": {"h": 0.0012}, "average": block}
    code, out = run_cli(tmp_path, "average", cfg)
    assert code == EXIT_OK
    stats = json.loads((out / "ergodic_stats.json").read_text())
    assert stats["avg_periods"] == block["avg_periods"]
    assert stats["burn_in_periods"] == block["burn_in_periods"]


def test_threads_flag_is_gone(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{}")
    with pytest.raises(SystemExit):
        main(["atlas", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
              "--threads", "2"])


def test_equilibrium_theta_field_is_gone(tmp_path, capsys):
    code, out = run_cli(tmp_path, "poincare", {"poincare": {"equilibrium_theta": 0.0}})
    assert code == EXIT_CONFIG
    assert not out.exists()
    assert "equilibrium_theta" in capsys.readouterr().err


def test_verify_moments_default_times_on_grid(tmp_path):
    cfg = {"seeds": {"master": 2, "ensemble": 4}, "verify": {"run": ["moments"]}}
    code, out = run_cli(tmp_path, "verify", cfg)
    assert code == EXIT_OK
    t = np.array(json.loads((out / "moments.json").read_text())["t"])
    assert len(t) == 16
    assert t[0] == 0.0 and t[-1] == 1.0
    nodes = grid_for_periods(1.0, 1, 1000).times()
    assert np.all(np.isin(t, nodes))


@pytest.mark.parametrize("command, block, written", [
    ("verify", {"run": ["moments"]}, {"moments.json"}),
    ("poincare", {"run": ["concentration"]}, {"concentration.json"}),
])
def test_runs_that_read_no_calibration_survive_its_blowup(tmp_path, command, block, written):
    # alpha h = 2.001: the path grows by 1.001 a step, so the 2 000-period
    # calibration path overflows while the 2-period ensemble stays finite
    cfg = {"noise": {"channel1": {"alpha": 2001.0}},
           "grid": {"h": 0.001, "horizon_periods": 2}, "seeds": {"ensemble": 4},
           command: block}
    code, out = run_cli(tmp_path, command, cfg)
    assert code == EXIT_OK
    assert {p.name for p in out.iterdir()} == written | {"manifest.json"}


@pytest.mark.parametrize("command, block", [
    ("verify", {"run": ["moments"]}),
    ("poincare", {"run": ["concentration", "sections"], "sections_exported": 1}),
])
def test_calibration_drawn_only_for_runs_that_read_it(tmp_path, monkeypatch, command, block):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration drawn for runs that do not read it")

    monkeypatch.setattr("stochpend.cli.calibration_stats", no_calibration)
    cfg = {"grid": {"h": 0.01, "horizon_periods": 2}, "seeds": {"ensemble": 4},
           command: block}
    code, _ = run_cli(tmp_path, command, cfg)
    assert code == EXIT_OK


# ---------------------------------------------------------------------------
# every setting of the experiment blocks changes some output

# a small run per block, every run of the block switched on; other fields default
SETTING_RUNS = {
    "verify": {"grid": {"h": 0.05, "horizon_periods": 2}, "seeds": {"ensemble": 4},
               "verify": {"run": ["exceedance", "deviation", "chebyshev", "moments"]}},
    "poincare": {"grid": {"h": 0.05, "horizon_periods": 2}, "seeds": {"ensemble": 4},
                 "poincare": {"run": ["concentration", "fill", "splitting", "sections"]}},
    "atlas": {"atlas": {"samples": 16, "scan": True, "box": [0.0, 0.4, 0.0, 0.4],
                        "step": 0.2}},
}


def _data_files(tmp_path, command, config):
    code, out = run_cli(tmp_path, command, config)
    assert code == EXIT_OK
    files = read_bytes(out)
    del files["manifest.json"]  # records the config itself
    return files


@pytest.fixture(scope="module")
def setting_baselines(tmp_path_factory):
    return {command: _data_files(tmp_path_factory.mktemp(command), command, config)
            for command, config in SETTING_RUNS.items()}


SETTING_CHANGES = [
    ("verify", "delta", 0.01),
    ("verify", "sigma_levels", [[0.3, 0.3], [0.2, 0.2], [0.1, 0.1]]),
    ("verify", "burn_in_periods", 3),
    ("verify", "initial", [0.5, 0.0]),
    ("verify", "moment_times", 5),
    ("verify", "theta_grid_n", 8),
    ("poincare", "sigma_levels", [[0.3, 0.3], [0.1, 0.1], [0.05, 0.05]]),
    ("poincare", "n_points", 5),
    ("poincare", "initial", [0.5, 0.0]),
    ("poincare", "fill_grid", [32, 32]),
    ("poincare", "sections_exported", 2),
    ("atlas", "samples", 17),
    ("atlas", "box", [0.0, 0.4, 0.0, 0.6]),
    ("atlas", "step", 0.1),
]


@pytest.mark.parametrize("block, field, value", [
    *(pytest.param(*change, id=".".join(change[:2])) for change in SETTING_CHANGES),
    pytest.param("atlas", "scan_grid_n", 64, id="atlas.scan_grid_n", marks=pytest.mark.xfail(
        strict=True, reason="reads nothing; kept because the atlas-scan benchmark "
                            "workload sets it")),
])
def test_every_setting_changes_an_output(tmp_path, setting_baselines, block, field, value):
    config = json.loads(json.dumps(SETTING_RUNS[block]))
    config[block][field] = value
    assert _data_files(tmp_path, block, config) != setting_baselines[block]


# ---------------------------------------------------------------------------
# drawn configs: the CLI contract holds for any JSON input

# wrong JSON types; a drawn config may carry one of them in any field or block
JUNK = st.one_of(st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
                 st.just({"x": 1}), st.none(), st.booleans(),
                 st.just(float("nan")), st.just(10**400))


def _block(**fields):
    return st.fixed_dictionaries({}, optional=fields)


def _pair(elements):
    return st.lists(elements, min_size=2, max_size=2)


def _runs(names):
    # a run entry may also be an unhashable list or object
    entry = st.one_of(st.sampled_from(names), st.just([names[0]]), st.just({}))
    return st.lists(entry, max_size=3)


_INITIAL = _pair(st.sampled_from([-0.5, 0.0, 0.1, 0.7]))
_LEVELS = st.lists(_pair(st.sampled_from([0.0, 0.05, 0.2])), min_size=1, max_size=4)
_CHANNEL = _block(alpha=st.sampled_from([1.0, 2.0]), beta=st.sampled_from([0.6, 0.8]),
                  forcing_amp=st.sampled_from([0.0, 0.5]),
                  forcing_phase=st.sampled_from([0.0, 1.0]),
                  z0=st.sampled_from([0.0, 0.3]))
# a reversed box, and a box and a step that give infinitely many scan corners
_BOX = st.sampled_from([[0.0, 0.4, 0.0, 0.4], [0.4, 0.0, 0.0, 0.4], [-1e308, 1e308, 0.0, 0.4]])
_STEP = st.sampled_from([0.1, 0.2, 5e-324])

BLOCKS = {
    "pendulum": _block(l=st.sampled_from([0.5, 1.0, 2]), g=st.sampled_from([1.0, 2.0])),
    "noise": _block(tau=st.sampled_from([1.0, 0.5]),
                    sigma1=st.sampled_from([0.0, 0.1, 0.2]),
                    sigma2=st.sampled_from([0.0, 0.1, 0.2]),
                    driver=st.sampled_from(["shared", "independent"]),
                    convention=st.sampled_from(["derived", "paper"]),
                    channel1=_CHANNEL, channel2=_CHANNEL),
    "simulate": _block(initial=_INITIAL, section=st.booleans()),
    "average": _block(burn_in_periods=st.integers(0, 3), avg_periods=st.integers(8, 20),
                      batches=st.integers(8, 12)),
    "atlas": _block(samples=st.integers(16, 64), box=_BOX, step=_STEP, scan=st.booleans(),
                    scan_grid_n=st.integers(64, 256)),
    "portrait": _block(lambda1=st.sampled_from([-0.2, 0.0, 0.5]),
                       lambda2=st.sampled_from([0.0, 1]),
                       theta_min=st.sampled_from([-3.0, 1.0]),
                       theta_max=st.sampled_from([3.0, 0.5]),
                       p_min=st.sampled_from([-2.0, 0]), p_max=st.sampled_from([2.0, 0]),
                       grid=_pair(st.integers(32, 40))),
    "verify": _block(run=_runs(["exceedance", "deviation", "chebyshev", "moments"]),
                     delta=st.sampled_from([0.01, 0.1]), sigma_levels=_LEVELS,
                     burn_in_periods=st.integers(0, 2), initial=_INITIAL,
                     moment_times=st.integers(2, 12), theta_grid_n=st.integers(8, 16)),
    "poincare": _block(run=_runs(["concentration", "fill", "splitting", "sections"]),
                       sigma_levels=_LEVELS, n_points=st.integers(2, 4), initial=_INITIAL,
                       fill_grid=_pair(st.integers(16, 18)),
                       sections_exported=st.integers(1, 2)),
}
PLAIN_CONFIGS = st.fixed_dictionaries({
    # tiny grids: h = 0.1 (10 steps a period), 1-2 periods, 2-4 seeds
    "grid": st.fixed_dictionaries({"h": st.just(0.1)}, optional={
        "horizon_periods": st.integers(1, 2)}),
    "seeds": st.fixed_dictionaries({"ensemble": st.integers(2, 4)}, optional={
        "master": st.integers(0, 3)}),
}, optional=BLOCKS)
COMMANDS = ["simulate", "average", "atlas", "portrait", "verify", "poincare"]


@st.composite
def runs(draw):
    """A command, and a plain config that sets the command's block.

    Junk goes into at most one field or block of the config.
    """
    command = draw(st.sampled_from(COMMANDS))
    cfg = draw(PLAIN_CONFIGS)
    cfg[command] = draw(BLOCKS[command])
    node = cfg
    while draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node)))
        if isinstance(node[key], dict) and node[key] and draw(st.booleans()):
            node = node[key]
        else:
            node[key] = draw(JUNK)
            break
    return command, cfg


def _run_quietly(command, cfg_path, out):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main([command, "--config", str(cfg_path), "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(run=runs())
def test_drawn_configs_keep_the_cli_contract(run):
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, err = _run_quietly(command, cfg_path, Path(tmp) / "a")
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC), err
        assert "Traceback" not in err
        if code != EXIT_OK:
            assert not (Path(tmp) / "a").exists()
            return
        code_b, _ = _run_quietly(command, cfg_path, Path(tmp) / "b")
        assert code_b == EXIT_OK
        assert read_bytes(Path(tmp) / "a") == read_bytes(Path(tmp) / "b")


@st.composite
def atlas_scans(draw):
    """An atlas run whose block always scans and sets its box and step."""
    cfg = draw(PLAIN_CONFIGS)
    cfg["atlas"] = {**draw(BLOCKS["atlas"]), "scan": True, "box": draw(_BOX),
                    "step": draw(_STEP)}
    return "atlas", cfg


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(run=atlas_scans())
def test_drawn_atlas_scans_keep_the_cli_contract(run):
    """The contract above, on atlas runs that reach ``RunConfig``'s scan checks."""
    test_drawn_configs_keep_the_cli_contract.hypothesis.inner_test(run)


# a tiny config on which every command and every run of verify and poincare
# reaches its computation; one numeric field is then set to an extreme magnitude
TINY = {"grid": {"h": 0.1, "horizon_periods": 1}, "seeds": {"ensemble": 2},
        "average": {"burn_in_periods": 0, "avg_periods": 8, "batches": 8},
        "portrait": {"grid": [32, 32]},
        "verify": {"run": ["exceedance", "deviation", "chebyshev", "moments"],
                   "moment_times": 4, "theta_grid_n": 8},
        "poincare": {"run": ["concentration", "fill", "splitting", "sections"],
                     "n_points": 2, "fill_grid": [16, 16], "sections_exported": 1}}


def _levels_with(v):
    return [[v, v], [0.1, 0.1], [0.05, 0.05]]


def _state_with(v):
    return [v, 0.0]


#: (path to a field, the field's value at magnitude v)
EXTREME_FIELDS = [
    (("pendulum", "l"), float), (("pendulum", "g"), float),
    (("noise", "tau"), float), (("noise", "sigma1"), float), (("noise", "sigma2"), float),
    (("noise", "channel1", "alpha"), float), (("noise", "channel1", "beta"), float),
    (("noise", "channel2", "forcing_amp"), float), (("noise", "channel2", "z0"), float),
    (("verify", "delta"), float), (("verify", "sigma_levels"), _levels_with),
    (("verify", "initial"), _state_with), (("poincare", "sigma_levels"), _levels_with),
    (("poincare", "initial"), _state_with), (("simulate", "initial"), _state_with),
    (("portrait", "lambda1"), float), (("portrait", "p_max"), float),
]


@settings(max_examples=len(EXTREME_FIELDS) * 3, deadline=None, derandomize=True,
          database=None)
@given(field=st.sampled_from(EXTREME_FIELDS), magnitude=st.sampled_from([1e-300, 1e200, 1.7e308]))
def test_extreme_magnitudes_keep_the_cli_contract(field, magnitude):
    """The contract of ``test_drawn_configs_keep_the_cli_contract``, for every
    command, on a tiny config with one field at a tiny or huge magnitude."""
    (*blocks, name), value = field
    config = json.loads(json.dumps(TINY))
    node = config
    for block in blocks:
        node = node.setdefault(block, {})
    node[name] = value(magnitude)
    for command in COMMANDS:
        test_drawn_configs_keep_the_cli_contract.hypothesis.inner_test((command, config))
