"""Command-line front end.

Subcommands wire a single JSON configuration to the computational modules
and write one output directory per run:

    stochpend simulate  --config cfg.json --out runs/sim
    stochpend average   --config cfg.json --out runs/avg
    stochpend atlas     --config cfg.json --out runs/atlas
    stochpend portrait  --config cfg.json --out runs/portrait
    stochpend verify    --config cfg.json --out runs/verify
    stochpend poincare  --config cfg.json --out runs/poincare

``SCHEMA`` is the reference for every config field, its default and its
bounds.  The whole config is checked before any output exists, whichever
command runs, and so are the limits between the fields of the command
that runs.  Every run writes ``manifest.json`` (the checked
configuration with defaults applied, plus a SHA-256 per data file) and
prints it to stdout.
Outputs are a pure function of (config, seed): rerunning a command
reproduces every byte.  ``--seed`` overrides the master seed from the
config.

Exit codes: 0 ok, 2 configuration error (including a config that cannot
be read and an ``--out`` that cannot be written), 3 numeric failure
(including running out of memory).  Partial outputs are removed when a
run fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import takewhile
from pathlib import Path

import numpy as np

from .bifurcation import (
    atlas_curves,
    find_equilibria,
    numeric_bifurcation_scan,
    phase_portrait,
)
from .dynamics import (
    CONVENTIONS,
    LambdaPoint,
    NoiseAmplitudes,
    PendulumParams,
    bob_embedding,
    exact_flow,
    lambda_from_stats,
)
from .errors import BlowUpError, ConfigError
from .io import (
    ergodic_summary,
    fill_summary,
    portrait_sidecar,
    report_dict,
    run_manifest,
    splitting_summary,
    write_atlas_json,
    write_embedding_csv,
    write_histogram_csv,
    write_json,
    write_pair_csv,
    write_portrait_csv,
    write_scan_csv,
    write_section_csv,
    write_trajectory_csv,
)
from .poincare import (
    equilibrium_concentration,
    plane_fill_density,
    separatrix_splitting_probe,
    stroboscope,
)
from .presets import DEFAULT_STEPS_PER_PERIOD, DEFAULT_TAU, default_noise_pair
from .rng import ensemble_seeds
from .rpsde import (
    NoiseChannelConfig,
    PeriodicDriftSpec,
    estimate_ergodic_stats,
    grid_for_periods,
    period_stride,
    simulate_pair,
)
from .verification import (
    calibration_stats,
    chebyshev_consistency,
    exceedance_probability,
    m1m2_decomposition,
    moment_growth,
    potential_deviation,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# configuration schema
#
# A rule checks one JSON value, ``rule(value, path)``, and returns the value
# to run with; it raises ConfigError naming ``path`` otherwise.


def _real(gt=None, ge=None, integer=False):
    """Rule: a finite number (an integer if ``integer``) with optional bounds."""
    def check(v, path):
        # the comparison also rejects nan, and ints too large for a float
        if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                and abs(v) <= sys.float_info.max):
            raise ConfigError(f"{path} must be a finite number, got {v!r}")
        if integer and int(v) != v:
            raise ConfigError(f"{path} must be an integer, got {v!r}")
        if gt is not None and v <= gt:
            raise ConfigError(f"{path} must be > {gt}, got {v}")
        if ge is not None and v < ge:
            raise ConfigError(f"{path} must be >= {ge}, got {v}")
        return int(v) if integer else float(v)
    return check


def _int(ge):
    return _real(ge=ge, integer=True)


def _numbers(n, **bounds):
    """Rule: a list of ``n`` finite numbers, each checked by ``_real(**bounds)``."""
    item = _real(**bounds)

    def check(v, path):
        if not (isinstance(v, list) and len(v) == n):
            raise ConfigError(f"{path} must be a list of {n} finite numbers, got {v!r}")
        return [item(x, path) for x in v]
    return check


def _choice(names):
    def check(v, path):
        if v not in names:
            raise ConfigError(f"{path} must be one of {list(names)}, got {v!r}")
        return v
    return check


def _subset(names):
    def check(v, path):
        if not (isinstance(v, list) and all(r in names for r in v)):
            raise ConfigError(f"{path} must be a list of entries from {list(names)}, "
                              f"got {v!r}")
        return list(v)
    return check


def _flag(v, path):
    if not isinstance(v, bool):
        raise ConfigError(f"{path} must be true or false, got {v!r}")
    return v


def _levels(v, path):
    """Rule: a non-empty list of [sigma1, sigma2] pairs, each >= 0."""
    if not (isinstance(v, list) and v):
        raise ConfigError(f"{path} must be a non-empty list of [sigma1, sigma2] pairs, "
                          f"got {v!r}")
    return [tuple(_numbers(2, ge=0.0)(lv, path)) for lv in v]


REAL, POSITIVE, NONNEGATIVE = _real(), _real(gt=0.0), _real(ge=0.0)
INITIAL = ((0.1, 0.0), _numbers(2))

#: block -> field -> (default, rule), a nested dict being a nested block: the
#: reference for fields, defaults (immutable, as every run shares them) and bounds.
SCHEMA = {
    "pendulum": {"l": (1.0, POSITIVE), "g": (1.0, POSITIVE)},
    "noise": {
        "tau": (DEFAULT_TAU, POSITIVE), "sigma1": (0.1, NONNEGATIVE),
        "sigma2": (0.1, NONNEGATIVE),
        "driver": ("shared", _choice(("shared", "independent"))),
        "convention": ("derived", _choice(CONVENTIONS)),
        **{f"channel{i}": {
            "alpha": (ch.drift.alpha, POSITIVE), "beta": (ch.beta, POSITIVE),
            "forcing_amp": (ch.drift.forcing_amp, NONNEGATIVE),
            "forcing_phase": (ch.drift.forcing_phase, REAL), "z0": (ch.z0, REAL),
        } for i, ch in enumerate(default_noise_pair(), start=1)},
    },
    # h = None stands for tau / DEFAULT_STEPS_PER_PERIOD
    "grid": {"h": (None, POSITIVE), "horizon_periods": (50, _int(1))},
    "seeds": {"master": (0, _int(0)), "ensemble": (100, _int(1))},
    "simulate": {"initial": INITIAL, "section": (False, _flag)},
    "average": {"burn_in_periods": (100, _int(0)), "avg_periods": (10000, _int(1)),
                "batches": (16, _int(8))},
    "atlas": {
        "samples": (512, _int(16)), "box": ((-1.0, 1.0, 0.0, 1.2), _numbers(4)),
        "step": (0.01, POSITIVE), "scan": (False, _flag),
        # reads nothing (equilibria are quartic roots, not grid roots); kept only
        # because the benchmark's atlas-scan config sets it
        "scan_grid_n": (1024, _int(64)),
    },
    "portrait": {
        "lambda1": (0.0, REAL), "lambda2": (0.0, REAL),
        "theta_min": (-float(np.pi), REAL), "theta_max": (float(np.pi), REAL),
        "p_min": (-3.0, REAL), "p_max": (3.0, REAL),
        "grid": ((129, 129), _numbers(2, integer=True, ge=32)),
    },
    "verify": {
        "run": (("exceedance",),
                _subset(("exceedance", "deviation", "chebyshev", "moments"))),
        "delta": (0.05, POSITIVE),
        "sigma_levels": (((0.4, 0.4), (0.2, 0.2), (0.1, 0.1), (0.05, 0.05)), _levels),
        "burn_in_periods": (20, _int(0)), "initial": INITIAL,
        "moment_times": (16, _int(2)), "theta_grid_n": (64, _int(8)),
    },
    "poincare": {
        "run": (("concentration",),
                _subset(("concentration", "fill", "splitting", "sections"))),
        "sigma_levels": (((0.2, 0.2), (0.1, 0.1), (0.05, 0.05)), _levels),
        "n_points": (64, _int(2)),
        "initial": INITIAL, "fill_grid": ((64, 64), _numbers(2, integer=True, ge=16)),
        "sections_exported": (4, _int(1)),
    },
}


def _validate(raw, table: dict, path: str = "") -> dict:
    """``raw`` checked against ``table``; absent fields take their default."""
    where = path or "the configuration root"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, spec in table.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            out[key] = _validate(raw.get(key, {}), spec, sub)
        else:
            default, rule = spec
            out[key] = rule(raw[key], sub) if key in raw else default
    return out


class RunConfig:
    """The checked configuration of one ``command`` run, defaults applied.

    Every block is checked against ``SCHEMA``, whichever command runs;
    then come the checks that depend on the command.  Each block is an
    attribute (``config.verify["delta"]``), and ``values`` holds them all
    as the manifest records them.  ``seed`` overrides ``seeds.master``.
    """

    def __init__(self, raw, command: str, seed: int | None = None):
        values = _validate(raw, SCHEMA)
        if seed is not None:
            values["seeds"]["master"] = SCHEMA["seeds"]["master"][1](seed, "--seed")
        seeds, poincare = values["seeds"], values["poincare"]
        # member seeds are master + k for k below the largest count drawn
        drawn = max(seeds["ensemble"], poincare["sections_exported"], poincare["n_points"])
        if seeds["master"] + drawn > 2**64:
            raise ConfigError(f"seeds.master must be <= 2**64 - {drawn}, so that its "
                              f"{drawn} member seeds fit in 64 bits; got {seeds['master']}")
        noise, grid = values["noise"], values["grid"]
        tau = noise["tau"]
        if grid["h"] is None:
            grid["h"] = tau / DEFAULT_STEPS_PER_PERIOD
        self.values = values
        self.__dict__.update(values)
        self.params = PendulumParams(**values["pendulum"])
        self.amps = NoiseAmplitudes(noise["sigma1"], noise["sigma2"])
        self.pair = tuple(NoiseChannelConfig(
            PeriodicDriftSpec(tau, ch["alpha"], ch["forcing_amp"], ch["forcing_phase"]),
            beta=ch["beta"], z0=ch["z0"], driver=noise["driver"])
            for ch in (noise["channel1"], noise["channel2"]))

        if command in ("simulate", "average", "verify", "poincare"):
            self.steps_per_period = period_stride(tau, grid["h"])
        verify, box, average = self.verify, self.atlas["box"], self.average
        # one whole period per batch at least
        if command == "average" and average["avg_periods"] < average["batches"]:
            raise ConfigError(f"average.avg_periods must be >= average.batches = "
                              f"{average['batches']}, got {average['avg_periods']}")
        if command == "verify" and "deviation" in verify["run"] \
                and sum(max(lv) > 0 for lv in verify["sigma_levels"]) < 3:
            raise ConfigError("verify.deviation needs at least 3 sigma levels with a sigma > 0")
        # moment times are grid nodes of one period, which has spp + 1 of them
        if command == "verify" and "moments" in verify["run"] \
                and verify["moment_times"] > self.steps_per_period + 1:
            raise ConfigError(f"verify.moment_times must be <= {self.steps_per_period + 1}, "
                              f"got {verify['moment_times']}")
        if command == "verify" and "moments" in verify["run"] and seeds["ensemble"] < 2:
            raise ConfigError(f"verify.moments needs seeds.ensemble >= 2, got {seeds['ensemble']}")
        if command == "atlas" and self.atlas["scan"] \
                and not (box[0] < box[1] and box[2] < box[3]):
            raise ConfigError("atlas.box must be [l1_min, l1_max, l2_min, l2_max] "
                              f"with min < max on each axis, got {box}")


# ---------------------------------------------------------------------------
# output handling


class RunDir:
    """Tracks written files so a failed run can clean up after itself."""

    def __init__(self, out: Path):
        self.out = out
        #: the directories this run creates, ``out`` first
        self.created = list(takewhile(lambda d: not d.exists(), (out, *out.parents)))
        out.mkdir(parents=True, exist_ok=True)
        self.files: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out / name
        self.files.append(p)
        return p

    def discard(self) -> None:
        for p in self.files:
            p.unlink(missing_ok=True)
        for d in self.created:
            try:
                d.rmdir()
            except OSError:  # not empty: something else was written there
                break

    def manifest(self, command: str, config: RunConfig) -> dict:
        manifest = run_manifest(command, config.values, self.files)
        write_json(self.out / "manifest.json", manifest)
        return manifest


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(config: RunConfig, rundir: RunDir) -> dict:
    tau = config.noise["tau"]
    grid = grid_for_periods(tau, config.grid["horizon_periods"], config.steps_per_period)
    pair = simulate_pair(*config.pair, grid, seed=config.seeds["master"])
    traj = exact_flow(config.simulate["initial"], pair, config.params, config.amps)
    emb = bob_embedding(traj, pair, config.params, config.amps)
    write_pair_csv(rundir.path("paths.csv"), pair)
    write_trajectory_csv(rundir.path("trajectory.csv"), traj)
    write_embedding_csv(rundir.path("embedding.csv"), emb)
    if config.simulate["section"]:
        sec = stroboscope(traj, tau)
        write_section_csv(rundir.path("section.csv"), sec)
    return rundir.manifest("simulate", config)


def cmd_average(config: RunConfig, rundir: RunDir) -> dict:
    block, tau, convention = config.average, config.noise["tau"], config.noise["convention"]
    grid = grid_for_periods(tau, block["burn_in_periods"] + block["avg_periods"],
                            config.steps_per_period)
    stats = estimate_ergodic_stats(*config.pair, grid, config.seeds["master"], tau,
                                   burn_in_periods=block["burn_in_periods"],
                                   batches=block["batches"])
    lam = lambda_from_stats(config.amps, stats, convention)
    write_json(rundir.path("ergodic_stats.json"), ergodic_summary(stats, lam, convention))
    return rundir.manifest("average", config)


def cmd_atlas(config: RunConfig, rundir: RunDir) -> dict:
    """Analytic curves, and with ``scan`` the numeric scan of ``box``."""
    block = config.atlas
    write_atlas_json(rundir.path("atlas.json"), atlas_curves(block["samples"]))
    if block["scan"]:
        l1_min, l1_max, l2_min, l2_max = block["box"]
        scan = numeric_bifurcation_scan((l1_min, l1_max), (l2_min, l2_max),
                                        block["step"], config.params)
        write_scan_csv(rundir.path("scan.csv"), scan)
    return rundir.manifest("atlas", config)


def cmd_portrait(config: RunConfig, rundir: RunDir) -> dict:
    block = config.portrait
    portrait = phase_portrait(
        LambdaPoint(block["lambda1"], block["lambda2"]), config.params,
        theta_range=(block["theta_min"], block["theta_max"]),
        p_range=(block["p_min"], block["p_max"]), grid=tuple(block["grid"]))
    write_portrait_csv(rundir.path("portrait.csv"), portrait)
    write_json(rundir.path("portrait_meta.json"), portrait_sidecar(portrait))
    return rundir.manifest("portrait", config)


def cmd_verify(config: RunConfig, rundir: RunDir) -> dict:
    block = config.verify
    runs, levels, delta = block["run"], block["sigma_levels"], block["delta"]
    burn_in, horizon = block["burn_in_periods"], config.grid["horizon_periods"]
    tau, convention = config.noise["tau"], config.noise["convention"]
    master, ensemble_n = config.seeds["master"], config.seeds["ensemble"]
    spp = config.steps_per_period
    # the calibration path is long, so it is drawn only for the runs that read it
    if {"exceedance", "deviation", "chebyshev"} & set(runs):
        stats = calibration_stats(config.pair, master, steps_per_period=spp)
    if "exceedance" in runs:
        report = exceedance_probability(
            delta, levels, ensemble_n, horizon, config.pair, block["initial"],
            params=config.params, steps_per_period=spp, burn_in_periods=burn_in,
            master_seed=master, stats=stats, convention=convention)
        write_json(rundir.path("exceedance.json"), report_dict(report))
    if "deviation" in runs:
        theta_grid = np.linspace(0.0, 2.0 * np.pi, block["theta_grid_n"], endpoint=False)
        report = potential_deviation(
            theta_grid, levels, ensemble_n, config.pair, convention=convention,
            params=config.params, burn_in_periods=max(burn_in, 1), steps_per_period=spp,
            master_seed=master, stats=stats)
        write_json(rundir.path("deviation.json"), report_dict(report))
    if "chebyshev" in runs:
        grid = grid_for_periods(tau, burn_in + horizon, spp)
        pair = simulate_pair(*config.pair, grid, seed=master)
        p1, p2 = (path.slice_from(burn_in * spp) for path in pair)
        traj = exact_flow(block["initial"], (p1, p2), config.params, config.amps)
        decomp = m1m2_decomposition(traj, (p1, p2), stats, config.params,
                                    config.amps, delta)
        write_json(rundir.path("chebyshev.json"),
                   report_dict(chebyshev_consistency(decomp)))
    if "moments" in runs:
        report = moment_growth(config.pair, block["moment_times"], ensemble_n, config.amps,
                               steps_per_period=spp, master_seed=master)
        write_json(rundir.path("moments.json"), report_dict(report))
    return rundir.manifest("verify", config)


def cmd_poincare(config: RunConfig, rundir: RunDir) -> dict:
    block = config.poincare
    runs, levels = block["run"], block["sigma_levels"]
    tau, horizon = config.noise["tau"], config.grid["horizon_periods"]
    master = config.seeds["master"]
    spp = config.steps_per_period
    if "fill" in runs or "splitting" in runs:
        stats = calibration_stats(config.pair, master, steps_per_period=spp)
        lam = lambda_from_stats(config.amps, stats, config.noise["convention"])
    if "concentration" in runs:
        # at Lambda = 0 the averaged potential -g l cos(theta) has one minimum
        e0 = next(e for e in find_equilibria(LambdaPoint(0.0, 0.0), config.params)
                  if e.kind == "stable")
        report = equilibrium_concentration(
            e0, levels, config.seeds["ensemble"], horizon, config.pair,
            params=config.params, steps_per_period=spp, master_seed=master)
        write_json(rundir.path("concentration.json"), report_dict(report))
    if "sections" in runs or "fill" in runs:
        grid = grid_for_periods(tau, horizon, spp)
        sections = []
        for k, seed in enumerate(ensemble_seeds(master, block["sections_exported"])):
            pair = simulate_pair(*config.pair, grid, seed=int(seed))
            traj = exact_flow(block["initial"], pair, config.params, config.amps)
            sec = stroboscope(traj, tau)
            sections.append(sec)
            if "sections" in runs:
                write_section_csv(rundir.path(f"section-{k:03d}.csv"), sec)
        if "fill" in runs:
            report = plane_fill_density(sections, grid=tuple(block["fill_grid"]),
                                        lam=lam, params=config.params)
            write_histogram_csv(rundir.path("fill_histogram.csv"), report)
            write_json(rundir.path("fill.json"), fill_summary(report))
    if "splitting" in runs:
        report = separatrix_splitting_probe(
            lam, levels, block["n_points"], config.pair, params=config.params,
            horizon_periods=horizon, steps_per_period=spp, master_seed=master)
        write_json(rundir.path("splitting.json"), splitting_summary(report))
    return rundir.manifest("poincare", config)


_COMMANDS = {
    "simulate": cmd_simulate,
    "average": cmd_average,
    "atlas": cmd_atlas,
    "portrait": cmd_portrait,
    "verify": cmd_verify,
    "poincare": cmd_poincare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochpend",
        description="Pendulum with a stochastically vibrating suspension point")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None,
                       help="output directory (default runs/<command>)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out) if args.out else Path("runs") / args.command
    rundir = None
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        config = RunConfig(raw, args.command, seed=args.seed)
        rundir = RunDir(out)
        manifest = _COMMANDS[args.command](config, rundir)
    # ValueError: ConfigError, SampleLengthError, a config file that is not UTF-8
    # JSON, or a value a library rejected; RecursionError: a config nested too
    # deep to parse; OSError: an unreadable config or an unwritable --out.
    except (ValueError, RecursionError, OSError,
            BlowUpError, FloatingPointError, MemoryError) as exc:
        if rundir is not None:
            rundir.discard()
        numeric = isinstance(exc, (BlowUpError, FloatingPointError, MemoryError))
        print(f"{'numeric failure' if numeric else 'config error'}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if numeric else EXIT_CONFIG
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
