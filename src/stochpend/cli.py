"""Command-line front end.

Subcommands wire a single JSON configuration to the computational modules
and write one output directory per run:

    stochpend simulate  --config cfg.json --out runs/sim
    stochpend average   --config cfg.json --out runs/avg
    stochpend atlas     --config cfg.json --out runs/atlas
    stochpend portrait  --config cfg.json --out runs/portrait
    stochpend verify    --config cfg.json --out runs/verify
    stochpend poincare  --config cfg.json --out runs/poincare

Every run writes ``manifest.json`` (the effective configuration with
defaults applied, plus a SHA-256 per data file) and prints it to stdout.
Outputs are a pure function of (config, seed): rerunning a command
reproduces every byte.  ``--seed`` overrides the master seed from the
config.

Exit codes: 0 ok, 2 configuration error, 3 numeric failure.  Partial
outputs are removed when a run fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bifurcation import (
    atlas_curves,
    find_equilibria,
    numeric_bifurcation_scan,
    phase_portrait,
)
from .dynamics import (
    LambdaPoint,
    NoiseAmplitudes,
    PendulumParams,
    bob_embedding,
    exact_flow,
    lambda_from_stats,
)
from .errors import BlowUpError, ConfigError, SampleLengthError
from .io import (
    portrait_sidecar,
    sha256_of,
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
from .presets import default_noise_pair
from .rng import ensemble_seeds
from .rpsde import (
    NoiseChannelConfig,
    PathGrid,
    PeriodicDriftSpec,
    estimate_ergodic_stats,
    grid_for_periods,
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


def _section(cfg: dict, name: str, defaults: dict, path: str) -> dict:
    raw = cfg.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}{name} must be an object")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown field(s) in {path}{name}: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(raw)
    return merged


def _is_finite_number(v) -> bool:
    # the comparison also rejects nan, and ints too large for a float
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _number(block: dict, key: str, path: str, lo=None, hi=None,
            strict_lo=False, integer=False):
    v = block[key]
    if not _is_finite_number(v):
        raise ConfigError(f"{path}{key} must be a finite number, got {v!r}")
    if integer and int(v) != v:
        raise ConfigError(f"{path}{key} must be an integer, got {v!r}")
    if lo is not None and (v <= lo if strict_lo else v < lo):
        rel = ">" if strict_lo else ">="
        raise ConfigError(f"{path}{key} must be {rel} {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}{key} must be <= {hi}, got {v}")
    return int(v) if integer else float(v)


def _numbers(value, path: str, length: int, integer=False) -> list:
    """``value`` as a list of ``length`` finite numbers (ints if ``integer``)."""
    if not (isinstance(value, (list, tuple)) and len(value) == length
            and all(_is_finite_number(v) for v in value)):
        raise ConfigError(f"{path} must be a list of {length} finite numbers, "
                          f"got {value!r}")
    if integer and any(int(v) != v for v in value):
        raise ConfigError(f"{path} must hold integers, got {value!r}")
    return [int(v) if integer else float(v) for v in value]


def _channel_fields(ch: NoiseChannelConfig) -> dict:
    return {"alpha": ch.drift.alpha, "beta": ch.beta,
            "forcing_amp": ch.drift.forcing_amp,
            "forcing_phase": ch.drift.forcing_phase, "z0": ch.z0}


def _channel(noise: dict, name: str, tau: float, driver: str,
             default: NoiseChannelConfig) -> NoiseChannelConfig:
    block = _section(noise, name, _channel_fields(default), "noise.")
    path = f"noise.{name}."
    return NoiseChannelConfig(
        drift=PeriodicDriftSpec(
            tau=tau,
            alpha=_number(block, "alpha", path, lo=0.0, strict_lo=True),
            forcing_amp=_number(block, "forcing_amp", path, lo=0.0),
            forcing_phase=_number(block, "forcing_phase", path),
        ),
        beta=_number(block, "beta", path, lo=0.0, strict_lo=True),
        z0=_number(block, "z0", path),
        driver=driver,
    )


class RunConfig:
    """Validated effective configuration (defaults applied)."""

    TOP_LEVEL = ("pendulum", "noise", "grid", "seeds",
                 "simulate", "average", "atlas", "portrait", "verify", "poincare")

    def __init__(self, cfg: dict):
        if not isinstance(cfg, dict):
            raise ConfigError("configuration root must be an object")
        unknown = set(cfg) - set(self.TOP_LEVEL)
        if unknown:
            raise ConfigError(f"unknown top-level field(s): {sorted(unknown)}")

        pend = _section(cfg, "pendulum", {"l": 1.0, "g": 1.0}, "")
        self.params = PendulumParams(
            l=_number(pend, "l", "pendulum.", lo=0.0, strict_lo=True),
            g=_number(pend, "g", "pendulum.", lo=0.0, strict_lo=True))

        noise = _section(cfg, "noise", {
            "tau": 1.0, "sigma1": 0.1, "sigma2": 0.1, "driver": "shared",
            "convention": "derived", "channel1": {}, "channel2": {}}, "")
        self.tau = _number(noise, "tau", "noise.", lo=0.0, strict_lo=True)
        self.amps = NoiseAmplitudes(
            sigma1=_number(noise, "sigma1", "noise.", lo=0.0),
            sigma2=_number(noise, "sigma2", "noise.", lo=0.0))
        if noise["driver"] not in ("shared", "independent"):
            raise ConfigError("noise.driver must be 'shared' or 'independent'")
        if noise["convention"] not in ("derived", "paper"):
            raise ConfigError("noise.convention must be 'derived' or 'paper'")
        self.driver = noise["driver"]
        self.convention = noise["convention"]
        default1, default2 = default_noise_pair()
        try:
            self.channel1 = _channel(noise, "channel1", self.tau, self.driver, default1)
            self.channel2 = _channel(noise, "channel2", self.tau, self.driver, default2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

        grid = _section(cfg, "grid", {"h": self.tau / 1000.0,
                                      "horizon_periods": 50}, "")
        self.h = _number(grid, "h", "grid.", lo=0.0, strict_lo=True)
        self.horizon_periods = _number(grid, "horizon_periods", "grid.",
                                       lo=1, integer=True)

        seeds = _section(cfg, "seeds", {"master": 0, "ensemble": 100}, "")
        self.master_seed = _number(seeds, "master", "seeds.", lo=0, integer=True)
        self.ensemble_n = _number(seeds, "ensemble", "seeds.", lo=1, integer=True)

        self.simulate = _section(cfg, "simulate", {
            "initial": [0.1, 0.0], "section": False}, "")
        self.average = _section(cfg, "average", {
            "burn_in_periods": 100, "avg_periods": 10000, "batches": 16}, "")
        self.atlas = _section(cfg, "atlas", {
            "samples": 512, "box": [-1.0, 1.0, 0.0, 1.2], "step": 0.01,
            "scan": False, "scan_grid_n": 1024}, "")
        self.portrait = _section(cfg, "portrait", {
            "lambda1": 0.0, "lambda2": 0.0,
            "theta_min": -float(np.pi), "theta_max": float(np.pi),
            "p_min": -3.0, "p_max": 3.0, "grid": [129, 129]}, "")
        self.verify = _section(cfg, "verify", {
            "run": ["exceedance"], "delta": 0.05,
            "sigma_levels": [[0.4, 0.4], [0.2, 0.2], [0.1, 0.1], [0.05, 0.05]],
            "burn_in_periods": 20, "initial": [0.1, 0.0],
            "moment_times": 16, "theta_grid_n": 64}, "")
        self.poincare = _section(cfg, "poincare", {
            "run": ["concentration"], "sigma_levels": [[0.2, 0.2], [0.1, 0.1], [0.05, 0.05]],
            "equilibrium_theta": 0.0, "n_points": 64, "initial": [0.1, 0.0],
            "fill_grid": [64, 64], "sections_exported": 4}, "")

        self.raw = cfg

    @property
    def steps_per_period(self) -> int:
        k = round(self.tau / self.h)
        if k < 1 or abs(k * self.h - self.tau) > 1e-9 * max(1.0, self.tau):
            raise ConfigError(
                f"tau = {self.tau} is not an integer multiple of h = {self.h}")
        return k

    def pair_config(self):
        return self.channel1, self.channel2

    def initial_state(self, block: dict):
        return tuple(_numbers(block["initial"], "initial", 2))

    def effective(self) -> dict:
        return {
            "pendulum": {"l": self.params.l, "g": self.params.g},
            "noise": {
                "tau": self.tau, "sigma1": self.amps.sigma1,
                "sigma2": self.amps.sigma2, "driver": self.driver,
                "convention": self.convention,
                "channel1": _channel_fields(self.channel1),
                "channel2": _channel_fields(self.channel2),
            },
            "grid": {"h": self.h, "horizon_periods": self.horizon_periods},
            "seeds": {"master": self.master_seed, "ensemble": self.ensemble_n},
            "simulate": self.simulate, "average": self.average,
            "atlas": self.atlas, "portrait": self.portrait,
            "verify": self.verify, "poincare": self.poincare,
        }


# ---------------------------------------------------------------------------
# output handling


class RunDir:
    """Tracks written files so a failed run can clean up after itself."""

    def __init__(self, out: Path):
        self.out = out
        self.created_dir = not out.exists()
        out.mkdir(parents=True, exist_ok=True)
        self.files: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out / name
        self.files.append(p)
        return p

    def discard(self) -> None:
        for p in self.files:
            p.unlink(missing_ok=True)
        if self.created_dir:
            try:
                self.out.rmdir()
            except OSError:
                pass

    def manifest(self, command: str, config: RunConfig) -> dict:
        outputs = {p.name: sha256_of(p) for p in self.files}
        manifest = {
            "command": command,
            "version": __version__,
            "effective_config": config.effective(),
            "outputs": outputs,
        }
        write_json(self.out / "manifest.json", manifest)
        return manifest


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(config: RunConfig, rundir: RunDir) -> dict:
    grid = grid_for_periods(config.tau, config.horizon_periods, config.steps_per_period)
    pair = simulate_pair(*config.pair_config(), grid, seed=config.master_seed)
    initial = config.initial_state(config.simulate)
    traj = exact_flow(initial, pair, config.params, config.amps)
    emb = bob_embedding(traj, pair, config.params, config.amps)
    write_pair_csv(rundir.path("paths.csv"), pair)
    write_trajectory_csv(rundir.path("trajectory.csv"), traj, energy_label="H")
    write_embedding_csv(rundir.path("embedding.csv"), emb)
    if config.simulate["section"]:
        sec = stroboscope(traj, config.tau)
        write_section_csv(rundir.path("section.csv"), sec)
    return rundir.manifest("simulate", config)


def cmd_average(config: RunConfig, rundir: RunDir) -> dict:
    block = config.average
    burn_in = _number(block, "burn_in_periods", "average.", lo=0, integer=True)
    avg = _number(block, "avg_periods", "average.", lo=1, integer=True)
    batches = _number(block, "batches", "average.", lo=8, integer=True)
    n = int(round((burn_in + avg) * config.tau / config.h))
    grid = PathGrid(t0=0.0, h=config.h, n=n)
    pair = simulate_pair(*config.pair_config(), grid, seed=config.master_seed)
    try:
        stats = estimate_ergodic_stats(pair, config.tau, burn_in_periods=burn_in,
                                       batches=batches)
    except (SampleLengthError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    lam = lambda_from_stats(config.amps, stats, config.convention)
    payload = stats.as_dict()
    payload["lambda1"] = lam.lambda1
    payload["lambda2"] = lam.lambda2
    payload["convention"] = config.convention
    write_json(rundir.path("ergodic_stats.json"), payload)
    return rundir.manifest("average", config)


def cmd_atlas(config: RunConfig, rundir: RunDir) -> dict:
    """Analytic curves, and with ``scan`` the numeric scan of ``box``.

    ``scan_grid_n`` is still accepted and validated, but has no effect:
    equilibria are roots of a quartic, not of a sampled grid.
    """
    block = config.atlas
    samples = _number(block, "samples", "atlas.", lo=16, integer=True)
    if block["scan"]:
        box = _numbers(block["box"], "atlas.box", 4)
        if not (box[0] < box[1] and box[2] < box[3]):
            raise ConfigError("atlas.box must be [l1_min, l1_max, l2_min, l2_max] "
                              f"with min < max on each axis, got {box}")
        step = _number(block, "step", "atlas.", lo=0.0, strict_lo=True)
        _number(block, "scan_grid_n", "atlas.", lo=64, integer=True)
    write_atlas_json(rundir.path("atlas.json"), atlas_curves(samples))
    if block["scan"]:
        scan = numeric_bifurcation_scan((box[0], box[1]), (box[2], box[3]),
                                        step, config.params)
        write_scan_csv(rundir.path("scan.csv"), scan)
    return rundir.manifest("atlas", config)


def cmd_portrait(config: RunConfig, rundir: RunDir) -> dict:
    block = config.portrait
    lam = LambdaPoint(_number(block, "lambda1", "portrait."),
                      _number(block, "lambda2", "portrait."))
    n_theta, n_p = _numbers(block["grid"], "portrait.grid", 2, integer=True)
    try:
        portrait = phase_portrait(
            lam, config.params,
            theta_range=(_number(block, "theta_min", "portrait."),
                         _number(block, "theta_max", "portrait.")),
            p_range=(_number(block, "p_min", "portrait."),
                     _number(block, "p_max", "portrait.")),
            grid=(n_theta, n_p))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_portrait_csv(rundir.path("portrait.csv"), portrait)
    write_json(rundir.path("portrait_meta.json"), portrait_sidecar(portrait))
    return rundir.manifest("portrait", config)


def _sigma_levels(block: dict, path: str) -> list[tuple[float, float]]:
    levels = block["sigma_levels"]
    if not isinstance(levels, (list, tuple)) or not levels:
        raise ConfigError(f"{path}sigma_levels must be a non-empty list")
    out = []
    for lv in levels:
        s1, s2 = _numbers(lv, f"{path}sigma_levels entry", 2)
        if s1 < 0 or s2 < 0:
            raise ConfigError(f"{path}sigma_levels must be >= 0")
        out.append((s1, s2))
    return out


def cmd_verify(config: RunConfig, rundir: RunDir) -> dict:
    block = config.verify
    runs = block["run"]
    known = {"exceedance", "deviation", "chebyshev", "moments"}
    if not isinstance(runs, (list, tuple)) or not set(runs) <= known:
        raise ConfigError(f"verify.run must be a subset of {sorted(known)}")
    levels = _sigma_levels(block, "verify.")
    if "deviation" in runs and len(levels) < 3:
        raise ConfigError("verify.deviation needs at least 3 sigma levels")
    delta = _number(block, "delta", "verify.", lo=0.0, strict_lo=True)
    burn_in = _number(block, "burn_in_periods", "verify.", lo=0, integer=True)
    spp = config.steps_per_period
    if "moments" in runs:
        # moment times are grid nodes of one period, which has spp + 1 of them
        n_times = _number(block, "moment_times", "verify.", lo=2, hi=spp + 1,
                          integer=True)
    pair_cfg = config.pair_config()
    stats = calibration_stats(pair_cfg, config.master_seed, steps_per_period=spp)
    if "exceedance" in runs:
        report = exceedance_probability(
            delta, levels, config.ensemble_n, config.horizon_periods,
            pair_cfg, config.initial_state(block), params=config.params,
            steps_per_period=spp, burn_in_periods=burn_in,
            master_seed=config.master_seed, stats=stats,
            convention=config.convention)
        write_json(rundir.path("exceedance.json"), report.as_dict())
    if "deviation" in runs:
        n_grid = _number(block, "theta_grid_n", "verify.", lo=8, integer=True)
        theta_grid = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
        report = potential_deviation(
            theta_grid, levels, config.ensemble_n, pair_cfg,
            convention=config.convention, params=config.params,
            burn_in_periods=max(burn_in, 1), steps_per_period=spp,
            master_seed=config.master_seed, stats=stats)
        write_json(rundir.path("deviation.json"), report.as_dict())
    if "chebyshev" in runs:
        grid = grid_for_periods(config.tau, burn_in + config.horizon_periods, spp)
        pair = simulate_pair(*pair_cfg, grid, seed=config.master_seed)
        start = burn_in * spp
        p1 = pair[0].slice_from(start) if start else pair[0]
        p2 = pair[1].slice_from(start) if start else pair[1]
        traj = exact_flow(config.initial_state(block), (p1, p2),
                          config.params, config.amps)
        decomp = m1m2_decomposition(traj, (p1, p2), stats, config.params,
                                    config.amps, delta)
        write_json(rundir.path("chebyshev.json"),
                   chebyshev_consistency(decomp).as_dict())
    if "moments" in runs:
        grid = grid_for_periods(config.tau, 1, spp)
        idx = np.round(np.linspace(0, spp, n_times)).astype(int)
        # tau / spp * spp may exceed tau by one ulp; the node is still tau
        t_samples = np.minimum(grid.times()[idx], config.tau)
        report = moment_growth(pair_cfg, t_samples, config.ensemble_n,
                               config.amps, steps_per_period=spp,
                               master_seed=config.master_seed)
        write_json(rundir.path("moments.json"), report.as_dict())
    return rundir.manifest("verify", config)


def cmd_poincare(config: RunConfig, rundir: RunDir) -> dict:
    block = config.poincare
    runs = block["run"]
    known = {"concentration", "fill", "splitting", "sections"}
    if not isinstance(runs, (list, tuple)) or not set(runs) <= known:
        raise ConfigError(f"poincare.run must be a subset of {sorted(known)}")
    levels = _sigma_levels(block, "poincare.")
    if "fill" in runs:
        fill_grid = _numbers(block["fill_grid"], "poincare.fill_grid", 2, integer=True)
    if "sections" in runs or "fill" in runs:
        initial = config.initial_state(block)
    spp = config.steps_per_period
    pair_cfg = config.pair_config()
    stats = calibration_stats(pair_cfg, config.master_seed, steps_per_period=spp)
    lam = lambda_from_stats(config.amps, stats, config.convention)
    if "concentration" in runs:
        theta_e = _number(block, "equilibrium_theta", "poincare.")
        eqs = find_equilibria(LambdaPoint(0.0, 0.0), config.params)
        stable = [e for e in eqs if e.kind == "stable"]
        e0 = min(stable, key=lambda e: abs(e.theta - theta_e))
        report = equilibrium_concentration(
            e0, levels, config.ensemble_n, config.horizon_periods, pair_cfg,
            params=config.params, steps_per_period=spp,
            master_seed=config.master_seed)
        write_json(rundir.path("concentration.json"), report.as_dict())
    if "sections" in runs or "fill" in runs:
        n_export = _number(block, "sections_exported", "poincare.", lo=1,
                           integer=True)
        grid = grid_for_periods(config.tau, config.horizon_periods, spp)
        sections = []
        for k, seed in enumerate(ensemble_seeds(config.master_seed, n_export)):
            pair = simulate_pair(*pair_cfg, grid, seed=int(seed))
            traj = exact_flow(initial, pair, config.params, config.amps)
            sec = stroboscope(traj, config.tau)
            sec.seed = int(seed)
            sections.append(sec)
            if "sections" in runs:
                write_section_csv(rundir.path(f"section-{k:03d}.csv"), sec)
        if "fill" in runs:
            report = plane_fill_density(sections, grid=tuple(fill_grid),
                                        lam=lam, params=config.params)
            write_histogram_csv(rundir.path("fill_histogram.csv"), report)
            write_json(rundir.path("fill.json"), report.as_dict())
    if "splitting" in runs:
        n_points = _number(block, "n_points", "poincare.", lo=2, integer=True)
        report = separatrix_splitting_probe(
            lam, levels, n_points, pair_cfg, params=config.params,
            horizon_periods=config.horizon_periods, steps_per_period=spp,
            master_seed=config.master_seed)
        write_json(rundir.path("splitting.json"), report.as_dict())
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
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out) if args.out else Path("runs") / args.command
    rundir = None
    try:
        config = RunConfig(raw)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            config.master_seed = args.seed
        rundir = RunDir(out)
        manifest = _COMMANDS[args.command](config, rundir)
    except ValueError as exc:  # ConfigError, SampleLengthError, or a rejected value
        if rundir is not None:
            rundir.discard()
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, FloatingPointError) as exc:
        if rundir is not None:
            rundir.discard()
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
