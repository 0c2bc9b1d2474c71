"""The four benchmark workloads: which CLI command, on which generated config.

Every config is a pure function of the workload seed, which becomes
``seeds.master``.  All inputs are pinned explicitly, including both noise
channels (alpha = 1, beta = 0.6 and alpha = 2, beta = 0.8, the
``presets.default_noise_pair`` family), so a change to a CLI default changes
neither the inputs nor the reference values the checks compare against.
Why each workload is there is said in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    sections: dict

    def config(self, seed: int) -> dict:
        """The JSON config the CLI receives for this workload and seed."""
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        cfg = base_config(seed)
        for name, block in copy.deepcopy(self.sections).items():
            cfg.setdefault(name, {}).update(block)
        return cfg


def _channel(alpha: float, beta: float) -> dict:
    return {"alpha": alpha, "beta": beta, "forcing_amp": 0.0,
            "forcing_phase": 0.0, "z0": 0.0}


def base_config(seed: int) -> dict:
    return {
        "pendulum": {"l": 1.0, "g": 1.0},
        "noise": {"tau": 1.0, "sigma1": 0.1, "sigma2": 0.1,
                  "driver": "shared", "convention": "derived",
                  "channel1": _channel(1.0, 0.6),
                  "channel2": _channel(2.0, 0.8)},
        "grid": {"h": 0.001, "horizon_periods": 50},
        "seeds": {"master": seed, "ensemble": 100},
    }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ensemble-exceedance",
        command="verify",
        sections={
            "grid": {"horizon_periods": 6},
            "seeds": {"ensemble": 500},
            "verify": {"run": ["exceedance"], "delta": 0.05,
                       "sigma_levels": [[0.4, 0.4], [0.2, 0.2],
                                        [0.1, 0.1], [0.05, 0.05]],
                       "burn_in_periods": 5, "initial": [0.1, 0.0]},
        }),
    Workload(
        name="single-orbit",
        command="simulate",
        sections={
            "simulate": {"initial": [0.1, 0.0], "section": True},
        }),
    Workload(
        name="atlas-scan",
        command="atlas",
        sections={
            "atlas": {"samples": 512, "box": [-1.0, 1.0, 0.0, 1.2],
                      "step": 0.04, "scan": True, "scan_grid_n": 1024},
        }),
    Workload(
        name="noise-average",
        command="average",
        sections={
            "average": {"burn_in_periods": 100, "avg_periods": 10000,
                        "batches": 16},
        }),
)}
