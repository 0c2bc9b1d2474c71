import os

import numpy as np
import pytest

from stochpend import (
    NoiseChannelConfig,
    PendulumParams,
    PeriodicDriftSpec,
)
from stochpend.cli import RunConfig


def default_noise_pair():
    """The noise pair of a config that sets no field: ``cli.SCHEMA``'s channels."""
    return RunConfig({}, "simulate").pair


@pytest.fixture(scope="session")
def params():
    return PendulumParams(l=1.0, g=1.0)


@pytest.fixture(scope="session")
def pair_config():
    return default_noise_pair()


@pytest.fixture(scope="session")
def ou_config():
    """Plain mean-reverting channel with unit stationary variance."""
    return NoiseChannelConfig(
        drift=PeriodicDriftSpec(tau=1.0, alpha=1.0),
        beta=float(np.sqrt(2.0)), z0=0.0, driver="shared")


@pytest.fixture()
def rng():
    return np.random.default_rng(20250810)


def set_workers(monkeypatch, n):
    """Run as if on ``n`` CPUs: the ensemble blocks of ``rpsde._ensemble`` in ``n``
    forked helpers (in the test's own process when ``n`` is 1), and the two channels of
    ``rpsde.estimate_ergodic_stats`` in one process or two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture()
def one_worker(monkeypatch):
    """One worker: ``tracemalloc`` sees only its own process and no shared
    mapping, so a memory test must run every block and channel in it, on
    ordinary arrays."""
    set_workers(monkeypatch, 1)
