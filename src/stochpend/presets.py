"""Default noise family used by the command line, demos and experiments.

Two mean-reverting channels riding on one shared Wiener process:

    channel 1: alpha = 1, beta = 0.6   ->  C_1 = beta^2/(2 alpha) = 0.18
    channel 2: alpha = 2, beta = 0.8   ->  C_2 = 0.16

with cross moment C_12 = beta_1 beta_2 / (alpha_1 + alpha_2) = 0.16, so
the cross coefficient is positive and strictly below the Cauchy-Schwarz
bound.  Periodic forcing is off (the long-run moments do not depend on
it); the forced channels of the law-periodicity checks are built where
they are used.
"""

from __future__ import annotations

from .rpsde import NoiseChannelConfig, PeriodicDriftSpec

DEFAULT_TAU = 1.0
DEFAULT_STEPS_PER_PERIOD = 1000


def default_noise_pair() -> tuple[NoiseChannelConfig, NoiseChannelConfig]:
    """The pair above at tau = DEFAULT_TAU, unforced, with z0 = 0 and a shared driver."""
    return (NoiseChannelConfig(PeriodicDriftSpec(tau=DEFAULT_TAU, alpha=1.0), beta=0.6),
            NoiseChannelConfig(PeriodicDriftSpec(tau=DEFAULT_TAU, alpha=2.0), beta=0.8))
