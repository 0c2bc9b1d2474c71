"""Pendulum with a stochastically vibrating suspension point.

Simulation and analysis toolkit: random tau-periodic noise paths from
SDEs with periodic Lipschitz drift, the exact and averaged Hamiltonians
they drive, the bifurcation atlas of the averaged system, Monte Carlo
closeness checks between the two systems, and stroboscopic Poincare
sections of the exact flow.
"""

from .bifurcation import (
    BOUNDARY,
    PI1,
    PI2,
    Gamma2Ray,
    classify_region,
    find_equilibria,
    gamma1_curve,
    numeric_bifurcation_scan,
    phase_portrait,
)
from .dynamics import (
    LambdaPoint,
    NoiseAmplitudes,
    PendulumParams,
    Trajectory,
    averaged_flow,
    averaged_hamiltonian,
    bob_embedding,
    effective_potential,
    effective_potential_d2theta,
    effective_potential_dtheta,
    exact_flow,
    exact_hamiltonian,
    hamiltonian_partials,
    instantaneous_potential,
    lambda_from_stats,
    momentum_from_velocity,
    noise_coupling,
    velocity_from_momentum,
    wrap_angle,
)
from .errors import BlowUpError, ConfigError, SampleLengthError
from .poincare import (
    cylinder_distance,
    equilibrium_concentration,
    plane_fill_density,
    separatrix_initial_states,
    separatrix_splitting_probe,
    stroboscope,
)
from .rpsde import (
    NoiseChannelConfig,
    PathGrid,
    PathSample,
    PeriodicDriftSpec,
    estimate_ergodic_stats,
    grid_for_periods,
    ks_critical_value,
    ks_statistic,
    law_periodicity_check,
    simulate_pair,
    simulate_pair_ensemble,
)
from .verification import (
    calibration_stats,
    chebyshev_consistency,
    exceedance_probability,
    hamiltonian_gap,
    m1m2_decomposition,
    moment_growth,
    potential_deviation,
)

__version__ = "0.1.0"
