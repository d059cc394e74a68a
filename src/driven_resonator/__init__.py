"""Driven quantum resonator: thermodynamics and photon counting statistics.

Simulates a harmonically confined bosonic mode whose natural frequency is
modulated in time while weakly coupled to a thermal reservoir. Provides the
occupation/temperature dynamics, work and heat bookkeeping, closed-form
small-signal response, full counting statistics of photon exchanges, and an
independent Fock-space verification engine.

Natural units throughout: hbar = k_B = 1, frequencies in units of the
undriven resonator frequency.
"""

from .model import (
    Config,
    ConfigError,
    DriveError,
    DriveWaveform,
    SimulationGrid,
    SystemParams,
    bose_einstein,
    bose_einstein_derivative,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)
from .dynamics import (
    OccupancySeries,
    PeriodicConvergenceError,
    PeriodicState,
    ThermoTrajectory,
    adiabatic_temperature,
    occupancy_trajectory,
    relax_to_periodic,
    simulate_thermo,
    temperature_from_occupancy,
    thermo_observables,
)
from .linear_response import (
    equilibrium_cgf,
    equilibrium_cumulants,
    equilibrium_occupation_s,
    harmonic_amplitude,
    heat_response,
    lr_cumulant_bracket,
    lr_cumulant_response,
    power_response,
    temp_response,
)
from .counting import (
    CountingOverflowError,
    CountingSeries,
    CumulantTrajectories,
    DistributionError,
    PhotonDistribution,
    cumulant_trajectories,
    distribution,
    equilibrium_distribution,
    evolve_counting,
)
from .fock_oracle import (
    TruncationError,
    build_tilted_generator,
    evolve_fock,
    thermal_state,
    total_variation,
)

__version__ = "0.1.0"
