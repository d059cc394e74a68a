"""Occupancy dynamics, temperature, and energy bookkeeping of the resonator.

The mean occupation n(t) obeys the relaxation equation

    dn/dt = gamma * (n_B(omega_0(t)) - n),

with n_B the reservoir's equilibrium occupation at the instantaneous drive
frequency. The occupation is continuous across drive jumps (the state does
not change instantaneously; only the relaxation target jumps), and it is the
single source of truth: temperature, energy, power, and heat are all derived
from n(t) sample by sample.

Work done by a frequency jump a -> b is booked as a discrete impulse event
W = n * (b - a) rather than as a spike in the sampled power, which makes the
energy balance

    dU = P dt + J dt  (+ impulse works at jumps)

exact to integrator accuracy. The cumulative integrals of P and J are
carried as additional ODE components for that reason.

The equation is linear in n, so the map over one drive period tau is
exactly n -> exp(-gamma*tau) * n + b. The periodic state is its fixed point,
found by one-period shooting (one integration from n = 0 gives b) and
certified by integrating the period once more from the fixed point; no
relaxation pre-run is needed. The periodic state is a start point: a
periodic trajectory is sampled by occupancy_trajectory from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DriveWaveform, SimulationGrid, SystemParams, bose_einstein
from .stepping import integrate_segmented

__all__ = [
    "OccupancySeries",
    "ThermoTrajectory",
    "PeriodicState",
    "PeriodicConvergenceError",
    "occupancy_trajectory",
    "temperature_from_occupancy",
    "adiabatic_temperature",
    "thermo_observables",
    "simulate_thermo",
    "relax_to_periodic",
]

# relative periodicity certificate on n, in units of the thermal occupation
PERIODICITY_TOL = 1e-9


class PeriodicConvergenceError(RuntimeError):
    """Raised when the periodic-state certificate fails."""


@dataclass(frozen=True)
class OccupancySeries:
    """Sampled occupation with cumulative work/heat integrals."""

    t: np.ndarray
    n: np.ndarray
    cumulative_work: np.ndarray   # integral of P dt from t[0] (impulses excluded)
    cumulative_heat: np.ndarray   # integral of J dt from t[0]
    jump_times: np.ndarray
    jump_occupations: np.ndarray  # n at each jump (continuous across the jump)


@dataclass(frozen=True)
class ThermoTrajectory:
    """Thermodynamic observables sampled along a trajectory.

    Units: t in 1/omega_bar, omega0 in omega_bar, T in hbar*omega_bar/k_B,
    U in hbar*omega_bar, P and J in hbar*omega_bar**2.
    """

    t: np.ndarray
    omega0: np.ndarray
    n: np.ndarray
    T: np.ndarray
    U: np.ndarray
    P: np.ndarray
    J: np.ndarray
    cumulative_work: np.ndarray
    cumulative_heat: np.ndarray
    impulse_times: np.ndarray
    impulse_works: np.ndarray

    def first_law_residual(self) -> np.ndarray:
        """Energy-balance defect per sample interval.

        For the interval (t_i, t_{i+1}]: dU - int P dt - int J dt - sum of
        impulse works in the interval. Zero up to integrator accuracy.
        """
        d_u = np.diff(self.U)
        d_w = np.diff(self.cumulative_work)
        d_q = np.diff(self.cumulative_heat)
        counts = np.searchsorted(self.impulse_times, self.t, side="right")
        w_cum = np.concatenate([[0.0], np.cumsum(self.impulse_works)])
        imp = w_cum[counts[1:]] - w_cum[counts[:-1]]
        return d_u - d_w - d_q - imp


@dataclass(frozen=True)
class PeriodicState:
    """Certified start of the periodic state: n(epoch) over one drive period."""

    epoch: float
    period: float
    start_occupation: float
    certificate: float  # |n(epoch + period) - n(epoch)|


def temperature_from_occupancy(n, omega):
    """Temperature of a thermal state with occupation n at frequency omega.

    Inverts the equilibrium occupation formula: T = omega / log(1 + 1/n).
    """
    n = np.asarray(n, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if np.any(n <= 0.0):
        raise ValueError("temperature_from_occupancy requires n > 0")
    if np.any(omega <= 0.0):
        raise ValueError("temperature_from_occupancy requires omega > 0")
    out = omega / np.log1p(1.0 / n)
    return float(out) if out.ndim == 0 else out


def adiabatic_temperature(omega_t, omega_ref, T_ref):
    """Temperature after an isentropic frequency change: T = (omega_t/omega_ref) T_ref."""
    omega_t = np.asarray(omega_t, dtype=float)
    if np.any(omega_t <= 0.0) or not (omega_ref > 0.0 and T_ref > 0.0):
        raise ValueError("adiabatic_temperature requires positive arguments")
    out = omega_t / omega_ref * T_ref
    return float(out) if out.ndim == 0 else out


def jumps_in_window(drive: DriveWaveform, t0: float, t1: float) -> np.ndarray:
    """Value-jump times in the half-open window (t0, t1].

    A jump exactly at t1 belongs to the window because sampled quantities at
    t1 already use the post-jump frequency (right-continuity); one exactly at
    t0 does not, for the same reason.
    """
    jumps = drive.jump_times(t0, np.nextafter(t1, np.inf))
    return jumps[jumps > t0]


def _integrate_occupancy(
    params: SystemParams,
    drive: DriveWaveform,
    t0: float,
    t1: float,
    n_init: float,
    t_eval,
) -> OccupancySeries:
    gamma, T_e = params.gamma, params.T_e

    def rhs(t, y, side):
        w = drive.omega(t, side)
        dn = gamma * (1.0 / math.expm1(w / T_e) - y[0])
        return (dn, y[0] * drive.slope(t, side), w * dn)

    res = integrate_segmented(
        rhs,
        (t0, t1),
        np.array([n_init, 0.0, 0.0]),
        breakpoints=drive.breakpoints(t0, t1),
        t_eval=t_eval,
    )
    jump_t = jumps_in_window(drive, t0, t1)
    jump_n = np.empty(jump_t.size)
    for i, tj in enumerate(jump_t):
        if tj == t1:
            jump_n[i] = res.y_final[0]
        else:
            k = np.searchsorted(res.breakpoint_times, tj)
            jump_n[i] = res.breakpoint_states[k, 0]
    return OccupancySeries(
        t=res.t,
        n=res.y[:, 0],
        cumulative_work=res.y[:, 1],
        cumulative_heat=res.y[:, 2],
        jump_times=jump_t,
        jump_occupations=jump_n,
    )


def occupancy_trajectory(
    params: SystemParams,
    drive: DriveWaveform,
    grid: SimulationGrid,
    n_init: float,
) -> OccupancySeries:
    """Integrate the occupation over the grid window from n_init (>= 0)."""
    if n_init < 0.0:
        raise ValueError("n_init must be non-negative")
    return _integrate_occupancy(params, drive, grid.t_start, grid.t_end, n_init, grid.times())


def thermo_observables(
    occupancy: OccupancySeries,
    drive: DriveWaveform,
    params: SystemParams,
) -> ThermoTrajectory:
    """Derive U, P, J, T, and impulse work events from an occupancy series."""
    t = occupancy.t
    n = occupancy.n
    omega0 = drive.omega(t)
    T = np.zeros_like(n)
    pos = n > 0.0
    T[pos] = omega0[pos] / np.log1p(1.0 / n[pos])
    U = omega0 * n
    P = n * drive.slope(t)
    J = omega0 * params.gamma * (bose_einstein(omega0, params.T_e) - n)

    works = np.empty(occupancy.jump_times.size)
    for i, tj in enumerate(occupancy.jump_times):
        before, after = drive.jump_values(tj)
        works[i] = occupancy.jump_occupations[i] * (after - before)

    return ThermoTrajectory(
        t=t,
        omega0=omega0,
        n=n,
        T=T,
        U=U,
        P=P,
        J=J,
        cumulative_work=occupancy.cumulative_work,
        cumulative_heat=occupancy.cumulative_heat,
        impulse_times=occupancy.jump_times,
        impulse_works=works,
    )


def simulate_thermo(
    params: SystemParams,
    drive: DriveWaveform,
    grid: SimulationGrid,
    n_init: float | None = None,
) -> ThermoTrajectory:
    """Occupancy integration plus observables; n_init defaults to equilibrium."""
    if n_init is None:
        n_init = params.n_thermal
    occ = occupancy_trajectory(params, drive, grid, n_init)
    return thermo_observables(occ, drive, params)


def relax_to_periodic(
    params: SystemParams,
    drive: DriveWaveform,
    grid: SimulationGrid,
) -> PeriodicState:
    """Certified start of the periodic state by one-period shooting.

    The occupancy equation is linear in n, so its map over one period tau is
    exactly n(t0 + tau) = exp(-gamma*tau) * n(t0) + b. One period integrated
    from n = 0 gives b, and the periodic state starts from the fixed point
    n* = b / (1 - exp(-gamma*tau)). That period is integrated again from n*;
    the state is certified by |n(t0 + tau) - n*| below PERIODICITY_TOL
    relative to the thermal occupation, and PeriodicConvergenceError is
    raised otherwise. Both integrations read only the end of the period;
    occupancy_trajectory from n* samples the periodic trajectory.

    The division amplifies any error of b by 1/(1 - exp(-gamma*tau)), which
    is about 1/(gamma*tau) when gamma*tau << 1: the weaker the dissipation
    per period, the more integrator accuracy the fixed point needs.

    Periodic drives start at t0 = 0 (cycle phase zero). Aperiodic drives
    (constant, tabulated) treat the grid window as the period, with
    t0 = grid.t_start. Without dissipation (gamma = 0) every occupation is
    periodic, and the start is the reservoir-equilibrium occupation.
    """
    if drive.is_periodic:
        t0, t1 = 0.0, drive.period
    else:
        t0, t1 = grid.t_start, grid.t_end
    tau = t1 - t0
    if params.gamma == 0.0:
        return PeriodicState(epoch=t0, period=tau, start_occupation=params.n_thermal, certificate=0.0)

    b = float(_integrate_occupancy(params, drive, t0, t1, 0.0, [t1]).n[-1])
    n_star = b / -math.expm1(-params.gamma * tau)
    n_end = float(_integrate_occupancy(params, drive, t0, t1, n_star, [t1]).n[-1])
    certificate = abs(n_end - n_star)
    tol = PERIODICITY_TOL * params.n_thermal
    if not certificate < tol:
        raise PeriodicConvergenceError(
            f"periodicity certificate {certificate:.3e} above {tol:.3e}"
        )
    return PeriodicState(epoch=t0, period=tau, start_occupation=n_star, certificate=certificate)
