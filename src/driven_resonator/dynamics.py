"""Occupancy dynamics, temperature, and energy bookkeeping of the resonator.

The mean occupation n(t) obeys the relaxation equation

    dn/dt = gamma * (n_B(omega_0(t)) - n),

with n_B the reservoir's equilibrium occupation at the instantaneous drive
frequency. The occupation is continuous across drive jumps (the state does
not change instantaneously; only the relaxation target jumps), and it is the
single source of truth: temperature, energy, power, and heat are all derived
from n(t) sample by sample.

The equation is scalar and linear, so it needs no ODE stepper. Its solution
is the variation-of-constants integral

    n(b) = exp(-gamma*(b - a)) * n(a) + gamma * int_a^b exp(-gamma*(b - t)) n_B(t) dt.

The window is cut into panels at every sample time and drive breakpoint,
and a long panel is split into equal parts of at most PANEL_PERIOD_FRACTION
of a drive period, PANEL_GAMMA_H relaxation times and PANEL_ZERO_FRACTION
of the drive's time_to_zero. The drive is evaluated vectorised at the
Gauss-Legendre nodes of PANEL_BLOCK panels at a time; each panel's integral
is the Gauss-Legendre sum, and a scalar recurrence over the panels gives n
at every panel end: the samples, and the occupation at each drive jump.
Inside a panel, n at the nodes comes from the nodes' integration matrix, so
that the work int n omega_0' dt and the heat int omega_0 gamma (n_B - n) dt
are quadratures of their own integrands. Neither is taken from the change
of U = omega_0 n, so the energy balance

    dU = P dt + J dt  (+ impulse works at jumps)

stays a real check of the quadrature. Work done by a frequency jump a -> b is
booked as a discrete impulse event W = n * (b - a) rather than as a spike in
the sampled power.

Every result is computed on QUADRATURE_NODES and on twice as many nodes per
panel, and the values of the finer rule are returned. The gap between the
two is the error certificate: a trajectory whose gap exceeds SAMPLE_TOL
raises IntegrationError.

The map over one drive period tau is exactly n -> exp(-gamma*tau) * n + b,
with b the same quadrature over one period from n = 0. The periodic state is
its fixed point n* = b / (1 - exp(-gamma*tau)); no relaxation pre-run is
needed, and the gap of the two rules' n* is its certificate. The periodic
state is a start point: a periodic trajectory is sampled by
occupancy_trajectory from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import DriveWaveform, SimulationGrid, SystemParams, bose_einstein
from .stepping import IntegrationError

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

# periodicity certificate on n, relative to the periodic state's own n*
PERIODICITY_TOL = 1e-9
# sample certificate: the gap between the two rules' n relative to the
# largest n, and of cumulative work and heat relative to the largest energy
SAMPLE_TOL = 1e-12
# Gauss-Legendre nodes per panel of the coarser rule; the finer has twice as many
QUADRATURE_NODES = 8
# a panel spans at most this fraction of a drive period, ...
PANEL_PERIOD_FRACTION = 1.0 / 32.0
# ... at most this many relaxation times 1/gamma, ...
PANEL_GAMMA_H = 0.25
# ... and at most this fraction of the drive's time_to_zero: n_B(omega_0)
# has its pole at omega_0 = 0, the integrand's nearest singularity
PANEL_ZERO_FRACTION = 0.25
# panels whose nodes are evaluated together; bounds the quadrature's memory
PANEL_BLOCK = 256


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
    certificate: float  # largest relative gap of n, work and heat between the two rules


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
        impulse works in the interval. Zero up to quadrature accuracy.
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
    certificate: float  # gap between the two quadrature rules' n*


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


@functools.cache
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x and weights w of the k-point Gauss-Legendre rule on [0, 1], and
    its integration matrix S[i, j] = int_0^{x_i} l_j, with l_j the Lagrange
    polynomial of node j.

    S is built in the Legendre basis, never by inverting a Vandermonde
    matrix: the rule integrates l_j P_m (degree <= 2k - 2) exactly, so
    l_j = sum_m (m + 1/2) w_j P_m(x_j) P_m on [-1, 1], and
    int_{-1}^x P_m = (P_{m+1}(x) - P_{m-1}(x)) / (2m + 1) for m >= 1.
    """
    x, w = np.polynomial.legendre.leggauss(k)
    p = np.polynomial.legendre.legvander(x, k)  # p[i, m] = P_m(x_i), m = 0..k
    m = np.arange(k)
    integrals = np.empty((k, k))
    integrals[:, 0] = x + 1.0
    integrals[:, 1:] = (p[:, 2:] - p[:, :-2]) / (2 * m[1:] + 1)
    coefficients = (m[:, None] + 0.5) * p[:, :k].T * w
    # map [-1, 1] to [0, 1]: nodes shift, weights and integrals halve
    return (x + 1.0) / 2.0, w / 2.0, integrals @ coefficients / 2.0


def _panel_edges(params: SystemParams, drive: DriveWaveform, t: np.ndarray):
    """Panel edges over [t[0], t[-1]], and a function that maps sample times
    and breakpoints (which are all edges) to their indices among the edges."""
    coarse = np.union1d(t, drive.breakpoints(t[0], t[-1]))
    widths = np.diff(coarse)
    cap = drive.time_to_zero * PANEL_ZERO_FRACTION
    if drive.is_periodic:
        cap = min(cap, drive.period * PANEL_PERIOD_FRACTION)
    if params.gamma > 0.0:
        cap = min(cap, PANEL_GAMMA_H / params.gamma)
    parts = np.maximum(np.ceil(widths / cap), 1).astype(int)
    first = np.concatenate([[0], np.cumsum(parts)])
    step = np.arange(first[-1]) - np.repeat(first[:-1], parts)
    edges = np.append(
        np.repeat(coarse[:-1], parts) + np.repeat(widths / parts, parts) * step, coarse[-1]
    )
    return edges, lambda times: first[np.searchsorted(coarse, times)]


def _quadrature(params: SystemParams, drive: DriveWaveform, edges: np.ndarray, n_init: float):
    """(n at every panel end, work of every panel, heat of every panel) on the
    coarse and on the fine Gauss-Legendre rule.

    The panels are taken PANEL_BLOCK at a time, so that the node arrays stay
    small however many samples are asked for.
    """
    gamma = params.gamma
    out = []
    for x, w, s in (_gauss_legendre(QUADRATURE_NODES), _gauss_legendre(2 * QUADRATURE_NODES)):
        ends, work, heat = [n_init], [], []
        for lo in range(0, edges.size - 1, PANEL_BLOCK):
            block = edges[lo : lo + PANEL_BLOCK + 1]
            h = np.diff(block)[:, None]
            gh = gamma * h
            t = block[:-1, None] + h * x
            omega = drive.omega(t)
            n_b = 1.0 / np.expm1(omega / params.T_e)
            # exp(gamma*(t - a)) n_B: the integrand up to the panel's factor exp(-gamma*(b - a))
            grow = np.exp(gh * x)
            g = grow * n_b
            decay = np.exp(-gh[:, 0])
            source = decay * gh[:, 0] * (g @ w)
            start = len(ends) - 1
            for d, src in zip(decay.tolist(), source.tolist()):
                ends.append(d * ends[-1] + src)
            n = (np.array(ends[start:-1])[:, None] + gh * (g @ s.T)) / grow
            work.append(h[:, 0] * ((n * drive.slope(t)) @ w))
            heat.append(h[:, 0] * ((omega * gamma * (n_b - n)) @ w))
        out.append((np.array(ends), np.concatenate(work), np.concatenate(heat)))
    return out


def _gap(coarse: np.ndarray, fine: np.ndarray, scale: float) -> float:
    return float(np.max(np.abs(coarse - fine)) / max(scale, np.finfo(float).tiny))


def _integrate_occupancy(
    params: SystemParams,
    drive: DriveWaveform,
    t: np.ndarray,
    n_init: float,
) -> OccupancySeries:
    """Occupancy, cumulative work and heat at the increasing sample times t,
    from n_init at t[0]; IntegrationError unless the sample certificate holds."""
    edges, index = _panel_edges(params, drive, t)
    samples = index(t)
    rules = _quadrature(params, drive, edges, n_init)
    series = [
        [ends[samples]] + [np.concatenate([[0.0], np.cumsum(v)])[samples] for v in (work, heat)]
        for ends, work, heat in rules
    ]
    (n_c, w_c, q_c), (n, cumulative_work, cumulative_heat) = series
    # work and heat in units of the largest energy in play, so that a heat
    # that is zero up to rounding (equilibrium) certifies
    energy = max(np.max(np.abs(v)) for v in (drive.omega(t) * n, cumulative_work, cumulative_heat))
    certificate = max(
        _gap(n_c, n, np.max(np.abs(n))), _gap(w_c, cumulative_work, energy), _gap(q_c, cumulative_heat, energy)
    )
    if not certificate < SAMPLE_TOL:
        raise IntegrationError(
            f"occupancy quadrature certificate {certificate:.3e} above {SAMPLE_TOL:.3e}"
        )
    jump_t = jumps_in_window(drive, t[0], t[-1])
    return OccupancySeries(
        t=t,
        n=n,
        cumulative_work=cumulative_work,
        cumulative_heat=cumulative_heat,
        jump_times=jump_t,
        jump_occupations=rules[1][0][index(jump_t)],
        certificate=certificate,
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
    return _integrate_occupancy(params, drive, grid.times(), n_init)


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
    exactly n(t0 + tau) = exp(-gamma*tau) * n(t0) + b. The quadrature of one
    period from n = 0 gives b, and the periodic state starts from the fixed
    point n* = b / (1 - exp(-gamma*tau)). A recurrence closes on its own
    fixed point by construction, so the certificate is the gap between the
    n* of the two quadrature rules; PeriodicConvergenceError is raised
    unless it is below PERIODICITY_TOL relative to n* itself, a scale that
    holds at any reservoir temperature.
    occupancy_trajectory from n* samples the periodic trajectory.

    The division amplifies any error of b by 1/(1 - exp(-gamma*tau)), which
    is about 1/(gamma*tau) when gamma*tau << 1: the weaker the dissipation
    per period, the more accuracy the fixed point needs.

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

    edges, _ = _panel_edges(params, drive, np.array([t0, t1]))
    closure = -math.expm1(-params.gamma * tau)
    coarse, fine = (ends[-1] / closure for ends, _, _ in _quadrature(params, drive, edges, 0.0))
    certificate = abs(coarse - fine)
    tol = PERIODICITY_TOL * fine
    if not certificate < tol:
        raise PeriodicConvergenceError(
            f"periodicity certificate {certificate:.3e} above {tol:.3e}"
        )
    return PeriodicState(epoch=t0, period=tau, start_occupation=fine, certificate=certificate)
