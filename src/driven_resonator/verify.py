"""Cross-method verification battery.

Runs the brute-force Fock-space routes against the scalar counting
reduction and the occupancy dynamics on shared cases and reports the
distances. Everything here is deterministic and desk scale; the whole
battery takes a few seconds.

The third counting route is the two-point measurement of N
(fock_oracle.transfer_distribution), the transfer-resolved ladder of
populations re-indexed; its results and checks keep the ``ladder`` names.

The battery deliberately uses moderate temperatures (thermal occupation
of order one) so a modest Fock truncation is certified; the
low-x analytic checks elsewhere in the test suite cover the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import counting, dynamics, fock_oracle
from .counting import _invert_generating_function
from .model import DriveWaveform, SimulationGrid, SystemParams, bose_einstein

__all__ = ["CheckOutcome", "driven_cross_method_check", "run_verification"]


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value < self.threshold


def _x1_params(gamma: float = 0.1) -> SystemParams:
    # thermal occupation 1/(e - 1) ~ 0.582: truncation certified at n_max ~ 30
    return SystemParams(omega_bar=1.0, gamma=gamma, T_e=1.0)


def _driven_case():
    params = _x1_params()
    drive = DriveWaveform(
        kind="harmonic", omega_bar=1.0, amplitude=0.3, period=2.0 * math.pi / 0.1
    )
    return params, drive


def driven_cross_method_check(
    params: SystemParams | None = None,
    drive: DriveWaveform | None = None,
    n_max: int = 40,
    m_window: int = 30,
) -> dict:
    """One period of driven counting, three ways.

    Returns the pairwise total-variation distances between the scalar
    counting route, the tilted Fock evolution on an imaginary counting-field
    grid, and the two-point route (cut to the window [-m_window, m_window],
    its mean taken over its full support). All three start counting from a
    certified periodic state at cycle phase zero; the two-point route reads
    the one-period propagator of that periodic solve. Defaults to the
    standard battery case (thermal occupation of order one, 30% harmonic
    modulation).
    """
    if params is None or drive is None:
        params, drive = _driven_case()
    if not drive.is_periodic:
        raise ValueError("the cross-method check needs a periodic drive")
    tau = drive.period

    grid = SimulationGrid(t_start=0.0, t_end=tau, n_samples=2)
    # the scalar periodic state starts at cycle phase zero, grid.t_start
    _, n0 = counting.counting_epoch(params, drive, grid)
    p_counting = counting.distribution(tau, m_window, params, drive, grid, n_init=n0).p

    p0, phi = fock_oracle.relax_fock_periodic(params, drive, n_max=n_max)

    n_theta = 1 << int(math.ceil(math.log2(2 * m_window + 1)))
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    tilted = fock_oracle.evolve_fock(p0, params, drive, 1j * theta, (0.0, tau))
    m_values = np.arange(-m_window, m_window + 1)
    p_tilted = _invert_generating_function(m_values, tilted.trace[-1], tau).p

    m_two_point, p_two_point = fock_oracle.transfer_distribution(p0, phi)
    # m = 0 sits at index `mid` of the zero-padded two-point distribution
    mid = max(n_max, m_window)
    p_ladder = np.pad(p_two_point, mid - n_max)[mid - m_window : mid + m_window + 1]

    jets = counting.cumulant_trajectories(1, params, drive, grid, n_init=n0)
    mean_gap = abs(float(m_two_point @ p_two_point) - float(jets.cumulants[-1, 0]))
    return {
        "tv_counting_tilted": fock_oracle.total_variation(p_counting, p_tilted),
        "tv_counting_ladder": fock_oracle.total_variation(p_counting, p_ladder),
        "tv_tilted_ladder": fock_oracle.total_variation(p_tilted, p_ladder),
        "mean_gap_ladder_vs_jet": mean_gap,
        "p_counting": p_counting,
        "p_tilted": p_tilted,
        "p_ladder": p_ladder,
    }


def _check_trace_preservation() -> CheckOutcome:
    params, drive = _x1_params(), DriveWaveform(kind="constant", omega_bar=1.0)
    p0 = fock_oracle.thermal_state(params.n_thermal, 30)
    run = fock_oracle.evolve_fock(
        p0, params, drive, 0.0, (0.0, 20.0), t_eval=np.linspace(0.0, 20.0, 21)
    )
    return CheckOutcome("trace_preservation_s0", float(np.max(np.abs(run.trace - 1.0))), 1e-9)


def _check_reduction_vs_counting() -> CheckOutcome:
    params, drive = _x1_params(), DriveWaveform(kind="constant", omega_bar=1.0)
    n0 = params.n_thermal
    p0 = fock_oracle.thermal_state(n0, 30)
    s = 1j * np.array([np.pi / 4, np.pi / 2])
    times = np.array([10.0, 50.0, 200.0])  # gamma*t = 1, 5, 20
    run = fock_oracle.evolve_fock(p0, params, drive, s, (0.0, 200.0), t_eval=times)
    pair = counting.evolve_counting(s, params, drive, (0.0, 200.0), n0, t_eval=times)
    gap = np.max(np.abs(np.log(run.trace) - pair.cgf))
    return CheckOutcome("generating_function_reduction", float(gap), 1e-6)


def _check_thermal_form() -> CheckOutcome:
    params, drive = _x1_params(), DriveWaveform(kind="constant", omega_bar=1.0)
    n_max = 30
    p0 = fock_oracle.thermal_state(params.n_thermal, n_max)
    # coherences: the full-matrix generator maps the diagonal state to a
    # diagonal image, which is what lets the Fock routes evolve populations
    gen = fock_oracle.build_tilted_generator(0.3, drive.omega_bar, params, n_max)
    image = (gen @ np.diag(p0).ravel()).reshape(n_max + 1, n_max + 1)
    off = np.max(np.abs(image - np.diag(np.diag(image))))
    run = fock_oracle.evolve_fock(
        p0, params, drive, 0.3, (0.0, 30.0), t_eval=[30.0], rtol=1e-12, atol=1e-12
    )
    pops = np.real(run.final_states[0])
    # geometric form holds level by level; restrict the ratio test to levels
    # carrying real weight, above the integrator noise floor
    top = np.max(np.nonzero(pops > 1e-4 * pops[0])[0])
    ratios = pops[1 : top + 1] / pops[:top]
    # the common ratio must also match the scalar route's shifted occupation
    pair = counting.evolve_counting(0.3, params, drive, (0.0, 30.0), params.n_thermal, t_eval=[30.0])
    n_s = np.real(pair.occupation[-1, 0])
    spread = np.max(np.abs(ratios - n_s / (1.0 + n_s)))
    return CheckOutcome("thermal_form_preservation", float(max(off, spread)), 1e-8)


def _check_equilibrium_ladder() -> CheckOutcome:
    params, drive = _x1_params(), DriveWaveform(kind="constant", omega_bar=1.0)
    p0 = fock_oracle.thermal_state(params.n_thermal, 30)
    phi = fock_oracle.population_propagator(params, drive, 30, (0.0, 300.0))
    m, p = fock_oracle.transfer_distribution(p0, phi)
    tv = fock_oracle.total_variation(p, counting.equilibrium_distribution(params.x, m))
    return CheckOutcome("equilibrium_ladder_vs_closed_form", tv, 1e-5)


def _check_heat_consistency() -> CheckOutcome:
    params, drive = _driven_case()
    times = np.linspace(0.0, 2.0 * drive.period, 41)
    n0 = params.n_thermal
    p0 = fock_oracle.thermal_state(n0, 40)
    run = fock_oracle.evolve_fock(p0, params, drive, 0.0, (times[0], times[-1]), t_eval=times)
    grid = SimulationGrid(t_start=times[0], t_end=times[-1], n_samples=times.size)
    occ = dynamics.occupancy_trajectory(params, drive, grid, n0)
    omega = drive.omega(times)
    n_b = bose_einstein(omega, params.T_e)
    j_oracle = omega * params.gamma * (n_b - np.real(run.occupation[:, 0]))
    j_scalar = omega * params.gamma * (n_b - occ.n)
    return CheckOutcome("heat_consistency", float(np.max(np.abs(j_oracle - j_scalar))), 1e-8)


def run_verification(
    params: SystemParams | None = None,
    drive: DriveWaveform | None = None,
) -> list[CheckOutcome]:
    """The full battery; each entry passes when value < threshold.

    The fixed identity checks always run on their own documented cases;
    params/drive override only the driven cross-method case.
    """
    outcomes = [
        _check_trace_preservation(),
        _check_reduction_vs_counting(),
        _check_thermal_form(),
        _check_equilibrium_ladder(),
        _check_heat_consistency(),
    ]
    res = driven_cross_method_check(params, drive)
    return outcomes + [
        CheckOutcome("tv_counting_vs_tilted_grid", res["tv_counting_tilted"], 1e-4),
        CheckOutcome("tv_counting_vs_ladder", res["tv_counting_ladder"], 1e-4),
        CheckOutcome("tv_tilted_grid_vs_ladder", res["tv_tilted_ladder"], 1e-4),
        CheckOutcome("mean_gap_ladder_vs_jet", res["mean_gap_ladder_vs_jet"], 1e-6),
    ]
