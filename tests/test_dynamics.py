import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driven_resonator import dynamics
from driven_resonator.dynamics import (
    PeriodicConvergenceError,
    adiabatic_temperature,
    occupancy_trajectory,
    relax_to_periodic,
    simulate_thermo,
    temperature_from_occupancy,
)
from driven_resonator.linear_response import harmonic_amplitude, power_response
from driven_resonator.model import (
    DriveWaveform,
    SimulationGrid,
    SystemParams,
    bose_einstein,
)
from driven_resonator.stepping import IntegrationError
from tests.conftest import TAU, harmonic_drive


def grid(t_end, n=201, **kw):
    return SimulationGrid(t_start=0.0, t_end=t_end, n_samples=n, **kw)


def periodic_thermo(params, drive, n_samples):
    """The certified periodic state and one period sampled from its start at t = 0."""
    period = grid(drive.period, n_samples)
    state = relax_to_periodic(params, drive, period)
    return state, simulate_thermo(params, drive, period, state.start_occupation)


# -- occupancy equation ---------------------------------------------------------


def test_zero_coupling_freezes_occupation():
    params = SystemParams(gamma=0.0, T_e=1.5)
    occ = occupancy_trajectory(params, harmonic_drive(0.5), grid(5 * TAU), 2.34)
    assert np.all(occ.n == 2.34)


def test_equilibrium_is_a_fixed_point(warm_params, constant_drive):
    nb = warm_params.n_thermal
    occ = occupancy_trajectory(warm_params, constant_drive, grid(300.0), nb)
    assert np.max(np.abs(occ.n - nb)) < 1e-10


@pytest.mark.parametrize("gamma_t", [0.5, 1.0, 2.0])
def test_relaxation_closed_form(warm_params, constant_drive, gamma_t):
    # ground-state start relaxes as n_B (1 - e^{-gamma t})
    gamma = warm_params.gamma
    g = SimulationGrid(t_start=0.0, t_end=gamma_t / gamma, n_samples=2)
    got = occupancy_trajectory(warm_params, constant_drive, g, 0.0).n[-1]
    want = warm_params.n_thermal * (1.0 - math.exp(-gamma_t))
    assert got == pytest.approx(want, abs=1e-10)


def test_long_two_sample_window_matches_closed_form(warm_params, constant_drive):
    # gamma*t = 40 in one sample interval: panels split by the gamma*h cap;
    # n relaxes as n_B + (n0 - n_B) e^{-gamma t}, no work is done, and the
    # heat is omega_bar times the change of n
    n0, nb = 0.2, warm_params.n_thermal
    g = SimulationGrid(t_start=5.0, t_end=5.0 + 40.0 / warm_params.gamma, n_samples=2)
    occ = occupancy_trajectory(warm_params, constant_drive, g, n0)
    want = nb + (n0 - nb) * math.exp(-40.0)
    assert occ.n[-1] == pytest.approx(want, rel=1e-14)
    assert np.all(occ.cumulative_work == 0.0)
    assert occ.cumulative_heat[-1] == pytest.approx(want - n0, rel=1e-13)
    assert occ.certificate < dynamics.SAMPLE_TOL


@pytest.mark.parametrize("kind", ["sawtooth", "harmonic"])
def test_coarse_samples_near_zero_frequency_agree_with_fine_ones(kind):
    # omega_0 dips to 0.01, next to the pole of n_B at omega_0 = 0; panels
    # of 3/10 of a period are split by the drive's time_to_zero
    params = SystemParams(omega_bar=1.0, gamma=0.05, T_e=1.5)
    drive = DriveWaveform(kind=kind, omega_bar=1.0, amplitude=0.99, period=TAU, phase=0.3)
    state = relax_to_periodic(params, drive, grid(TAU))
    coarse = occupancy_trajectory(params, drive, grid(3 * TAU, n=11), state.start_occupation)
    fine = occupancy_trajectory(params, drive, grid(3 * TAU, n=3001), state.start_occupation)
    for got, want in [(coarse.n, fine.n), (coarse.cumulative_heat, fine.cumulative_heat)]:
        assert np.max(np.abs(got - want[::300])) <= 1e-12 * np.max(np.abs(want))


def test_sample_certificate_failure_raises(monkeypatch, warm_params):
    monkeypatch.setattr(dynamics, "SAMPLE_TOL", 0.0)
    with pytest.raises(IntegrationError, match="certificate"):
        occupancy_trajectory(warm_params, harmonic_drive(0.5), grid(TAU), 1.0)


def test_negative_initial_occupation_rejected(warm_params, constant_drive):
    with pytest.raises(ValueError):
        occupancy_trajectory(warm_params, constant_drive, grid(1.0), -0.1)


# -- temperature maps ------------------------------------------------------------


def test_temperature_round_trips_occupation(warm_params):
    nb = warm_params.n_thermal
    assert temperature_from_occupancy(nb, 1.0) == pytest.approx(warm_params.T_e, rel=1e-14)


def test_temperature_at_unit_occupation():
    assert temperature_from_occupancy(1.0, 1.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-14)


def test_temperature_reference_value():
    assert temperature_from_occupancy(3.520812, 1.0) == pytest.approx(4.0, abs=1e-5)


def test_temperature_domain():
    with pytest.raises(ValueError):
        temperature_from_occupancy(0.0, 1.0)
    with pytest.raises(ValueError):
        temperature_from_occupancy(1.0, -1.0)


@given(n=st.floats(1e-3, 1e3), omega=st.floats(0.1, 5.0))
@settings(max_examples=100, deadline=None)
def test_temperature_occupancy_inverse_pair(n, omega):
    T = temperature_from_occupancy(n, omega)
    assert bose_einstein(omega, T) == pytest.approx(n, rel=1e-10)


def test_adiabatic_scaling():
    assert adiabatic_temperature(2.0, 1.0, 1.5) == pytest.approx(3.0)
    assert adiabatic_temperature(1.0, 1.0, 1.5) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        adiabatic_temperature(-1.0, 1.0, 1.5)


def test_weak_coupling_temperature_follows_drive():
    # adiabatic following: in the periodic state at gamma << Omega the
    # temperature tracks omega_0(t) proportionally. The proportionality is
    # anchored on the trajectory itself: the orbit centers on the
    # cycle-averaged equilibrium occupation, which at this modulation depth
    # sits well away from the undriven equilibrium, so an anchor at T_e
    # would measure that offset rather than the following law.
    params = SystemParams(omega_bar=1.0, gamma=3e-4, T_e=1.5)
    drive = harmonic_drive(0.7)
    _, traj = periodic_thermo(params, drive, 501)
    predicted = adiabatic_temperature(traj.omega0, traj.omega0[0], traj.T[0])
    assert np.max(np.abs(traj.T - predicted) / predicted) < 0.01


# -- energy bookkeeping ----------------------------------------------------------


def test_constant_drive_has_no_power(warm_params, constant_drive):
    traj = simulate_thermo(warm_params, constant_drive, grid(100.0), n_init=0.3)
    assert np.all(traj.P == 0.0)
    assert traj.impulse_times.size == 0


def test_equilibrium_has_no_heat(warm_params, constant_drive):
    traj = simulate_thermo(warm_params, constant_drive, grid(100.0))
    assert np.max(np.abs(traj.J)) < 1e-10


def test_thermal_state_closure(warm_params, constant_drive):
    traj = simulate_thermo(warm_params, constant_drive, grid(200.0))
    nb = warm_params.n_thermal
    assert np.max(np.abs(traj.n - nb)) < 1e-10
    assert np.max(np.abs(traj.T - warm_params.T_e)) < 1e-10
    assert np.max(np.abs(traj.U - nb)) < 1e-10


@pytest.mark.parametrize("kind", ["square", "sawtooth", "harmonic"])
def test_first_law_across_drive_kinds(kind):
    params = SystemParams(omega_bar=1.0, gamma=0.05, T_e=1.5)
    drive = DriveWaveform(kind=kind, omega_bar=1.0, amplitude=0.7, period=TAU)
    traj = simulate_thermo(params, drive, grid(2 * TAU, n=401))
    residual = traj.first_law_residual()
    assert np.max(np.abs(residual)) < 1e-6 * np.max(np.abs(traj.U))


def test_square_wave_work_is_impulsive():
    params = SystemParams(omega_bar=1.0, gamma=0.05, T_e=1.5)
    drive = DriveWaveform(kind="square", omega_bar=1.0, amplitude=0.7, period=TAU)
    traj = simulate_thermo(params, drive, grid(2 * TAU, n=401))
    assert np.all(traj.P == 0.0)  # no sampled spikes
    assert traj.impulse_times.size == 4  # two edges per period, window (0, 2*tau]
    # jump work is n * (omega_after - omega_before) with n continuous
    idx = np.searchsorted(traj.t, traj.impulse_times[0])
    assert traj.impulse_works[0] == pytest.approx(traj.n[idx] * (-1.4), rel=1e-6)


def test_heat_flows_against_temperature_difference(warm_params):
    drive = harmonic_drive(0.5)
    _, traj = periodic_thermo(warm_params, drive, 801)
    hot = traj.T > warm_params.T_e * (1 + 1e-9)
    cold = traj.T < warm_params.T_e * (1 - 1e-9)
    assert np.all(traj.J[hot] < 0.0)
    assert np.all(traj.J[cold] > 0.0)


def test_periodic_state_power_heat_balance(warm_params):
    drive = harmonic_drive(0.5)
    state, traj = periodic_thermo(warm_params, drive, 801)
    tau = state.period
    mean_p = (traj.cumulative_work[-1] + traj.impulse_works.sum()) / tau
    mean_j = traj.cumulative_heat[-1] / tau
    assert abs(mean_p + mean_j) < 1e-8


# -- periodic state --------------------------------------------------------------


def test_relax_zero_coupling_returns_initial():
    # without dissipation every occupation is periodic; the period sampled
    # from the start still books the drive's work, so the first law closes
    params = SystemParams(gamma=0.0, T_e=1.5)
    for kind in ("harmonic", "sawtooth"):
        drive = DriveWaveform(kind=kind, omega_bar=1.0, amplitude=0.3, period=TAU)
        state, traj = periodic_thermo(params, drive, 11)
        assert state.start_occupation == params.n_thermal
        assert state.certificate == 0.0
        assert np.all(traj.n == params.n_thermal)
        assert np.max(np.abs(traj.first_law_residual())) < 1e-10


def test_relax_constant_drive_is_flat(warm_params, constant_drive):
    window = SimulationGrid(0.0, 50.0, n_samples=21)
    state = relax_to_periodic(warm_params, constant_drive, window)
    occ = occupancy_trajectory(warm_params, constant_drive, window, state.start_occupation)
    assert np.max(np.abs(occ.n - warm_params.n_thermal)) < 1e-9


def test_relax_weak_dissipation_is_certified():
    # gamma*tau ~ 6e-3: a relaxation would need ~1600 periods, the shooting
    # solves the one-period map exactly
    params = SystemParams(omega_bar=1.0, gamma=1e-4, T_e=1.5)
    state = relax_to_periodic(params, harmonic_drive(0.5), SimulationGrid(0.0, TAU, n_samples=11))
    assert state.certificate < dynamics.PERIODICITY_TOL * params.n_thermal
    assert state.epoch == 0.0


def test_relax_cold_reservoir_is_certified_relative_to_n_star():
    # at T_e 0.02 the drive lifts n* some twenty decades above
    # n_thermal(omega_bar) ~ e^-50, so a gap in units of n_thermal fails
    params = SystemParams(omega_bar=1.0, gamma=0.05, T_e=0.02)
    state = relax_to_periodic(params, harmonic_drive(0.7), SimulationGrid(0.0, TAU, n_samples=11))
    assert state.start_occupation > 1e10 * params.n_thermal
    assert state.certificate < dynamics.PERIODICITY_TOL * state.start_occupation


def test_relax_certificate_failure_raises(monkeypatch, warm_params):
    monkeypatch.setattr(dynamics, "PERIODICITY_TOL", 0.0)
    with pytest.raises(PeriodicConvergenceError):
        relax_to_periodic(warm_params, harmonic_drive(0.5), SimulationGrid(0.0, TAU, n_samples=11))


@pytest.mark.parametrize("gamma", [1e-4, 1e-3, 0.05, 0.2])
def test_square_fixed_point_matches_closed_form(gamma):
    # n_B is piecewise constant, so each half period maps n exactly to
    # a*n + (1 - a)*n_B with a = exp(-gamma*tau/2); composing the two maps
    # gives the fixed point (a*n_B(high) + n_B(low)) / (1 + a)
    params = SystemParams(omega_bar=1.0, gamma=gamma, T_e=1.5)
    drive = DriveWaveform(kind="square", omega_bar=1.0, amplitude=0.7, period=TAU)
    state = relax_to_periodic(params, drive, SimulationGrid(0.0, TAU, n_samples=11))
    a = math.exp(-gamma * TAU / 2)
    want = (a * bose_einstein(1.7, 1.5) + bose_einstein(0.3, 1.5)) / (1 + a)
    # the integrand is constant per half period, so the quadrature is exact
    assert state.start_occupation == pytest.approx(want, rel=1e-13)


def test_harmonic_fixed_point_matches_brute_force_relaxation():
    # gamma * 40 periods ~ 126: the relaxed start has forgotten n_init
    params = SystemParams(omega_bar=1.0, gamma=0.05, T_e=1.5)
    drive = harmonic_drive(0.5)
    state = relax_to_periodic(params, drive, SimulationGrid(0.0, TAU, n_samples=11))
    relaxed = occupancy_trajectory(
        params, drive, SimulationGrid(0.0, 40 * TAU, n_samples=2), params.n_thermal
    )
    assert state.start_occupation == pytest.approx(relaxed.n[-1], rel=1e-9)


def test_strong_coupling_response_is_distorted():
    # at the largest coupling the temperature develops visible harmonics
    params = SystemParams(omega_bar=1.0, gamma=0.2, T_e=1.5)
    drive = harmonic_drive(0.7)
    _, traj = periodic_thermo(params, drive, 2049)
    omega_mod = drive.angular_frequency
    fundamental = harmonic_amplitude(traj.t, traj.T, omega_mod)
    second = harmonic_amplitude(traj.t, traj.T, 2 * omega_mod)
    assert abs(second) > 0.01 * abs(fundamental)


def test_adiabatic_invariant_without_coupling():
    params = SystemParams(gamma=0.0, T_e=1.5)
    drive = harmonic_drive(0.5)
    traj = simulate_thermo(params, drive, grid(5 * TAU, n=1001))
    ratio = traj.omega0 / traj.T
    target = params.omega_bar / params.T_e
    assert np.max(np.abs(ratio - target)) / target < 1e-9


def test_steady_power_matches_small_signal_response(warm_params):
    # harmonic drive at 1% amplitude: the sampled power oscillation agrees
    # with the closed-form response in amplitude and phase
    drive = harmonic_drive(0.01)
    _, traj = periodic_thermo(warm_params, drive, 2049)
    omega_mod = drive.angular_frequency
    measured = harmonic_amplitude(traj.t, traj.P, omega_mod, drive.phase)
    predicted = power_response(omega_mod, warm_params) * drive.amplitude
    assert abs(measured) / abs(predicted) == pytest.approx(1.0, abs=0.01)
    assert abs(np.angle(measured / predicted)) < 0.01
