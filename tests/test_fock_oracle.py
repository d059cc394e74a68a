import math

import numpy as np
import pytest
from scipy.linalg import expm

from driven_resonator import counting, fock_oracle, verify
from driven_resonator.counting import cumulant_trajectories, equilibrium_distribution
from driven_resonator.dynamics import relax_to_periodic
from driven_resonator.fock_oracle import (
    TruncationError,
    apply_tilted_generator,
    build_tilted_generator,
    evolve_fock,
    population_propagator,
    relax_fock_periodic,
    thermal_state,
    total_variation,
    transfer_distribution,
)
from driven_resonator.model import DriveWaveform, SimulationGrid, SystemParams, bose_einstein
from tests.conftest import TAU, harmonic_drive

X1 = SystemParams(omega_bar=1.0, gamma=0.1, T_e=1.0)


# -- thermal states ----------------------------------------------------------------


def test_vacuum_thermal_state():
    pops = thermal_state(0.0, 10)
    assert pops[0] == 1.0
    assert np.count_nonzero(pops) == 1


def test_unit_occupation_thermal_state():
    pops = thermal_state(1.0, 60)
    expect = 0.5 ** (np.arange(61) + 1.0)
    assert np.max(np.abs(pops - expect)) < 1e-12
    assert pops.sum() == pytest.approx(1.0, abs=1e-12)


def test_thermal_state_mean_occupation():
    n = bose_einstein(1.0, 1.0)  # 1/(e-1)
    pops = thermal_state(n, 30)
    mean = np.arange(31) @ pops
    assert mean == pytest.approx(n, abs=1e-8)


def test_thermal_state_truncation_rejection():
    with pytest.raises(TruncationError):
        thermal_state(1.0, 12)


# -- generator structure -------------------------------------------------------------


def test_population_generator_is_the_diagonal_of_the_dense_generator():
    # phase covariance: the dense generator maps diag(p) to a diagonal image,
    # whose diagonal is the population generator's L(s) p
    rng = np.random.default_rng(3)
    n_max = 9
    pops = rng.normal(size=(2, n_max + 1)) + 1j * rng.normal(size=(2, n_max + 1))
    for omega in (0.7, 0.85, 1.3):
        n_b = bose_einstein(omega, X1.T_e)
        stay, emitted, absorbed = apply_tilted_generator(pops, n_b, X1.gamma)
        for s in (0.0, 0.4, -0.2, 0.1 + 0.7j, 1j * np.pi / 3):
            gen = build_tilted_generator(s, omega, X1, n_max)
            fast = stay + np.exp(s) * emitted + np.exp(-s) * absorbed
            for k in range(2):
                image = (gen @ np.diag(pops[k]).reshape(-1)).reshape(n_max + 1, n_max + 1)
                assert np.max(np.abs(np.diag(image) - fast[k])) < 1e-12
                assert np.count_nonzero(image - np.diag(np.diag(image))) == 0


def test_trace_functional_annihilates_plain_generator():
    n_max = 14
    gen = build_tilted_generator(0.0, 1.0, X1, n_max)
    residual = np.eye(n_max + 1).reshape(-1) @ gen
    assert np.max(np.abs(residual)) < 1e-12


def test_equilibrium_state_is_stationary():
    n_max = 30
    gen = build_tilted_generator(0.0, 1.0, X1, n_max)
    rho = np.diag(thermal_state(X1.n_thermal, n_max))
    assert np.max(np.abs(gen @ rho.reshape(-1))) < 1e-10


def test_zero_coupling_preserves_trace_for_any_tilt():
    # without coupling only the commutator acts, on coherences too, and the
    # trace functional annihilates it whatever the tilt
    params = SystemParams(omega_bar=1.0, gamma=0.0, T_e=1.0)
    n_max = 20
    trace = np.eye(n_max + 1).reshape(-1)
    for s in (0.7, -0.3, 0.5j, 0.2 - 1.1j):
        for omega in (0.8, 1.0):
            gen = build_tilted_generator(s, omega, params, n_max)
            assert np.max(np.abs(trace @ gen)) < 1e-12


def test_population_equation_is_the_first_moment():
    # tr{N L rho} must equal gamma (n_B - n) tr(rho) on states supported
    # away from the truncation edge
    rng = np.random.default_rng(5)
    n_max = 14
    gen = build_tilted_generator(0.0, 1.0, X1, n_max)
    raw = rng.normal(size=(n_max + 1, n_max + 1)) + 1j * rng.normal(size=(n_max + 1, n_max + 1))
    damp = np.diag(np.exp(-np.arange(n_max + 1.0)))
    rho = damp @ (raw @ raw.conj().T) @ damp
    rho /= np.trace(rho).real
    num = np.diag(np.arange(n_max + 1.0))
    lhs = np.trace(num @ (gen @ rho.reshape(-1)).reshape(n_max + 1, n_max + 1))
    n_mean = np.trace(num @ rho)
    rhs = X1.gamma * (bose_einstein(1.0, X1.T_e) - n_mean)
    assert abs(lhs - rhs) < 1e-10


def test_dimension_cap_enforced():
    with pytest.raises(ValueError):
        build_tilted_generator(0.0, 1.0, X1, 81)


# -- evolution ----------------------------------------------------------------------


def test_truncation_health_monitor_rejects_tight_spaces():
    params = SystemParams(omega_bar=1.0, gamma=0.2, T_e=3.0)  # n ~ 2.8
    drive = DriveWaveform(kind="constant", omega_bar=1.0)
    vacuum = thermal_state(0.0, 6)
    with pytest.raises(TruncationError):
        evolve_fock(vacuum, params, drive, 0.0, (0.0, 60.0), t_eval=[60.0])


# -- two-point transfer distribution -----------------------------------------------------


def test_m_resolved_counting_starts_at_zero():
    # Phi(0) = I: no level has moved, so all weight sits at m = 0
    drive = DriveWaveform(kind="constant", omega_bar=1.0)
    p0 = thermal_state(X1.n_thermal, 25)
    m, p = transfer_distribution(p0, np.eye(26))
    assert np.array_equal(m, np.arange(-25, 26))
    assert p[25] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(np.delete(p, 25))) < 1e-14
    _, p = transfer_distribution(p0, population_propagator(X1, drive, 25, (0.0, 1.0)))
    assert p.sum() == pytest.approx(1.0, abs=1e-8)


def test_m_resolved_reaches_equilibrium_distribution():
    drive = DriveWaveform(kind="constant", omega_bar=1.0)
    p0 = thermal_state(X1.n_thermal, 30)
    m, p = transfer_distribution(p0, population_propagator(X1, drive, 30, (0.0, 300.0)))
    assert total_variation(p, equilibrium_distribution(X1.x, m)) < 1e-5


def test_m_resolved_marginal_matches_plain_evolution():
    # the level marginal of the two-point route is the plain evolution
    drive = harmonic_drive(0.3)
    p0 = thermal_state(X1.n_thermal, 25)
    for t1 in (0.5 * TAU, TAU):
        phi = population_propagator(X1, drive, 25, (0.0, t1))
        plain = evolve_fock(p0, X1, drive, 0.0, (0.0, t1))
        assert np.max(np.abs(p0 @ phi - plain.final_states[0])) < 1e-8


def test_m_resolved_moment_bridge():
    drive = harmonic_drive(0.3)
    p0 = thermal_state(X1.n_thermal, 30)
    m, p = transfer_distribution(p0, population_propagator(X1, drive, 30, (0.0, TAU)))
    grid = SimulationGrid(0.0, TAU, n_samples=2)
    jets = cumulant_trajectories(1, X1, drive, grid, n_init=X1.n_thermal)
    assert float(m @ p) == pytest.approx(jets.cumulants[-1, 0], abs=1e-6)


def test_two_point_characteristic_function_is_the_tilted_trace():
    # sum_m p(m) e^{i m theta} = tr rho(s = i theta): the counting field
    # tilts emissions by e^s, and every emission raises m by one
    drive = harmonic_drive(0.3)
    p0 = thermal_state(X1.n_thermal, 25)
    m, p = transfer_distribution(p0, population_propagator(X1, drive, 25, (0.0, TAU)))
    theta = np.array([0.3, np.pi / 2, 2.0, np.pi])
    tilted = evolve_fock(p0, X1, drive, 1j * theta, (0.0, TAU))
    characteristic = np.exp(1j * np.outer(theta, m)) @ p
    assert np.max(np.abs(characteristic - tilted.trace[-1])) < 1e-9


def test_square_probe_case_passes_the_cross_method_thresholds(monkeypatch):
    # the two-point route has no window to leak from: the mean is taken over
    # its full support
    params = SystemParams(omega_bar=1.0, gamma=0.1, T_e=0.7)
    drive = DriveWaveform(kind="square", omega_bar=1.0, amplitude=0.3, period=TAU, phase=0.7)
    solves = []

    def counted(*args):
        solves.append(args)
        return relax_to_periodic(*args)

    monkeypatch.setattr(counting, "relax_to_periodic", counted)
    res = verify.driven_cross_method_check(params, drive, n_max=20, m_window=16)
    assert len(solves) == 1  # the scalar periodic state is solved once
    for key in ("tv_counting_tilted", "tv_counting_ladder", "tv_tilted_ladder"):
        assert res[key] < 1e-4, key
    assert res["mean_gap_ladder_vs_jet"] < 1e-6
    assert res["p_ladder"].shape == (33,)


def test_plain_evolution_keeps_state_physical():
    # s = 0 on a coherence-carrying state, stepped by exact exponentials of the
    # dense generator at the drive's midpoint frequencies: trace 1, Hermitian,
    # positive
    drive = harmonic_drive(0.3)
    n_max = 20
    rho = np.diag(thermal_state(X1.n_thermal, n_max)).astype(complex)
    rho[1, 3] += 0.05
    rho[3, 1] += 0.05
    edges = np.linspace(0.0, 2 * TAU, 9)
    vec = rho.reshape(-1)
    for t0, t1 in zip(edges[:-1], edges[1:]):
        gen = build_tilted_generator(0.0, drive.omega(0.5 * (t0 + t1)), X1, n_max)
        vec = expm(gen * (t1 - t0)) @ vec
        final = vec.reshape(n_max + 1, n_max + 1)
        assert abs(np.trace(final) - 1.0) < 1e-9
        assert np.max(np.abs(final - final.conj().T)) < 1e-9
        assert np.linalg.eigvalsh(final).min() > -1e-9


# -- periodic state ----------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.1, 0.05, 0.01, 1e-3])
@pytest.mark.parametrize("kind", ["harmonic", "square", "sawtooth"])
def test_shooting_state_matches_brute_force_relaxation(kind, gamma):
    params = SystemParams(omega_bar=1.0, gamma=gamma, T_e=1.0)
    drive = DriveWaveform(kind=kind, omega_bar=1.0, amplitude=0.3, period=TAU)
    p, _ = relax_fock_periodic(params, drive)
    # whole periods from reservoir equilibrium until the transient,
    # exp(-gamma t) times an O(1) distance, is far below the tolerance
    periods = math.ceil(25.0 / (gamma * TAU))
    run = evolve_fock(thermal_state(params.n_thermal, 40), params, drive, 0.0, (0.0, periods * TAU))
    assert np.max(np.abs(run.final_states[0] - p)) < 1e-8
    scalar = relax_to_periodic(params, drive, SimulationGrid(0.0, TAU, n_samples=2))
    assert np.arange(p.size) @ p == pytest.approx(scalar.start_occupation, abs=1e-8)


def test_periodic_certificate_failure_raises(monkeypatch):
    monkeypatch.setattr(fock_oracle, "PERIODIC_TOL", 0.0)
    with pytest.raises(RuntimeError, match="certificate"):
        relax_fock_periodic(X1, harmonic_drive(0.3))


def test_periodic_state_without_dissipation_is_thermal():
    # gamma = 0: the one-period map is the identity and the solve is singular
    params = SystemParams(omega_bar=1.0, gamma=0.0, T_e=1.0)
    p, phi = relax_fock_periodic(params, harmonic_drive(0.3), n_max=30)
    assert np.array_equal(p, thermal_state(params.n_thermal, 30))
    assert np.array_equal(phi, np.eye(31))


@pytest.mark.parametrize("drive", [
    DriveWaveform(kind="constant", omega_bar=1.0),
    DriveWaveform(kind="tabulated", omega_bar=1.0, knots=((0.0, 1.0), (50.0, 1.3), (100.0, 1.0))),
], ids=["constant", "tabulated"])
def test_periodic_state_needs_a_periodic_drive(drive, monkeypatch):
    # refused by name before any integration, not deep inside the stepper
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(fock_oracle, "integrate_segmented", no_integration)
    with pytest.raises(ValueError, match=f"periodic drive, not '{drive.kind}'"):
        relax_fock_periodic(SystemParams(omega_bar=1.0, gamma=0.1, T_e=1.0), drive, n_max=20)
    # without dissipation every state is periodic: the thermal populations
    params = SystemParams(omega_bar=1.0, gamma=0.0, T_e=1.0)
    p, _ = relax_fock_periodic(params, drive, n_max=20)
    assert np.array_equal(p, thermal_state(params.n_thermal, 20))


# -- total variation -------------------------------------------------------------------


def test_total_variation_basics():
    p = np.array([0.2, 0.8, 0.0])
    assert total_variation(p, p) == 0.0
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert total_variation(a, b) == 1.0
    with pytest.raises(ValueError):
        total_variation(a, np.array([1.0, 0.0, 0.0]))


def test_total_variation_equilibrium_regression():
    # frozen by direct summation of the closed-form distributions over
    # |m| <= 2000 (tails < 1e-200)
    m = np.arange(-2000, 2001)
    tv = total_variation(equilibrium_distribution(0.25, m), equilibrium_distribution(0.5, m))
    assert tv == pytest.approx(0.25332785099695226, abs=1e-12)


# -- cross-method battery ----------------------------------------------------------------


def test_verification_battery():
    outcomes = verify.run_verification()
    for outcome in outcomes:
        assert outcome.passed, f"{outcome.name}: {outcome.value:.3e} >= {outcome.threshold:.1e}"
