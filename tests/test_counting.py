import math

import numpy as np
import pytest
from scipy.linalg import expm

from driven_resonator.counting import (
    WINDOW_TAIL,
    CountingOverflowError,
    DistributionError,
    _invert_generating_function,
    automatic_window,
    counting_epoch,
    counting_pair_rhs,
    cumulant_jet_rhs,
    cumulant_trajectories,
    distribution,
    equilibrium_distribution,
    evolve_counting,
    theta_grid_size,
    window_tail_bound,
)
from driven_resonator.dynamics import occupancy_trajectory
from driven_resonator.linear_response import (
    equilibrium_cgf,
    equilibrium_cumulants,
    equilibrium_occupation_s,
)
from driven_resonator.model import DriveWaveform, SimulationGrid, SystemParams
from tests.conftest import TAU, harmonic_drive


# -- counting pair ----------------------------------------------------------------


@pytest.mark.parametrize("kind,amp", [("constant", 0.0), ("square", 0.5), ("sawtooth", 0.5), ("harmonic", 0.5)])
def test_zero_counting_field_degenerates_to_occupancy(hot_params, kind, amp):
    drive = DriveWaveform(kind=kind, omega_bar=1.0, amplitude=amp, period=TAU)
    grid = SimulationGrid(0.0, 2 * TAU, n_samples=101)
    n0 = 0.7
    occ = occupancy_trajectory(hot_params, drive, grid, n0)
    run = evolve_counting(0.0, hot_params, drive, (0.0, 2 * TAU), n0, t_eval=grid.times())
    assert np.max(np.abs(run.cgf)) < 1e-9
    assert np.max(np.abs(run.occupation[:, 0] - occ.n)) < 1e-9


def test_cgf_converges_to_equilibrium(hot_params, constant_drive):
    x = hot_params.x
    s = np.array([0.1, -0.1])
    run = evolve_counting(s, hot_params, constant_drive, (0.0, 400.0), hot_params.n_thermal, t_eval=[400.0])
    for i, sv in enumerate(s):
        assert abs(run.cgf[-1, i] - equilibrium_cgf(sv, x)) < 1e-6


def test_imaginary_field_conjugate_symmetry(hot_params):
    # physical (real) initial states: C(-i theta) = conj(C(i theta))
    drive = harmonic_drive(0.6)
    theta = np.array([0.3, 1.1, 2.5])
    s = np.concatenate([1j * theta, -1j * theta])
    run = evolve_counting(s, hot_params, drive, (0.0, TAU), 2.0, t_eval=[0.5 * TAU, TAU])
    plus, minus = run.cgf[:, :3], run.cgf[:, 3:]
    assert np.max(np.abs(minus - np.conj(plus))) < 1e-10


def test_constant_drive_matches_linear_fractional_closed_form(hot_params, constant_drive):
    # n' = A n^2 + B n + D is Riccati; with n_s = p/q the pair is linear,
    # (p, q)' = [[B, D], [-A, 0]] (p, q), and e^C = e^(absorb t) / q
    gamma, n_b = hot_params.gamma, hot_params.n_thermal
    n0, t = 0.4, 40.0
    s = np.concatenate([
        [-0.15, 0.1, 0.2],
        1j * 2.0 * np.pi * np.arange(16) / 16,
        [0.1 + 0.7j, -0.05 - 1.3j, 0.2 + 2.9j],
    ])
    run = evolve_counting(s, hot_params, constant_drive, (0.0, t), n0, t_eval=[t])
    for k, sv in enumerate(s):
        emit = gamma * np.expm1(sv) * (1.0 + n_b)
        absorb = gamma * np.expm1(-sv) * n_b
        generator = np.array([[2 * absorb - gamma, absorb + gamma * n_b], [-(emit + absorb), 0.0]])
        p, q = expm(generator * t) @ [n0, 1.0]
        mgf = np.exp(absorb * t) / q
        assert abs(np.exp(run.cgf[-1, k]) - mgf) < 1e-10 * abs(mgf)
        assert abs(run.occupation[-1, k] - p / q) < 1e-10 * abs(p / q)


def test_shifted_occupation_is_a_fixed_point(hot_params, constant_drive):
    s = 0.1
    n_s = equilibrium_occupation_s(s, hot_params.x)
    run = evolve_counting(s, hot_params, constant_drive, (0.0, 100.0), n_s, t_eval=[100.0])
    assert abs(run.occupation[-1, 0] - n_s) < 1e-9


def test_overflow_guard_trips_once_bound_is_reached(hot_params, constant_drive, monkeypatch):
    # the guard is a safety net for the later exponentiation; reachable
    # trajectories stay far below the production bound, so exercise the
    # mechanism itself with a lowered one
    from driven_resonator import counting as counting_mod

    monkeypatch.setattr(counting_mod, "REAL_CGF_BOUND", 0.5)
    with pytest.raises(CountingOverflowError):
        evolve_counting(
            -0.2, hot_params, constant_drive, (0.0, 400.0), hot_params.n_thermal,
            t_eval=[400.0],
        )


def test_shifted_occupation_pole_fails_loudly(hot_params, constant_drive):
    # far outside the normalizability window the shifted occupation diverges
    # in finite time; the stepper must fail with a diagnosable error rather
    # than return garbage
    from driven_resonator.stepping import IntegrationError

    with pytest.raises(IntegrationError):
        evolve_counting(
            -6.0, hot_params, constant_drive, (0.0, 50.0), hot_params.n_thermal,
            t_eval=np.linspace(0.0, 50.0, 51),
        )


def test_pair_rhs_is_the_pair_equations():
    # the affine form against the module docstring's equations, written out
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = rng.normal(scale=0.7, size=6) + 1j * rng.uniform(-np.pi, np.pi, size=6)
        n_s = rng.normal(size=6) + 1j * rng.normal(size=6)
        gamma, n_b = rng.uniform(0.01, 1.0), rng.uniform(0.0, 8.0)
        d_c, d_n = np.split(counting_pair_rhs(s, gamma)(n_s, n_b), 2)
        emit, absorb = gamma * (np.exp(s) - 1.0), gamma * (np.exp(-s) - 1.0)
        want_c = emit * n_s * (1 + n_b) + absorb * n_b * (1 + n_s)
        want_n = emit * n_s**2 * (1 + n_b) + absorb * n_b * (1 + n_s) ** 2 + gamma * (n_b - n_s)
        assert np.max(np.abs(d_c - want_c)) <= 1e-12 * np.max(np.abs(want_c))
        assert np.max(np.abs(d_n - want_n)) <= 1e-12 * np.max(np.abs(want_n))


# -- jet hierarchy -----------------------------------------------------------------


def test_jet_rhs_reproduces_hand_derived_hierarchy():
    # order-1 and order-2 ladder equations, written out by hand, must agree
    # with the affine series-arithmetic right-hand side at machine precision
    rng = np.random.default_rng(11)
    order = 4
    for _ in range(25):
        gamma, n_b = rng.uniform(0.01, 1.0, size=2)
        nu = rng.normal(size=order + 1)
        d_c, d_nu = np.split(cumulant_jet_rhs(order, gamma)(nu, n_b), 2)
        n0, n1 = nu[0], nu[1]  # nu[k] = n_k / k!
        assert d_c[0] == 0.0
        assert d_c[1] == pytest.approx(gamma * (n0 - n_b), rel=1e-12, abs=1e-12)
        # second cumulant: coefficient is d<<m^2>>/dt / 2!
        want = gamma * (n_b * (2 * n0 + 1) + 2 * n1 + n0) / 2.0
        assert d_c[2] == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert d_nu[0] == pytest.approx(gamma * (n_b - n0), rel=1e-12, abs=1e-12)
        want_n1 = gamma * (n0**2 - n1) - gamma * n_b * (1 + 2 * n0)
        assert d_nu[1] == pytest.approx(want_n1, rel=1e-12, abs=1e-12)


def test_first_cumulant_equals_occupation_drop(hot_params):
    # every emission lowers the mode occupation by one, so the accumulated
    # mean transfer is exactly the occupation lost since the reset
    drive = harmonic_drive(0.6)
    grid = SimulationGrid(0.0, 2 * TAU, n_samples=101)
    jets = cumulant_trajectories(2, hot_params, drive, grid)
    n_t = jets.occupation_jet[:, 0]
    assert np.max(np.abs(jets.cumulants[:, 0] - (n_t[0] - n_t))) < 1e-9


def test_jet_cumulants_converge_to_equilibrium(hot_params, constant_drive):
    grid = SimulationGrid(0.0, 400.0, n_samples=9)
    jets = cumulant_trajectories(4, hot_params, constant_drive, grid, n_init=hot_params.n_thermal)
    eq = equilibrium_cumulants(hot_params.x, 4)
    assert np.max(np.abs(jets.cumulants[:, 0])) < 1e-9
    assert np.max(np.abs(jets.cumulants[:, 2])) < 1e-9
    assert jets.cumulants[-1, 1] == pytest.approx(eq[1], rel=1e-4)
    assert jets.cumulants[-1, 3] == pytest.approx(eq[3], rel=1e-4)


def test_emission_sign_convention(hot_params, constant_drive):
    # hotter than the reservoir: net emission, the mean transfer grows, and
    # the heat current computed by the dynamics module is minus the base
    # frequency times the transfer rate gamma*(n - n_B)
    hot_occupation = 1.0 / math.expm1(hot_params.omega_bar / (2.0 * hot_params.T_e))
    grid = SimulationGrid(0.0, 1.0, n_samples=11)
    jets = cumulant_trajectories(1, hot_params, constant_drive, grid, n_init=hot_occupation)
    assert jets.cumulants[-1, 0] > 0.0
    assert np.all(np.diff(jets.cumulants[:, 0]) > 0.0)
    from driven_resonator.dynamics import simulate_thermo

    traj = simulate_thermo(hot_params, constant_drive, grid, n_init=hot_occupation)
    n_b = hot_params.n_thermal
    transfer_rate = hot_params.gamma * (jets.occupation_jet[:, 0] - n_b)
    assert np.max(np.abs(traj.J + hot_params.omega_bar * transfer_rate)) < 1e-9


def test_jet_capacity_cap(hot_params, constant_drive):
    grid = SimulationGrid(0.0, 10.0, n_samples=3)
    with pytest.raises(ValueError):
        cumulant_trajectories(9, hot_params, constant_drive, grid, n_init=1.0)


def test_counting_epoch_from_periodic_state(hot_params):
    drive = harmonic_drive(0.6)
    grid = SimulationGrid(0.0, TAU, n_samples=2)
    epoch, n0 = counting_epoch(hot_params, drive, grid)
    assert epoch % drive.period == pytest.approx(0.0, abs=1e-9)
    assert n0 > 0.0
    # explicit n_init bypasses the relaxation
    assert counting_epoch(hot_params, drive, grid, n_init=2.5) == (0.0, 2.5)


# -- distribution -------------------------------------------------------------------


def test_zero_duration_distribution_is_a_point_mass(hot_params, constant_drive):
    grid = SimulationGrid(0.0, 10.0, n_samples=2)
    dist = distribution(0.0, 5, hot_params, constant_drive, grid)
    assert dist.p[5] == 1.0
    assert dist.p.sum() == 1.0
    assert np.count_nonzero(dist.p) == 1


def test_long_time_distribution_matches_closed_form(hot_params, constant_drive):
    grid = SimulationGrid(0.0, 400.0, n_samples=2)
    dist = distribution(400.0, 90, hot_params, constant_drive, grid, n_init=hot_params.n_thermal)
    target = equilibrium_distribution(hot_params.x, dist.m)
    sel = np.abs(dist.m) <= 10
    assert np.max(np.abs(dist.p[sel] - target[sel])) < 1e-8
    assert dist.p.sum() == pytest.approx(1.0, abs=1e-8)


def test_equilibrium_distribution_reference_values():
    # direct evaluation of exp(-|m| x) tanh(x/2) at x = 1/4
    assert equilibrium_distribution(0.25, 0) == pytest.approx(0.1243530, abs=1e-7)
    assert equilibrium_distribution(0.25, 1) == pytest.approx(0.0968462, abs=1e-7)
    assert equilibrium_distribution(0.25, -1) == equilibrium_distribution(0.25, 1)


def test_equilibrium_distribution_normalizes():
    m = np.arange(-200, 201)
    assert equilibrium_distribution(0.25, m).sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        equilibrium_distribution(0.0, 1)


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 3.0])
def test_window_tail_bound_covers_the_equilibrium_tail(x):
    # on a constant drive in equilibrium n = n_B, q = n/(1+n) = e^-x, and the
    # closed-form tail P(|m| > M) = 2 q^(M+1) / (1 + q) sits under the bound
    # 2 q^(M+1)
    n = 1.0 / math.expm1(x)
    q = math.exp(-x)
    for m_max in (1, 5, 20, 80):
        beyond = np.arange(m_max + 1, m_max + 1 + int(800 / x))
        tail = 2.0 * equilibrium_distribution(x, beyond).sum()
        assert tail == pytest.approx(2.0 * q ** (m_max + 1) / (1.0 + q), rel=1e-12)
        assert tail <= window_tail_bound(n, n, m_max)
        assert window_tail_bound(n, n, m_max) == pytest.approx(2.0 * q ** (m_max + 1), rel=1e-12)


@pytest.mark.parametrize("n_start, n_end", [(5.86, 7.44), (0.3, 0.1), (2.0, 2.0), (0.0, 1e-3)])
def test_automatic_window_is_the_smallest_meeting_the_bound(n_start, n_end):
    m_max = automatic_window(n_start, n_end)
    assert window_tail_bound(n_start, n_end, m_max) <= WINDOW_TAIL
    assert m_max == 1 or window_tail_bound(n_start, n_end, m_max - 1) > WINDOW_TAIL


def test_theta_grid_holds_the_aliasing_bound():
    assert [theta_grid_size(m) for m in (1, 2, 3, 80, 160)] == [8, 8, 16, 256, 512]
    for m_max in range(1, 400):
        n = theta_grid_size(m_max)
        assert n & (n - 1) == 0
        assert n >= 3 * m_max + 2 > n // 2
        # mass folded into the window lies at |m| >= n - m_max, and its bound
        # is at most the square of the window's own tail bound
        for n_start, n_end in ((5.86, 7.44), (0.3, 0.1), (40.0, 0.0)):
            window = window_tail_bound(n_start, n_end, m_max)
            assert window_tail_bound(n_start, n_end, n - m_max - 1) <= window * window


def test_window_too_small_is_rejected(hot_params, constant_drive):
    grid = SimulationGrid(0.0, 400.0, n_samples=2)
    with pytest.raises(DistributionError):
        distribution(400.0, 10, hot_params, constant_drive, grid, n_init=hot_params.n_thermal)


def test_inversion_flags_edge_mass():
    # a point mass parked exactly on the window edge passes the sum check
    # but must trigger the aliasing warning
    m_values = np.arange(-4, 5)
    theta = 2.0 * np.pi * np.arange(32) / 32
    mgf = np.exp(1j * 4 * theta)
    with pytest.warns(UserWarning):
        dist = _invert_generating_function(m_values, mgf, 1.0)
    assert dist.p[-1] == pytest.approx(1.0)


def test_distribution_matches_the_fourfold_oversampled_grid(hot_params, monkeypatch):
    # the grid 4(2M+1) had four times the fields; the smaller grid's
    # aliasing is below rounding, so the two inversions agree
    from driven_resonator import counting as counting_mod

    drive = harmonic_drive(0.6)
    grid = SimulationGrid(0.0, 4 * TAU, n_samples=2)
    t_count, m_max = 2.5 * TAU, 150
    small = distribution(t_count, m_max, hot_params, drive, grid)
    # the smallest power of two >= 4(2M+1)
    monkeypatch.setattr(counting_mod, "theta_grid_size", lambda m: 1 << (8 * m + 3).bit_length())
    assert counting_mod.theta_grid_size(m_max) == 4 * theta_grid_size(m_max)
    large = distribution(t_count, m_max, hot_params, drive, grid)
    assert np.max(np.abs(small.p - large.p)) < 1e-14


def test_driven_distribution_moments_match_jets(hot_params):
    drive = harmonic_drive(0.6)
    grid = SimulationGrid(0.0, 2 * TAU, n_samples=41)
    jets = cumulant_trajectories(2, hot_params, drive, grid)
    t_count = float(jets.t[-1])
    dist = distribution(t_count, 170, hot_params, drive, grid)
    assert dist.mean() == pytest.approx(jets.cumulants[-1, 0], abs=1e-6)
    assert dist.variance() == pytest.approx(jets.cumulants[-1, 1], abs=1e-5)
