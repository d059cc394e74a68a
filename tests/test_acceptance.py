"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line with the measured figure of merit. Run with

    pytest tests/test_acceptance.py -v -s

Every criterion takes seconds at most; the cross-method case (criterion 6)
runs in about a second.
"""

import math

import numpy as np
import pytest

from driven_resonator import counting, dynamics, verify
from driven_resonator.linear_response import (
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
from driven_resonator.model import DriveWaveform, SimulationGrid, SystemParams

TAU = 2.0 * math.pi / 0.1
OMEGA_MOD = 0.1


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def harmonic(amplitude, omega_bar=1.0):
    return DriveWaveform(kind="harmonic", omega_bar=omega_bar, amplitude=amplitude, period=TAU)


def measured_fundamentals(params, drive, n_per_period=4096):
    """First-harmonic complex amplitudes of T, P, J in the periodic state."""
    period = SimulationGrid(0.0, TAU, n_samples=n_per_period + 1)
    state = dynamics.relax_to_periodic(params, drive, period)
    traj = dynamics.simulate_thermo(params, drive, period, state.start_occupation)
    out = {}
    for key, series in (("T", traj.T - params.T_e), ("P", traj.P), ("J", traj.J)):
        out[key] = harmonic_amplitude(traj.t, series - np.mean(series), OMEGA_MOD, drive.phase)
    return out


def test_criterion_1_adiabatic_law():
    params = SystemParams(omega_bar=1.0, gamma=0.0, T_e=1.5)
    grid = SimulationGrid(0.0, 5 * TAU, n_samples=2001)
    traj = dynamics.simulate_thermo(params, harmonic(0.7), grid)
    target = params.omega_bar / params.T_e
    drift = float(np.max(np.abs(traj.omega0 / traj.T - target)) / target)
    report("criterion 1 (adiabatic law, gamma = 0)", drift < 1e-9, f"max relative drift {drift:.2e} (tol 1e-9)")


def test_criterion_2_first_law():
    params = SystemParams(omega_bar=1.0, gamma=0.05, T_e=1.5)
    worst = 0.0
    for kind in ("square", "sawtooth", "harmonic"):
        drive = DriveWaveform(kind=kind, omega_bar=1.0, amplitude=0.7, period=TAU)
        traj = dynamics.simulate_thermo(params, drive, SimulationGrid(0.0, 3 * TAU, n_samples=1201))
        residual = np.max(np.abs(traj.first_law_residual())) / np.max(np.abs(traj.U))
        worst = max(worst, float(residual))
    report(
        "criterion 2 (first law, three drive kinds)",
        worst < 1e-6,
        f"worst interval residual {worst:.2e} of max|U| (tol 1e-6)",
    )


def test_criterion_3_linear_response_transfer_functions():
    params = SystemParams(omega_bar=1.0, gamma=0.1, T_e=1.5)
    responses = {
        "T": temp_response(OMEGA_MOD, params),
        "P": power_response(OMEGA_MOD, params),
        "J": heat_response(OMEGA_MOD, params),
    }

    small = measured_fundamentals(params, harmonic(0.01))
    amp_errs, phase_errs = [], []
    for key, resp in responses.items():
        predicted = resp * 0.01
        amp_errs.append(abs(abs(small[key]) / abs(predicted) - 1.0))
        phase_errs.append(abs(np.angle(small[key] / predicted)))
    ok_linear = max(amp_errs) < 0.01 and max(phase_errs) < 0.02

    large = measured_fundamentals(params, harmonic(0.5))
    deviations = [abs(abs(large[k]) / abs(responses[k] * 0.5) - 1.0) for k in responses]
    ok_nonlinear = min(deviations) > 0.05

    report(
        "criterion 3 (transfer functions)",
        ok_linear and ok_nonlinear,
        f"small-amplitude: amp err {max(amp_errs):.2e} (tol 1e-2), phase err "
        f"{max(phase_errs):.2e} rad (tol 2e-2); large-amplitude deviations "
        f"{[f'{d:.3f}' for d in deviations]} all > 0.05",
    )


def test_criterion_4_equilibrium_counting_statistics():
    params = SystemParams(omega_bar=1.0, gamma=0.1, T_e=4.0)  # x = 0.25
    drive = DriveWaveform(kind="constant", omega_bar=1.0)
    x = params.x
    horizon = 40.0 / params.gamma

    s_values = np.array([0.05, -0.05, 0.1, -0.1])
    run = counting.evolve_counting(
        s_values, params, drive, (0.0, horizon), params.n_thermal, t_eval=[horizon]
    )
    cgf_gap = float(
        np.max(np.abs(run.cgf[-1] - np.array([equilibrium_cgf(s, x) for s in s_values])))
    )

    jets = counting.cumulant_trajectories(
        4, params, drive, SimulationGrid(0.0, horizon, n_samples=5), n_init=params.n_thermal
    )
    eq = equilibrium_cumulants(x, 4)
    c2_err = abs(jets.cumulants[-1, 1] / eq[1] - 1.0)
    c4_err = abs(jets.cumulants[-1, 3] / eq[3] - 1.0)
    odd = max(abs(jets.cumulants[-1, 0]), abs(jets.cumulants[-1, 2]))

    passed = cgf_gap < 1e-6 and c2_err < 1e-4 and c4_err < 1e-4 and odd < 1e-8
    report(
        "criterion 4 (equilibrium counting statistics)",
        passed,
        f"CGF gap {cgf_gap:.2e} (tol 1e-6); c2 -> {eq[1]:.4f} rel {c2_err:.2e}, "
        f"c4 -> {eq[3]:.1f} rel {c4_err:.2e} (tol 1e-4); |odd| {odd:.2e} (tol 1e-8)",
    )


def test_criterion_5_distribution_inversion():
    params = SystemParams(omega_bar=1.0, gamma=0.1, T_e=4.0)
    drive = DriveWaveform(kind="constant", omega_bar=1.0)
    grid = SimulationGrid(0.0, 400.0, n_samples=2)
    dist = counting.distribution(400.0, 90, params, drive, grid, n_init=params.n_thermal)
    target = counting.equilibrium_distribution(params.x, dist.m)
    core = np.abs(dist.m) <= 10
    point_err = float(np.max(np.abs(dist.p[core] - target[core])))
    sum_err = abs(float(dist.p.sum()) - 1.0)
    report(
        "criterion 5 (distribution inversion)",
        point_err < 1e-8 and sum_err < 1e-8,
        f"max pointwise error {point_err:.2e} for |m| <= 10 (tol 1e-8); "
        f"|sum p - 1| = {sum_err:.2e} (tol 1e-8)",
    )


def test_criterion_6_cross_method_oracle_equivalence():
    res = verify.driven_cross_method_check(n_max=40, m_window=30)
    tv_tilted = res["tv_counting_tilted"]
    tv_ladder = res["tv_counting_ladder"]
    report(
        "criterion 6 (cross-method oracle equivalence)",
        tv_tilted < 1e-4 and tv_ladder < 1e-4,
        f"TV(counting, tilted grid) = {tv_tilted:.2e}, TV(counting, ladder) = "
        f"{tv_ladder:.2e} (tol 1e-4)",
    )


def test_criterion_7_linear_response_cumulants():
    params = SystemParams(omega_bar=1.0, gamma=0.1, T_e=4.0)  # x = 0.25
    drive = harmonic(0.01)
    per = 1000
    periods = 7
    grid = SimulationGrid(0.0, periods * TAU, n_samples=periods * per + 1)
    jets = counting.cumulant_trajectories(4, params, drive, grid)
    window = slice(-(per + 1), None)  # the final full period, by index
    tt = jets.t[window] + jets.epoch

    bracket2 = lr_cumulant_bracket(2, params.x)
    bracket_ok = abs(bracket2 + 8.0416) < 5e-4

    amp_errs = []
    signs_ok = True
    details = []
    for order in range(1, 5):
        series = jets.cumulants[window, order - 1]
        measured = harmonic_amplitude(tt, series - np.mean(series), OMEGA_MOD, drive.phase)
        predicted = lr_cumulant_response(order, OMEGA_MOD, params) * drive.amplitude
        amp_errs.append(abs(abs(measured) / abs(predicted) - 1.0))
        if order >= 2:
            # in phase with the drive <=> positive real part of the response;
            # the third cumulant is in phase, the second and fourth are not
            expected_sign = 1.0 if order == 3 else -1.0
            signs_ok &= np.sign(measured.real) == expected_sign
            signs_ok &= np.sign(predicted.real) == expected_sign
        details.append(f"k{order}: {amp_errs[-1]:.2e}")

    passed = max(amp_errs) < 0.02 and bracket_ok and bool(signs_ok)
    report(
        "criterion 7 (linear-response cumulants)",
        passed,
        f"amplitude errors {', '.join(details)} (tol 2e-2); k=2 bracket "
        f"{bracket2:.4f} vs -8.0416; phase signs (k3 in phase, k2/k4 out) {bool(signs_ok)}",
    )


def test_criterion_8_jet_vs_finite_difference():
    params = SystemParams(omega_bar=1.0, gamma=0.1, T_e=4.0)
    drive = harmonic(0.6)
    grid = SimulationGrid(0.0, 2 * TAU, n_samples=21)  # 20 sampled times past the reset
    jets = counting.cumulant_trajectories(4, params, drive, grid)

    h = 1e-3
    stencil = np.array([-3, -2, -1, 1, 2, 3]) * h
    epoch, n0 = counting.counting_epoch(params, drive, grid)
    run = counting.evolve_counting(
        stencil, params, drive, (epoch, epoch + 2 * TAU), n0,
        t_eval=epoch + jets.t[1:], rtol=1e-12, atol=1e-14,
    )
    c = run.cgf.real
    m3, m2, m1, p1, p2, p3 = (c[:, i] for i in range(6))
    fd = {
        1: (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h),
        2: (-p2 + 16 * p1 + 16 * m1 - m2) / (12 * h * h),
        3: (m3 - 8 * m2 + 13 * m1 - 13 * p1 + 8 * p2 - p3) / (8 * h**3),
        4: (-m3 + 12 * m2 - 39 * m1 - 39 * p1 + 12 * p2 - p3) / (6 * h**4),
    }
    rel = {
        k: float(np.max(np.abs(fd[k] - jets.cumulants[1:, k - 1])) / np.max(np.abs(jets.cumulants[1:, k - 1])))
        for k in fd
    }
    report(
        "criterion 8 (jets vs finite differences)",
        max(rel.values()) < 1e-4,
        "relative errors " + ", ".join(f"k{k}: {v:.2e}" for k, v in rel.items()) + " (tol 1e-4)",
    )


def test_criterion_9_distribution_shape_at_variance_peak():
    params = SystemParams(omega_bar=1.0, gamma=0.1, T_e=4.0)
    drive = harmonic(0.6)
    grid = SimulationGrid(0.0, 4 * TAU, n_samples=2001)
    jets = counting.cumulant_trajectories(4, params, drive, grid)
    late = jets.t >= 2 * TAU
    idx = np.flatnonzero(late)[np.argmax(jets.cumulants[late, 1])]
    t_star = float(jets.t[idx])
    c2_eq = equilibrium_cumulants(params.x, 2)[1]
    wide = jets.cumulants[idx, 1] > c2_eq

    dist = counting.distribution(t_star, 200, params, drive, grid)
    mu3 = dist.central_moment(3)
    excess = dist.central_moment(4) - 3.0 * dist.variance() ** 2
    left_skewed = mu3 < 0.0
    kurtosis_sign_matches = np.sign(excess) == np.sign(jets.cumulants[idx, 3]) and excess > 0.0
    report(
        "criterion 9 (wide, left-skewed, heavy-tailed at the variance peak)",
        bool(wide and left_skewed and kurtosis_sign_matches),
        f"t* = {t_star:.2f}: c2 = {jets.cumulants[idx, 1]:.2f} > eq {c2_eq:.2f}; "
        f"third central moment {mu3:.1f} < 0; excess kurtosis {excess:.1f} matches "
        f"fourth cumulant sign ({jets.cumulants[idx, 3]:.1f})",
    )


def test_supporting_identity_shifted_occupation_stationarity():
    # support for the counting criteria: the closed-form shifted occupation
    # zeroes the counting pair's occupation equation on the documented grid
    worst = 0.0
    for x in (0.25, 1.0, 2.0):
        n_b = equilibrium_occupation_s(0.0, x)
        for s in (-0.5, -0.1, 0.1, 0.5):
            if s <= -x:
                continue
            n_s = equilibrium_occupation_s(s, x)
            residual = (
                math.expm1(s) * n_s**2 * (1.0 + n_b)
                + math.expm1(-s) * n_b * (1.0 + n_s) ** 2
                + (n_b - n_s)
            )
            worst = max(worst, abs(residual))
    report(
        "supporting identity (shifted-occupation stationarity)",
        worst < 1e-12,
        f"max residual {worst:.2e} (tol 1e-12)",
    )
