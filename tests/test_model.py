import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driven_resonator.model import (
    DRIVE_KINDS,
    ConfigError,
    DriveError,
    DriveWaveform,
    SimulationGrid,
    SystemParams,
    bose_einstein,
    config_from_dict,
    config_to_dict,
)

TAU = 2.0 * math.pi / 0.1


# -- Bose-Einstein occupation -------------------------------------------------


def test_bose_einstein_reference_value():
    # direct evaluation at x = 1/4: 1/(e^0.25 - 1)
    assert bose_einstein(1.0, 4.0) == pytest.approx(3.520812, abs=5e-7)


def test_bose_einstein_low_temperature_limit():
    assert bose_einstein(1.0, 0.005) < 1e-80


def test_bose_einstein_unit_occupation():
    assert bose_einstein(1.0, 1.0 / math.log(2.0)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("omega,T", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_bose_einstein_domain_errors(omega, T):
    with pytest.raises(ValueError):
        bose_einstein(omega, T)


@given(
    omega=st.floats(0.05, 20.0),
    T=st.floats(0.05, 50.0),
)
@settings(max_examples=100, deadline=None)
def test_detailed_balance_identity(omega, T):
    n = bose_einstein(omega, T)
    assert n > 0.0
    assert n / (1.0 + n) == pytest.approx(math.exp(-omega / T), rel=1e-13)


def test_bose_einstein_monotonicity():
    omegas = np.linspace(0.2, 3.0, 40)
    n = bose_einstein(omegas, 1.5)
    assert np.all(np.diff(n) < 0.0)
    temps = np.linspace(0.2, 8.0, 40)
    n_t = np.array([bose_einstein(1.0, T) for T in temps])
    assert np.all(np.diff(n_t) > 0.0)


# -- parameter validation -----------------------------------------------------


def test_params_validation():
    with pytest.raises(ConfigError):
        SystemParams(omega_bar=0.0)
    with pytest.raises(ConfigError):
        SystemParams(gamma=-0.1)
    with pytest.raises(ConfigError):
        SystemParams(T_e=0.0)


NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "build, error",
    [
        (lambda v: SystemParams(omega_bar=v), ConfigError),
        (lambda v: SystemParams(gamma=v), ConfigError),
        (lambda v: SystemParams(T_e=v), ConfigError),
        (lambda v: DriveWaveform(kind="harmonic", omega_bar=v, amplitude=0.1, period=TAU), DriveError),
        (lambda v: DriveWaveform(kind="harmonic", omega_bar=1.0, amplitude=v, period=TAU), DriveError),
        (lambda v: DriveWaveform(kind="harmonic", omega_bar=1.0, amplitude=0.1, period=v), DriveError),
        (lambda v: DriveWaveform(kind="square", omega_bar=1.0, amplitude=0.1, period=TAU, phase=v), DriveError),
        (lambda v: DriveWaveform(kind="tabulated", omega_bar=1.0, knots=((0.0, 1.0), (v, 1.2))), DriveError),
        (lambda v: SimulationGrid(t_start=v, t_end=1.0), ConfigError),
        (lambda v: SimulationGrid(t_start=0.0, t_end=v), ConfigError),
    ],
    ids=["omega_bar", "gamma", "T_e", "drive.omega_bar", "amplitude", "period", "phase", "knots",
         "t_start", "t_end"],
)
def test_constructors_reject_non_finite_values(build, error, value):
    with pytest.raises(error, match="finite"):
        build(value)


def test_weak_coupling_advisory_warns_but_accepts():
    with pytest.warns(UserWarning):
        p = SystemParams(omega_bar=1.0, gamma=1.5, T_e=1.0)
    assert p.gamma == 1.5


# -- drive evaluation ----------------------------------------------------------


def test_harmonic_drive_matches_sine():
    d = DriveWaveform(kind="harmonic", omega_bar=1.0, amplitude=0.1, period=TAU)
    assert d.omega(0.0) == pytest.approx(1.0, abs=1e-15)
    t = np.linspace(0.0, 2 * TAU, 101)
    assert np.allclose(d.omega(t), 1.0 + 0.1 * np.sin(0.1 * t), atol=1e-14)


def test_constant_drive_identity():
    d = DriveWaveform(kind="constant", omega_bar=1.0)
    assert d.omega(123.4) == 1.0


def test_square_quarter_period_values():
    d = DriveWaveform(kind="square", omega_bar=1.0, amplitude=0.7, period=TAU)
    vals = [d.omega(t) for t in (TAU / 4, 3 * TAU / 4, 5 * TAU / 4)]
    assert vals == pytest.approx([1.7, 0.3, 1.7])


def test_square_right_continuity_at_jump():
    d = DriveWaveform(kind="square", omega_bar=1.0, amplitude=0.7, period=TAU)
    tj = d.jump_times(0.0, TAU)[1]
    assert d.omega(tj) == pytest.approx(0.3)
    assert d.omega(tj, side=-1) == pytest.approx(1.7)


def test_square_discontinuities_per_period():
    d = DriveWaveform(kind="square", omega_bar=1.0, amplitude=0.7, period=TAU)
    jumps = d.jump_times(0.0, TAU)
    assert jumps == pytest.approx([0.0, TAU / 2])


def test_sawtooth_discontinuities_are_resets():
    d = DriveWaveform(kind="sawtooth", omega_bar=1.0, amplitude=0.7, period=TAU)
    jumps = d.jump_times(0.0, 2 * TAU)
    assert jumps == pytest.approx([0.0, TAU])
    before, after = d.jump_values(TAU)
    assert before == pytest.approx(1.7)
    assert after == pytest.approx(0.3)


def test_smooth_drives_have_no_discontinuities():
    for kind in ("constant", "harmonic"):
        d = DriveWaveform(
            kind=kind,
            omega_bar=1.0,
            amplitude=0.0 if kind == "constant" else 0.3,
            period=TAU,
        )
        assert d.jump_times(0.0, 5 * TAU).size == 0


@pytest.mark.parametrize("kind", ["square", "sawtooth", "harmonic"])
def test_zero_mean_modulation(kind):
    d = DriveWaveform(kind=kind, omega_bar=1.0, amplitude=0.7, period=TAU, phase=0.3)
    # midpoint rule over whole periods, anchored at a jump edge so each cell
    # is smooth: exact for the piecewise-linear kinds, spectral for harmonic
    jumps = d.jump_times(0.0, TAU)
    origin = jumps[0] if jumps.size else 0.0
    n = 4096
    t = origin + (np.arange(n) + 0.5) * (2 * TAU / n)
    assert np.mean(d.omega(t)) == pytest.approx(1.0, abs=1e-9)


def test_drive_positivity_guard():
    with pytest.raises(DriveError):
        DriveWaveform(kind="square", omega_bar=1.0, amplitude=1.0, period=TAU)
    with pytest.raises(DriveError):
        DriveWaveform(kind="harmonic", omega_bar=1.0, amplitude=1.2, period=TAU)


def test_tabulated_interpolation_and_slopes():
    d = DriveWaveform(
        kind="tabulated", omega_bar=1.0, knots=((0.0, 1.0), (1.0, 2.0), (3.0, 1.0))
    )
    assert d.omega(0.5) == pytest.approx(1.5)
    assert d.omega(2.0) == pytest.approx(1.5)
    assert d.slope(0.5) == pytest.approx(1.0)
    assert d.slope(2.0) == pytest.approx(-0.5)
    # knots are slope breaks, not value jumps
    assert d.jump_times(0.0, 3.0).size == 0
    assert d.breakpoints(0.5, 3.0) == pytest.approx([1.0])
    with pytest.raises(DriveError):
        d.omega(3.5)


def test_tabulated_validation():
    with pytest.raises(DriveError):
        DriveWaveform(kind="tabulated", omega_bar=1.0, knots=((0.0, 1.0),))
    with pytest.raises(DriveError):
        DriveWaveform(kind="tabulated", omega_bar=1.0, knots=((0.0, 1.0), (0.0, 2.0)))
    with pytest.raises(DriveError):
        DriveWaveform(kind="tabulated", omega_bar=1.0, knots=((0.0, 1.0), (1.0, -2.0)))


@st.composite
def drives(draw):
    kind = draw(st.sampled_from(DRIVE_KINDS))
    if kind == "constant":
        return DriveWaveform(kind=kind, omega_bar=1.0)
    if kind == "tabulated":
        steps = draw(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=6))
        times = draw(st.floats(-50.0, 50.0)) + np.cumsum([0.0] + steps)
        freqs = draw(st.lists(st.floats(0.1, 3.0), min_size=times.size, max_size=times.size))
        return DriveWaveform(kind=kind, omega_bar=1.0, knots=tuple(zip(times, freqs)))
    return DriveWaveform(
        kind=kind,
        omega_bar=1.0,
        amplitude=draw(st.floats(-0.9, 0.9)),
        period=draw(st.floats(0.5, 200.0)),
        phase=draw(st.floats(-10.0, 10.0)),
    )


@given(drive=drives(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_float_time_gives_the_bits_of_the_array_evaluation(drive, data):
    if drive.kind == "tabulated":
        lo, hi = drive.knots[0][0], drive.knots[-1][0]
    else:
        span = drive.period if drive.is_periodic else 50.0
        lo, hi = -2.0 * span, 3.0 * span
    drawn = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=10))
    # exact jump edges and every knot, the last one included
    times = np.concatenate([drawn, drive.breakpoints(lo, hi), [hi]])
    for side in (+1, -1):
        for method in (drive.omega, drive.slope):
            values = method(times, side)
            assert isinstance(values, np.ndarray) and values.shape == times.shape
            for t, expected in zip(times, values):
                value = method(float(t), side)
                assert isinstance(value, float)
                assert np.float64(value).tobytes() == expected.tobytes(), (t, side, method)


def test_time_to_zero_is_lowest_frequency_over_fastest_rate():
    harmonic = DriveWaveform(kind="harmonic", omega_bar=1.0, amplitude=0.5, period=TAU)
    assert harmonic.time_to_zero == pytest.approx(0.5 / (0.5 * 2.0 * math.pi / TAU))
    sawtooth = DriveWaveform(kind="sawtooth", omega_bar=1.0, amplitude=-0.5, period=TAU)
    assert sawtooth.time_to_zero == pytest.approx(TAU / 2.0)
    tabulated = DriveWaveform(kind="tabulated", omega_bar=1.0, knots=((0.0, 1.0), (10.0, 0.5), (11.0, 0.6)))
    assert tabulated.time_to_zero == pytest.approx(0.5 / 0.1)
    for kind in ("constant", "square"):
        drive = DriveWaveform(kind=kind, omega_bar=1.0, amplitude=0.0 if kind == "constant" else 0.5,
                              period=TAU)
        assert drive.time_to_zero == math.inf


def test_phase_offset_shifts_square_edges():
    d = DriveWaveform(kind="square", omega_bar=1.0, amplitude=0.5, period=TAU, phase=np.pi / 2)
    jumps = d.jump_times(0.0, TAU)
    assert jumps == pytest.approx([TAU / 4, 3 * TAU / 4])


# -- grid and configuration ----------------------------------------------------


def test_grid_validation():
    with pytest.raises(ConfigError):
        SimulationGrid(t_start=1.0, t_end=1.0)
    with pytest.raises(ConfigError):
        SimulationGrid(n_samples=1)


def _doc(kind="harmonic", **drive_extra):
    return {
        "system": {"omega_bar": 1.0, "gamma": 0.1, "T_e": 1.5},
        "drive": {"kind": kind, "amplitude": 0.1, "period": TAU, "phase": 0.0, **drive_extra},
        "grid": {"t_start": 0.0, "t_end": 100.0, "n_samples": 201},
    }


def test_unknown_keys_are_hard_errors():
    bad = _doc()
    bad["extra"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(bad)
    bad = _doc()
    bad["system"]["hbar"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(bad)
    bad = _doc()
    bad["grid"]["steps"] = 10
    with pytest.raises(ConfigError):
        config_from_dict(bad)
    bad = _doc()
    bad["grid"]["relax_periods"] = 2  # read by nothing, so no longer accepted
    with pytest.raises(ConfigError):
        config_from_dict(bad)
    bad = _doc()
    bad["grid"]["dt_max"] = None  # the stepper's step is unbounded, so no longer accepted
    with pytest.raises(ConfigError, match="dt_max"):
        config_from_dict(bad)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("grid", "n_samples", 10.5),
        ("grid", "n_samples", "11"),
        ("grid", "n_samples", True),
        ("grid", "n_samples", None),
        ("system", "gamma", None),
        ("grid", "t_end", "abc"),
        ("drive", "amplitude", "0.1"),
        ("system", "T_e", math.inf),
        ("drive", "period", math.inf),
        ("drive", "phase", math.nan),
        ("system", "omega_bar", True),
        ("system", "gamma", 10**400),
    ],
)
def test_config_values_are_checked_where_they_enter(section, key, value):
    doc = _doc()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        config_from_dict(doc)


@pytest.mark.parametrize("knots", [None, [[0.0, 1.0], [math.nan, 1.2]], [[0.0, "1.0"], [1.0, 1.2]], [[0.0]], 3])
def test_tabulated_knots_are_checked_where_they_enter(knots):
    with pytest.raises(ConfigError, match="knots"):
        config_from_dict(_doc(kind="tabulated", knots=knots))


def test_readme_config_example_parses():
    # the documented configuration stays what the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        config_from_dict(json.loads(block))


def test_missing_section_is_an_error():
    doc = _doc()
    del doc["grid"]
    with pytest.raises(ConfigError):
        config_from_dict(doc)


@given(
    gamma=st.floats(0.0, 0.9),
    T_e=st.floats(0.1, 10.0),
    amplitude=st.floats(0.0, 0.9),
    period=st.floats(1.0, 200.0),
    phase=st.floats(-3.0, 3.0),
    n_samples=st.integers(2, 5000),
)
@settings(max_examples=60, deadline=None)
def test_config_roundtrip_is_exact(gamma, T_e, amplitude, period, phase, n_samples):
    doc = {
        "system": {"omega_bar": 1.0, "gamma": gamma, "T_e": T_e},
        "drive": {"kind": "harmonic", "amplitude": amplitude, "period": period, "phase": phase},
        "grid": {"t_start": 0.0, "t_end": period, "n_samples": n_samples},
    }
    config = config_from_dict(doc)
    echoed = json.loads(json.dumps(config_to_dict(config)))
    again = config_from_dict(echoed)
    assert again == config


def test_config_file_roundtrip(tmp_path):
    from driven_resonator.model import dump_config, load_config

    config = config_from_dict(_doc(kind="tabulated", knots=[[0.0, 1.0], [7.5, 1.25]]))
    path = tmp_path / "config.json"
    dump_config(config, path)
    assert load_config(path) == config
