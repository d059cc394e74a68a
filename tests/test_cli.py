import json
import math

import numpy as np
import pytest

from driven_resonator import cli, counting, dynamics
from driven_resonator.cli import COMMANDS, main, write_csv
from driven_resonator.model import config_from_dict

TAU = 2.0 * math.pi / 0.1


def fast_config(**overrides):
    doc = {
        "system": {"omega_bar": 1.0, "gamma": 0.2, "T_e": 1.5},
        "drive": {"kind": "harmonic", "amplitude": 0.1, "period": TAU, "phase": 0.0},
        "grid": {"t_start": 0.0, "t_end": TAU, "n_samples": 201},
    }
    for section, values in overrides.items():
        doc[section].update(values)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_temperature_oscillates_about_reservoir(tmp_path):
    cfg = write_config(tmp_path, fast_config())
    assert main(["temperature", "--params", str(cfg), "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "temperature.csv")
    assert header == ["t", "omega0", "n", "T", "U", "P", "J"]
    temps = np.array([float(r[3]) for r in rows])
    assert temps.max() > 1.5 > temps.min()
    assert abs(np.mean(temps) - 1.5) < 0.1
    manifest = json.loads((tmp_path / "temperature_manifest.json").read_text())
    assert manifest["outputs"] == ["temperature.csv", "temperature_impulses.csv"]


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, fast_config())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert main(["temperature", "--params", str(cfg), "--out", str(out)]) == 0
    for name in ("temperature.csv", "temperature_impulses.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_config_echo_reparses(tmp_path):
    doc = fast_config()
    cfg = write_config(tmp_path, doc)
    assert main(["temperature", "--params", str(cfg), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "temperature_manifest.json").read_text())
    assert config_from_dict(manifest["config"]) == config_from_dict(doc)
    assert manifest["config_sha256"]
    assert manifest["duration_seconds"] >= 0.0


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    doc = fast_config()
    doc["system"]["hbar"] = 1.0
    cfg = write_config(tmp_path, doc)
    code = main(["temperature", "--params", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["type"] == "config"
    assert "hbar" in report["error"]["message"]


def test_seedless_flag_is_reserved(tmp_path, capsys):
    code = main(["temperature", "--seedless", "--out", str(tmp_path)])
    assert code == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["type"] == "usage"


def test_zero_duration_distribution_single_row(tmp_path):
    cfg = write_config(tmp_path, fast_config(system={"T_e": 4.0}))
    code = main(
        ["distribution", "--params", str(cfg), "--out", str(tmp_path), "--at-time", "0", "--m-max", "8"]
    )
    assert code == 0
    header, rows = read_rows(tmp_path / "distribution.csv")
    assert header == ["m", "p"]
    assert len(rows) == 1
    assert rows[0] == ["0", "1"]


def test_distribution_sums_to_one(tmp_path):
    doc = fast_config(system={"T_e": 2.0, "gamma": 0.2}, drive={"amplitude": 0.2})
    cfg = write_config(tmp_path, doc)
    code = main(
        ["distribution", "--params", str(cfg), "--out", str(tmp_path),
         "--at-time", str(TAU), "--m-max", "60"]
    )
    assert code == 0
    header, rows = read_rows(tmp_path / "distribution.csv")
    assert header == ["m", "p"]
    p = np.array([float(r[1]) for r in rows])
    assert p.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.all(p >= 0.0)
    header, _ = read_rows(tmp_path / "distribution_equilibrium.csv")
    assert header == ["m", "p_eq"]


NON_FINITE = ["inf", "-inf", "nan", "-nan"]


@pytest.mark.parametrize(
    "words",
    [pytest.param([f"--at-time={v}"], id=v) for v in NON_FINITE]
    + [pytest.param(["--at-time", v], id=f"{v}-as-word") for v in NON_FINITE],
)
def test_non_finite_counting_time_is_a_config_error(tmp_path, capsys, words):
    code = main(["distribution", "--out", str(tmp_path), *words, "--m-max", "8"])
    assert code == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["type"] == "config"
    assert "--at-time" in report["error"]["message"]


def _cell(value) -> str:
    # the per-cell formatting write_csv must reproduce byte for byte
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


@pytest.mark.parametrize("block_rows", [None, 5], ids=["one-block", "blocks-of-5"])
def test_write_csv_matches_per_cell_formatting(tmp_path, monkeypatch, block_rows):
    if block_rows:
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    floats = np.array([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308,
                       0.1, 1.0 / 3.0, 1e16, 2.0 ** 0.5, -2.5e-308, 7.0])
    columns = [
        floats,
        np.arange(-6, 6, dtype=np.int64),  # an int64 m column
        np.array([f"check_{i}" for i in range(12)], dtype=object),  # verify_oracle.csv's name column
        np.array([int(i % 2) for i in range(12)]),  # ... and its passed column
        floats[::-1].copy(),
    ]
    names = ["x", "m", "name", "passed", "y"]
    path = tmp_path / "cells.csv"
    write_csv(path, "units", names, columns)
    rows = "".join(",".join(_cell(col[i]) for col in columns) + "\n" for i in range(12))
    assert path.read_bytes() == ("# units\n" + ",".join(names) + "\n" + rows).encode()


@pytest.mark.parametrize("subcommand", sorted(COMMANDS))
def test_every_subcommand_succeeds_at_its_defaults(tmp_path, subcommand):
    assert main([subcommand, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / f"{subcommand.replace('-', '_')}_manifest.json").read_text())
    if subcommand == "distribution":
        # the automatic window holds all but the bounded tail
        diag = manifest["diagnostics"]
        assert diag["window_tail_bound"] <= counting.WINDOW_TAIL
        assert abs(diag["mass_defect"]) <= counting.WINDOW_TAIL
        assert diag["theta_grid"] == counting.theta_grid_size(diag["m_max"])
        assert 0.0 < diag["alias_bound"] <= diag["window_tail_bound"] ** 2
        _, rows = read_rows(tmp_path / "distribution.csv")
        assert len(rows) == 2 * diag["m_max"] + 1


def test_user_window_keeps_the_hard_error(tmp_path, capsys):
    # the defaults' distribution does not fit |m| <= 120
    assert main(["distribution", "--out", str(tmp_path), "--m-max", "120"]) == 3
    report = json.loads(capsys.readouterr().err)
    assert "window probabilities sum to" in report["error"]["message"]


def test_cumulants_csv_columns(tmp_path):
    cfg = write_config(tmp_path, fast_config(system={"T_e": 4.0}))
    code = main(["cumulants", "--params", str(cfg), "--out", str(tmp_path), "--order", "3"])
    assert code == 0
    header, rows = read_rows(tmp_path / "cumulants.csv")
    assert header == ["t", "c1", "c2", "c3"]
    assert len(rows) == 201


def test_lr_cumulants_includes_predictions(tmp_path):
    cfg = write_config(tmp_path, fast_config(system={"T_e": 4.0, "gamma": 0.1},
                                             drive={"amplitude": 0.01}))
    code = main(["lr-cumulants", "--params", str(cfg), "--out", str(tmp_path), "--order", "2"])
    assert code == 0
    header, rows = read_rows(tmp_path / "lr_cumulants.csv")
    assert header == ["t", "domega0", "c1", "c2", "c1_lr", "c2_lr"]


def test_linear_response_outputs_tables(tmp_path):
    cfg = write_config(tmp_path, fast_config())
    code = main(["linear-response", "--params", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_rows(tmp_path / "response_heat.csv")
    assert header == ["Omega", "Re", "Im", "modulus", "argument"]
    header, _ = read_rows(tmp_path / "linear_response_timeseries.csv")
    assert header == ["t", "omega0", "T", "P", "J", "T_lr", "P_lr", "J_lr"]


def test_temperature_default_config(tmp_path):
    # built-in defaults: square drive, 10% modulation, reservoir at 1.5
    assert main(["temperature", "--out", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "temperature.csv")
    temps = np.array([float(r[3]) for r in rows])
    assert temps.max() > 1.5 > temps.min()


def test_thermo_emits_all_three_drives(tmp_path):
    doc = fast_config(system={"gamma": 0.2}, drive={"kind": "square", "amplitude": 0.5})
    cfg = write_config(tmp_path, doc)
    code = main(["thermo", "--params", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    for kind in ("square", "sawtooth", "harmonic"):
        assert (tmp_path / f"thermo_{kind}.csv").exists()
        assert (tmp_path / f"thermo_{kind}_impulses.csv").exists()
    _, rows = read_rows(tmp_path / "thermo_square_impulses.csv")
    assert len(rows) == 2  # two jump events in one period


def test_thermo_needs_a_periodic_or_tabulated_drive(tmp_path, capsys):
    doc = fast_config(drive={"kind": "constant", "amplitude": 0.0, "period": 0.0})
    cfg = write_config(tmp_path, doc)
    assert main(["thermo", "--params", str(cfg), "--out", str(tmp_path)]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"]["type"] == "config"
    assert "periodic or tabulated" in report["error"]["message"]
    assert "'constant'" in report["error"]["message"]


# knots at t = 40 and 80 lie inside the grid window [10, 110]; with 401
# samples (dt = 0.25) both sit on even sample indices
TABULATED_KNOTS = [[0.0, 1.0], [40.0, 1.3], [80.0, 0.8], [120.0, 1.0]]


@pytest.mark.parametrize("subcommand, stem", [("temperature", "temperature"),
                                              ("thermo", "thermo_tabulated")])
def test_tabulated_drive_closes_first_law(tmp_path, subcommand, stem):
    doc = fast_config(system={"gamma": 0.05},
                      drive={"kind": "tabulated", "amplitude": 0.0, "period": 0.0,
                             "knots": TABULATED_KNOTS},
                      grid={"t_start": 10.0, "t_end": 110.0, "n_samples": 401})
    cfg = write_config(tmp_path, doc)
    assert main([subcommand, "--params", str(cfg), "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / f"{stem}.csv")
    c = dict(zip(header, np.array(rows, dtype=float).T))
    assert c["t"][0] == 0.0 and c["t"][-1] == 100.0
    # Simpson's rule over sample pairs: dU = int (P + J) dt to O(dt^5), so the
    # residual is integrator noise. P is written as the right limit of the
    # slope, so the pair ending on each knot is skipped.
    f = c["P"] + c["J"]
    dt = c["t"][1] - c["t"][0]
    residual = c["U"][2::2] - c["U"][:-2:2] - dt / 3 * (f[:-2:2] + 4 * f[1::2] + f[2::2])
    ends_on_knot = np.isin(c["t"][2::2] + 10.0, [k[0] for k in TABULATED_KNOTS])
    assert np.max(np.abs(residual[~ends_on_knot])) < 1e-10 * np.max(np.abs(c["U"]))
    manifest = json.loads((tmp_path / f"{subcommand}_manifest.json").read_text())
    diag = manifest["diagnostics"] if subcommand == "temperature" else manifest["diagnostics"]["tabulated"]
    assert diag["epoch"] == 10.0


def test_manifests_report_periodicity_certificate(tmp_path):
    doc = fast_config()
    cfg = write_config(tmp_path, doc)
    tol = dynamics.PERIODICITY_TOL * config_from_dict(doc).system.n_thermal
    for subcommand in ("temperature", "thermo", "linear-response"):
        assert main([subcommand, "--params", str(cfg), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / f"{subcommand.replace('-', '_')}_manifest.json").read_text())
        diags = manifest["diagnostics"]
        if subcommand == "thermo":
            assert sorted(diags) == ["harmonic", "sawtooth", "square"]
            diags = list(diags.values())
        else:
            diags = [diags]
        for diag in diags:
            assert 0.0 <= diag["periodicity_certificate"] < tol
            assert diag["epoch"] == 0.0
            assert 0.0 <= diag["sample_certificate"] < dynamics.SAMPLE_TOL
            assert 0.0 <= diag["first_law_residual"] < 1e-12


@pytest.mark.parametrize("subcommand", ["temperature", "cumulants", "distribution"])
def test_cold_reservoir_certifies_the_periodic_state(tmp_path, subcommand):
    # n_thermal(omega_bar) is about e^-50 at T_e 0.02, far below the
    # occupations the drive reaches; the certificate is relative to n*
    doc = fast_config(system={"gamma": 0.05, "T_e": 0.02}, drive={"amplitude": 0.7})
    cfg = write_config(tmp_path, doc)
    assert main([subcommand, "--params", str(cfg), "--out", str(tmp_path)]) == 0


def test_automatic_counting_time_solves_the_periodic_state_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return dynamics.relax_to_periodic(*args, **kwargs)

    monkeypatch.setattr(counting, "relax_to_periodic", counted)
    doc = fast_config(system={"T_e": 1.0}, drive={"period": 10.0})
    cfg = write_config(tmp_path, doc)
    assert main(["distribution", "--params", str(cfg), "--out", str(tmp_path), "--m-max", "40"]) == 0
    assert len(calls) == 1


def test_automatic_counting_time_needs_a_periodic_drive(tmp_path, capsys):
    for kind, extra in [("constant", {"amplitude": 0.0, "period": 0.0}),
                        ("tabulated", {"amplitude": 0.0, "period": 0.0, "knots": TABULATED_KNOTS})]:
        doc = fast_config(drive={"kind": kind, **extra},
                          grid={"t_start": 10.0, "t_end": 110.0, "n_samples": 401})
        cfg = write_config(tmp_path, doc, name=f"{kind}.json")
        assert main(["distribution", "--params", str(cfg), "--out", str(tmp_path)]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["error"]["type"] == "config"
        assert "--at-time" in report["error"]["message"]


# -- contract matrix: every input exits 0, 2 or 3, never with a traceback -----

MATRIX_PERIOD = 10.0
MATRIX_DRIVES = {
    "constant": {"kind": "constant", "amplitude": 0.0, "period": 0.0},
    "square": {"kind": "square", "amplitude": 0.2, "period": MATRIX_PERIOD},
    "sawtooth": {"kind": "sawtooth", "amplitude": 0.2, "period": MATRIX_PERIOD, "phase": 0.4},
    "harmonic": {"kind": "harmonic", "amplitude": 0.2, "period": MATRIX_PERIOD},
    "tabulated": {"kind": "tabulated", "amplitude": 0.0, "period": 0.0,
                  "knots": [[0.0, 1.0], [5.0, 1.2], [12.0, 0.9], [20.0, 1.0]]},
}
MATRIX_ARGS = {
    "temperature": [],
    "thermo": [],
    "linear-response": [],
    "cumulants": ["--order", "3"],
    "lr-cumulants": ["--order", "2"],
    "distribution": ["--m-max", "40"],
}


def run_contract(argv, capsys):
    """Exit code of main(argv); a nonzero exit must come with a JSON error."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3)
    if code:
        report = json.loads(err)
        assert report["error"]["type"] in ("config", "usage", "numerical")
        assert report["error"]["message"]
    return code


@pytest.mark.parametrize("kind", sorted(MATRIX_DRIVES))
@pytest.mark.parametrize("subcommand", sorted(MATRIX_ARGS))
def test_cli_contract_matrix(tmp_path, capsys, subcommand, kind):
    doc = fast_config(system={"gamma": 0.3, "T_e": 1.0}, drive=MATRIX_DRIVES[kind],
                      grid={"t_end": 20.0, "n_samples": 41})
    cfg = write_config(tmp_path, doc)
    run_contract([subcommand, "--params", str(cfg), "--out", str(tmp_path), *MATRIX_ARGS[subcommand]],
                 capsys)


@pytest.mark.parametrize("argv", [["temperature", "--bogus"],
                                  ["cumulants", "--order", "two"],
                                  ["cumulants", "--order", "0"],
                                  ["lr-cumulants", "--order", "9"],
                                  ["no-such-subcommand"],
                                  ["verify-oracle", "--quick"]])
def test_bad_command_lines_fail_by_contract(tmp_path, capsys, argv):
    assert run_contract(argv + ["--out", str(tmp_path)], capsys) == 2


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out
