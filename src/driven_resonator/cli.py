"""Command-line front end.

Each subcommand loads a JSON configuration (or a built-in default that
mirrors a standard parameter set), runs the corresponding computation, and
writes CSV data files plus a JSON run manifest into the output directory.
The manifest's ``diagnostics`` object records numerical health (for the
periodic-state subcommands the periodicity certificate, the epoch, the
occupancy quadrature's sample certificate and the largest first-law
residual; the window, its tail bound, the counting-field grid, its
aliasing bound and the mass defect of ``distribution``);
it never enters the data files.

The tool is fully deterministic: it uses no random numbers anywhere, and
identical configurations produce byte-identical data files (floats are
written with 17 significant digits, '.' decimal separator, and LF line
endings).

Exit status: 0 on success; 2 for configuration/usage errors; 3 for
numerical failures. Errors, command-line usage errors included, are
reported as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, counting, dynamics, linear_response, verify
from .counting import CountingOverflowError, DistributionError
from .dynamics import PeriodicConvergenceError
from .fock_oracle import TruncationError
from .model import (
    Config,
    ConfigError,
    DriveError,
    DriveWaveform,
    SimulationGrid,
    SystemParams,
    config_to_dict,
    load_config,
)
from .stepping import IntegrationError

TAU_DEFAULT = 2.0 * math.pi / 0.1  # drive period for a 0.1*omega_bar modulation frequency

THERMO_UNITS = (
    "t [1/omega_bar], omega0 [omega_bar], n [-], T [hbar*omega_bar/k_B], "
    "U [hbar*omega_bar], P [hbar*omega_bar^2], J [hbar*omega_bar^2]"
)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


# rows formatted together; bounds the writer's memory
CSV_BLOCK_ROWS = 1024
# printf format by numpy dtype kind; other kinds are formatted by _fmt as %s
_PRINTF = {"f": "%.17g", "i": "%d", "u": "%d"}


def _cells(col: np.ndarray) -> list:
    """The column's cells for its printf format, converted in one pass."""
    return col.tolist() if col.dtype.kind in _PRINTF else [_fmt(v) for v in col.tolist()]


def write_csv(path: Path, units_comment: str, names: list[str], columns: list[np.ndarray]) -> None:
    columns = [np.asarray(col) for col in columns]
    rows = len(columns[0])
    for col in columns:
        if len(col) != rows:
            raise ValueError("CSV columns must have equal length")
    row = ",".join(_PRINTF.get(col.dtype.kind, "%s") for col in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {units_comment}\n")
        fh.write(",".join(names) + "\n")
        # one template per block of rows, filled with every cell in row order
        for lo in range(0, rows, CSV_BLOCK_ROWS):
            cells = [_cells(col[lo : lo + CSV_BLOCK_ROWS]) for col in columns]
            fh.write((row * len(cells[0])) % tuple(itertools.chain.from_iterable(zip(*cells))))


def config_hash(config: Config) -> str:
    doc = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def write_manifest(
    outdir: Path, subcommand: str, config: Config, outputs: list[str], t0: float, diagnostics: dict
) -> None:
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "config": config_to_dict(config),
        "config_sha256": config_hash(config),
        "duration_seconds": time.monotonic() - t0,
        "outputs": outputs,
        "diagnostics": diagnostics,
    }
    path = outdir / f"{subcommand.replace('-', '_')}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _default_config(subcommand: str) -> Config:
    """Built-in parameter sets; each mirrors a standard plotting setup."""
    if subcommand in ("temperature", "thermo"):
        amp = 0.1 if subcommand == "temperature" else 0.7
        return Config(
            system=SystemParams(omega_bar=1.0, gamma=0.05, T_e=1.5),
            drive=DriveWaveform(kind="square", omega_bar=1.0, amplitude=amp, period=TAU_DEFAULT),
            grid=SimulationGrid(t_start=0.0, t_end=3.0 * TAU_DEFAULT, n_samples=3001),
        )
    if subcommand == "linear-response":
        return Config(
            system=SystemParams(omega_bar=1.0, gamma=0.1, T_e=1.5),
            drive=DriveWaveform(kind="harmonic", omega_bar=1.0, amplitude=0.1, period=TAU_DEFAULT),
            grid=SimulationGrid(t_start=0.0, t_end=2.0 * TAU_DEFAULT, n_samples=2001),
        )
    if subcommand == "cumulants":
        return Config(
            system=SystemParams(omega_bar=1.0, gamma=0.1, T_e=4.0),
            drive=DriveWaveform(kind="harmonic", omega_bar=1.0, amplitude=0.6, period=TAU_DEFAULT),
            grid=SimulationGrid(t_start=0.0, t_end=4.0 * TAU_DEFAULT, n_samples=4001),
        )
    if subcommand in ("lr-cumulants",):
        return Config(
            system=SystemParams(omega_bar=1.0, gamma=0.1, T_e=4.0),
            drive=DriveWaveform(kind="harmonic", omega_bar=1.0, amplitude=0.01, period=TAU_DEFAULT),
            grid=SimulationGrid(t_start=0.0, t_end=6.0 * TAU_DEFAULT, n_samples=6001),
        )
    if subcommand == "distribution":
        return Config(
            system=SystemParams(omega_bar=1.0, gamma=0.1, T_e=4.0),
            drive=DriveWaveform(kind="harmonic", omega_bar=1.0, amplitude=0.6, period=TAU_DEFAULT),
            grid=SimulationGrid(t_start=0.0, t_end=4.0 * TAU_DEFAULT, n_samples=2001),
        )
    if subcommand == "verify-oracle":
        # the driven cross-method case of the battery; the identity checks
        # in the battery run on their own fixed cases regardless
        return Config(
            system=SystemParams(omega_bar=1.0, gamma=0.1, T_e=1.0),
            drive=DriveWaveform(kind="harmonic", omega_bar=1.0, amplitude=0.3, period=TAU_DEFAULT),
            grid=SimulationGrid(t_start=0.0, t_end=TAU_DEFAULT, n_samples=2),
        )
    raise ConfigError(f"no default configuration for {subcommand!r}")


def _thermo_columns(traj: dynamics.ThermoTrajectory, t_offset: float = 0.0):
    names = ["t", "omega0", "n", "T", "U", "P", "J"]
    cols = [traj.t - t_offset, traj.omega0, traj.n, traj.T, traj.U, traj.P, traj.J]
    return names, cols


def _write_thermo(outdir: Path, stem: str, traj: dynamics.ThermoTrajectory, t_offset: float) -> list[str]:
    names, cols = _thermo_columns(traj, t_offset)
    write_csv(outdir / f"{stem}.csv", THERMO_UNITS, names, cols)
    write_csv(
        outdir / f"{stem}_impulses.csv",
        "t [1/omega_bar], W [hbar*omega_bar]",
        ["t", "W"],
        [traj.impulse_times - t_offset, traj.impulse_works],
    )
    return [f"{stem}.csv", f"{stem}_impulses.csv"]


def _periodic_thermo(config: Config) -> tuple[dynamics.ThermoTrajectory, dict]:
    """Thermo trajectory over the grid's span in the periodic state, from its
    epoch, and the run's numerical health."""
    params, drive, grid = config.system, config.drive, config.grid
    state = dynamics.relax_to_periodic(params, drive, grid)
    # an aperiodic drive's periodic state already starts at grid.t_start
    window = grid
    if drive.is_periodic:
        window = SimulationGrid(state.epoch, state.epoch + (grid.t_end - grid.t_start), grid.n_samples)
    occ = dynamics.occupancy_trajectory(params, drive, window, state.start_occupation)
    traj = dynamics.thermo_observables(occ, drive, params)
    diagnostics = {
        "periodicity_certificate": state.certificate,
        "epoch": state.epoch,
        "sample_certificate": occ.certificate,
        "first_law_residual": float(np.max(np.abs(traj.first_law_residual()))),
    }
    return traj, diagnostics


def _thermo_kinds(config: Config, outdir: Path, stems: dict[str, str]) -> tuple[list[str], dict]:
    """Periodic-state thermo CSVs per drive kind (kind -> file stem); other
    kinds than the configured one reuse its amplitude, period and phase."""
    outputs: list[str] = []
    diagnostics: dict = {}
    base = config.drive
    for kind, stem in stems.items():
        drive = base if kind == base.kind else DriveWaveform(
            kind=kind,
            omega_bar=base.omega_bar,
            amplitude=base.amplitude,
            period=base.period,
            phase=base.phase,
        )
        traj, diagnostics[kind] = _periodic_thermo(Config(system=config.system, drive=drive, grid=config.grid))
        outputs += _write_thermo(outdir, stem, traj, diagnostics[kind]["epoch"])
    return outputs, diagnostics


def cmd_temperature(config: Config, outdir: Path, args) -> tuple[list[str], dict]:
    kind = config.drive.kind
    outputs, diagnostics = _thermo_kinds(config, outdir, {kind: "temperature"})
    return outputs, diagnostics[kind]


def cmd_thermo(config: Config, outdir: Path, args) -> tuple[list[str], dict]:
    base = config.drive
    if base.kind == "constant":
        raise ConfigError(f"thermo needs a periodic or tabulated drive, not {base.kind!r}")
    kinds = (base.kind,) if base.kind == "tabulated" else ("square", "sawtooth", "harmonic")
    return _thermo_kinds(config, outdir, {kind: f"thermo_{kind}" for kind in kinds})


def cmd_linear_response(config: Config, outdir: Path, args) -> tuple[list[str], dict]:
    params, drive = config.system, config.drive
    if not drive.is_periodic:
        raise ConfigError("linear-response needs a periodic drive")
    outputs = []
    omega_mod = drive.angular_frequency
    responses = {
        "T": linear_response.temp_response(omega_mod, params),
        "P": linear_response.power_response(omega_mod, params),
        "J": linear_response.heat_response(omega_mod, params),
    }
    traj, diagnostics = _periodic_thermo(config)
    epoch = diagnostics["epoch"]
    phase_arg = omega_mod * traj.t + drive.phase
    baselines = {"T": params.T_e, "P": 0.0, "J": 0.0}
    lr_cols = {
        key: baselines[key] + np.imag(resp * drive.amplitude * np.exp(1j * phase_arg))
        for key, resp in responses.items()
    }
    write_csv(
        outdir / "linear_response_timeseries.csv",
        THERMO_UNITS + "; *_lr are small-signal predictions",
        ["t", "omega0", "T", "P", "J", "T_lr", "P_lr", "J_lr"],
        [traj.t - epoch, traj.omega0, traj.T, traj.P, traj.J, lr_cols["T"], lr_cols["P"], lr_cols["J"]],
    )
    outputs.append("linear_response_timeseries.csv")

    sweep = np.linspace(0.0, 10.0 * params.gamma, 201)
    table = {
        "temperature": linear_response.temp_response(sweep, params),
        "power": linear_response.power_response(sweep, params),
        "heat": linear_response.heat_response(sweep, params),
    }
    for kind, values in table.items():
        name = f"response_{kind}.csv"
        write_csv(
            outdir / name,
            "Omega [omega_bar]; response per unit drive amplitude",
            ["Omega", "Re", "Im", "modulus", "argument"],
            [sweep, values.real, values.imag, np.abs(values), np.angle(values)],
        )
        outputs.append(name)
    return outputs, diagnostics


def cmd_cumulants(config: Config, outdir: Path, args) -> tuple[list[str], dict]:
    order = args.order
    jets = counting.cumulant_trajectories(order, config.system, config.drive, config.grid)
    names = ["t"] + [f"c{k}" for k in range(1, order + 1)]
    cols = [jets.t] + [jets.cumulants[:, k] for k in range(order)]
    write_csv(
        outdir / "cumulants.csv",
        "t [1/omega_bar] since counting reset; ck = k-th cumulant of net transfers",
        names,
        cols,
    )
    return ["cumulants.csv"], {}


def cmd_lr_cumulants(config: Config, outdir: Path, args) -> tuple[list[str], dict]:
    params, drive = config.system, config.drive
    if not drive.is_periodic:
        raise ConfigError("lr-cumulants needs a periodic drive")
    order = args.order
    jets = counting.cumulant_trajectories(order, params, drive, config.grid)
    omega_mod = drive.angular_frequency
    phase_arg = omega_mod * (jets.t + jets.epoch) + drive.phase
    modulation = drive.amplitude * np.sin(phase_arg)
    names = ["t", "domega0"]
    cols = [jets.t, modulation]
    eq = linear_response.equilibrium_cumulants(params.x, order)
    for k in range(1, order + 1):
        names.append(f"c{k}")
        cols.append(jets.cumulants[:, k - 1])
    for k in range(1, order + 1):
        resp = linear_response.lr_cumulant_response(k, omega_mod, params)
        names.append(f"c{k}_lr")
        cols.append(eq[k - 1] + np.imag(resp * drive.amplitude * np.exp(1j * phase_arg)))
    write_csv(
        outdir / "lr_cumulants.csv",
        "t [1/omega_bar] since counting reset; ck accumulated, ck_lr = equilibrium value "
        "plus small-signal modulation",
        names,
        cols,
    )
    return ["lr_cumulants.csv"], {}


def _auto_distribution_time(config: Config) -> tuple[float, SimulationGrid, float]:
    """Default counting time: maximal variance in the third/fourth period.

    Also returns the four-period grid from the periodic state's epoch and the
    occupation there, so that the distribution reuses that one solve.
    """
    params, drive = config.system, config.drive
    if not drive.is_periodic:
        raise ConfigError(
            f"the automatic counting time needs a periodic drive, not {drive.kind!r}; "
            "pass --at-time"
        )
    epoch, n0 = counting.counting_epoch(params, drive, config.grid)
    tau = drive.period
    grid = SimulationGrid(t_start=epoch, t_end=epoch + 4.0 * tau, n_samples=2001)
    jets = counting.cumulant_trajectories(2, params, drive, grid, n_init=n0)
    sel = jets.t >= 2.0 * tau
    idx = np.argmax(jets.cumulants[sel, 1])
    return float(jets.t[sel][idx]), grid, n0


def cmd_distribution(config: Config, outdir: Path, args) -> tuple[list[str], dict]:
    t_count, grid, n0 = args.at_time, config.grid, None
    if t_count is not None and not math.isfinite(t_count):
        raise ConfigError(f"--at-time must be finite, not {t_count!r}")
    if t_count is None:
        t_count, grid, n0 = _auto_distribution_time(config)
    if t_count == 0.0:
        write_csv(
            outdir / "distribution.csv",
            "m [-], p [-]; zero-duration counting",
            ["m", "p"],
            [np.array([0]), np.array([1.0])],
        )
        return ["distribution.csv"], {}
    if t_count < 0.0:
        raise ValueError("t_count must be non-negative")
    t0, n0 = counting.counting_epoch(config.system, config.drive, grid, n0)
    window = SimulationGrid(t_start=t0, t_end=t0 + t_count, n_samples=2)
    n1 = float(dynamics.occupancy_trajectory(config.system, config.drive, window, n0).n[-1])
    m_max = counting.automatic_window(n0, n1) if args.m_max is None else args.m_max
    dist = counting.distribution(t_count, m_max, config.system, config.drive, window, n_init=n0)
    write_csv(
        outdir / "distribution.csv",
        f"m [-], p [-] after counting for t = {_fmt(t_count)} [1/omega_bar]",
        ["m", "p"],
        [dist.m, dist.p],
    )
    write_csv(
        outdir / "distribution_equilibrium.csv",
        "m [-], p_eq [-]: saturated undriven distribution for comparison",
        ["m", "p_eq"],
        [dist.m, counting.equilibrium_distribution(config.system.x, dist.m)],
    )
    n_theta = counting.theta_grid_size(m_max)
    diagnostics = {
        "m_max": m_max,
        "window_tail_bound": counting.window_tail_bound(n0, n1, m_max),
        "theta_grid": n_theta,
        "alias_bound": counting.window_tail_bound(n0, n1, n_theta - m_max - 1),
        "mass_defect": 1.0 - float(dist.p.sum()),
    }
    return ["distribution.csv", "distribution_equilibrium.csv"], diagnostics


def cmd_verify_oracle(config: Config, outdir: Path, args) -> tuple[list[str], dict]:
    outcomes = verify.run_verification(params=config.system, drive=config.drive)
    width = max(len(o.name) for o in outcomes)
    failures = 0
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        failures += 0 if o.passed else 1
        print(f"[{status}] {o.name:<{width}}  value={o.value:.3e}  threshold={o.threshold:.1e}")
    write_csv(
        outdir / "verify_oracle.csv",
        "cross-method verification distances",
        ["name", "value", "threshold", "passed"],
        [
            np.array([o.name for o in outcomes], dtype=object),
            np.array([o.value for o in outcomes]),
            np.array([o.threshold for o in outcomes]),
            np.array([int(o.passed) for o in outcomes]),
        ],
    )
    if failures:
        raise RuntimeError(f"{failures} verification check(s) failed")
    return ["verify_oracle.csv"], {}


COMMANDS = {
    "temperature": cmd_temperature,
    "thermo": cmd_thermo,
    "linear-response": cmd_linear_response,
    "cumulants": cmd_cumulants,
    "lr-cumulants": cmd_lr_cumulants,
    "distribution": cmd_distribution,
    "verify-oracle": cmd_verify_oracle,
}


class _UsageError(Exception):
    """A malformed command line."""


class _Parser(argparse.ArgumentParser):
    # argparse prints usage text and exits on a bad command line; raise
    # instead, so that main reports it as a JSON error like any other
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="driven-resonator",
        description="Thermodynamics and photon counting statistics of a "
        "frequency-modulated quantum resonator.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} computation")
        p.add_argument("--params", type=Path, default=None, help="JSON configuration file")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        if name in ("cumulants", "lr-cumulants"):
            p.add_argument("--order", type=int, default=4, help="highest cumulant order")
        if name == "distribution":
            p.add_argument("--at-time", type=float, default=None, help="counting duration")
            p.add_argument("--m-max", type=int, default=None, help="m window (default: automatic)")
    return parser


def _error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")
    return code


def _attach_at_time(argv: list[str]) -> list[str]:
    """``--at-time V`` as ``--at-time=V``: argparse takes a separate word
    such as -inf or -1e3 for an option, not for the option's value."""
    out = []
    words = iter(argv)
    for word in words:
        value = next(words, None) if word == "--at-time" else None
        out.append(word if value is None else f"{word}={value}")
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_attach_at_time(sys.argv[1:] if argv is None else argv))
    except _UsageError as exc:
        return _error("usage", str(exc), 2)
    t0 = time.monotonic()
    try:
        config = load_config(args.params) if args.params else _default_config(args.subcommand)
        outdir = args.out
        outdir.mkdir(parents=True, exist_ok=True)
        outputs, diagnostics = COMMANDS[args.subcommand](config, outdir, args)
        write_manifest(outdir, args.subcommand, config, outputs, t0, diagnostics)
    except (ConfigError, DriveError, ValueError) as exc:
        return _error("config", str(exc), 2)
    except (
        IntegrationError,
        PeriodicConvergenceError,
        CountingOverflowError,
        DistributionError,
        TruncationError,
        RuntimeError,
    ) as exc:
        return _error("numerical", str(exc), 3)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
