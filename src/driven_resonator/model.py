"""System parameters, drive waveforms, and simulation grids.

Natural units are used throughout the package: hbar = k_B = 1, and every
frequency, rate, temperature, and time is expressed relative to the undriven
resonator frequency ``omega_bar`` (typically set to 1). Temperatures are
therefore the dimensionless combination k_B T / (hbar omega_bar), times are in
units of 1/omega_bar, and energies in units of hbar*omega_bar.

All types here are immutable after construction and all functions are pure,
so everything in this module is safe to share across threads.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "ConfigError",
    "DriveError",
    "SystemParams",
    "DriveWaveform",
    "SimulationGrid",
    "Config",
    "bose_einstein",
    "bose_einstein_derivative",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "dump_config",
]

DRIVE_KINDS = ("constant", "square", "sawtooth", "harmonic", "tabulated")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


class DriveError(ValueError):
    """Raised when a drive waveform is invalid (e.g. omega_0(t) <= 0)."""


def bose_einstein(omega, T):
    """Equilibrium occupation 1/(exp(omega/T) - 1) of a mode at frequency omega.

    Strictly positive, strictly decreasing in omega and increasing in T.
    Raises ValueError if omega <= 0 or T <= 0.
    """
    omega = np.asarray(omega, dtype=float)
    T = np.asarray(T, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("bose_einstein requires omega > 0")
    if np.any(T <= 0.0):
        raise ValueError("bose_einstein requires T > 0")
    out = 1.0 / np.expm1(omega / T)
    return float(out) if out.ndim == 0 else out


def bose_einstein_derivative(omega, T):
    """Frequency derivative of the equilibrium occupation (negative)."""
    n = bose_einstein(omega, T)
    return -(n * (1.0 + n)) / np.asarray(T, dtype=float)


def _require_finite(obj, fields, error) -> None:
    for name in fields:
        if not math.isfinite(getattr(obj, name)):
            raise error(f"{name} must be finite, not {getattr(obj, name)!r}")


@dataclass(frozen=True)
class SystemParams:
    """Resonator and reservoir parameters.

    omega_bar : undriven resonator frequency (sets the unit scale)
    gamma     : coupling rate to the reservoir, in units of omega_bar
    T_e       : reservoir temperature as k_B T_e / (hbar omega_bar)
    """

    omega_bar: float = 1.0
    gamma: float = 0.1
    T_e: float = 1.5

    def __post_init__(self):
        _require_finite(self, ("omega_bar", "gamma", "T_e"), ConfigError)
        if not self.omega_bar > 0.0:
            raise ConfigError("omega_bar must be positive")
        if self.gamma < 0.0:
            raise ConfigError("gamma must be non-negative")
        if not self.T_e > 0.0:
            raise ConfigError("T_e must be positive")
        if self.gamma >= self.omega_bar:
            # weak-coupling master equation; advisory only, not a hard error
            warnings.warn(
                "gamma >= omega_bar: outside the weak-coupling regime the "
                "master equation becomes questionable",
                stacklevel=2,
            )

    @property
    def x(self) -> float:
        """Dimensionless inverse temperature hbar*omega_bar / (k_B T_e)."""
        return self.omega_bar / self.T_e

    @property
    def n_thermal(self) -> float:
        """Equilibrium occupation at the undriven frequency."""
        return bose_einstein(self.omega_bar, self.T_e)


@dataclass(frozen=True)
class DriveWaveform:
    """Time-dependent resonator frequency omega_0(t).

    kind      : one of "constant", "square", "sawtooth", "harmonic", "tabulated"
    omega_bar : baseline frequency about which the drive modulates
    amplitude : modulation amplitude (peak deviation from omega_bar)
    period    : modulation period tau; the angular drive frequency is 2*pi/tau
    phase     : phase offset in radians added to the cycle variable
    knots     : for "tabulated", ((t0, w0), (t1, w1), ...) with linear
                interpolation between knots; evaluation outside the knot
                range is an error

    Square and sawtooth drives jump at exactly computable times; the value at
    a jump time is the post-jump one (right-continuity). Tabulated knots are
    slope breaks, never value jumps.
    """

    kind: str
    omega_bar: float
    amplitude: float = 0.0
    period: float = 0.0
    phase: float = 0.0
    knots: tuple = ()

    def __post_init__(self):
        if self.kind not in DRIVE_KINDS:
            raise DriveError(f"unknown drive kind {self.kind!r}; expected one of {DRIVE_KINDS}")
        _require_finite(self, ("omega_bar", "amplitude", "period", "phase"), DriveError)
        if not self.omega_bar > 0.0:
            raise DriveError("omega_bar must be positive")
        if self.kind == "constant":
            if self.amplitude != 0.0:
                raise DriveError("constant drive must have amplitude 0")
        elif self.kind == "tabulated":
            knots = tuple((float(t), float(w)) for t, w in self.knots)
            object.__setattr__(self, "knots", knots)
            if len(knots) < 2:
                raise DriveError("tabulated drive needs at least two knots")
            if not all(math.isfinite(v) for knot in knots for v in knot):
                raise DriveError("tabulated knots must be finite")
            times = [t for t, _ in knots]
            if any(b <= a for a, b in zip(times, times[1:])):
                raise DriveError("tabulated knot times must be strictly increasing")
            if any(w <= 0.0 for _, w in knots):
                raise DriveError("tabulated frequencies must be positive")
        else:
            if not self.period > 0.0:
                raise DriveError(f"{self.kind} drive needs period > 0")
            if abs(self.amplitude) >= self.omega_bar:
                raise DriveError(
                    "drive amplitude must satisfy |amplitude| < omega_bar "
                    "so that omega_0(t) stays positive"
                )
        self._check_positive_on_grid()

    # -- evaluation ---------------------------------------------------------

    @property
    def angular_frequency(self) -> float:
        if self.period <= 0.0:
            raise DriveError(f"{self.kind} drive has no period")
        return 2.0 * math.pi / self.period

    @property
    def is_periodic(self) -> bool:
        return self.kind in ("square", "sawtooth", "harmonic")

    @property
    def phase_cycles(self) -> float:
        return self.phase / (2.0 * math.pi)

    @cached_property
    def time_to_zero(self) -> float:
        """min omega_0 / max |d omega_0 / dt|: omega_0 cannot fall to zero in less time.

        Infinite for drives that are constant between jumps (constant, square).
        """
        if self.kind == "tabulated":
            times, freqs = self._knot_arrays
            low, rate = freqs.min(), np.max(np.abs(np.diff(freqs) / np.diff(times)))
        elif self.kind == "harmonic":
            low, rate = self.omega_bar - abs(self.amplitude), abs(self.amplitude) * self.angular_frequency
        elif self.kind == "sawtooth":
            low, rate = self.omega_bar - abs(self.amplitude), 2.0 * abs(self.amplitude) / self.period
        else:
            return math.inf
        return float(low / rate) if rate > 0.0 else math.inf

    def omega(self, t, side: int = +1):
        """omega_0(t); side=-1 selects the left limit at a jump time.

        t is a float or an ndarray (not a list), and the result is of the same
        kind: a float (numpy float64) for a float, an array of t's shape for an
        array. Both go through the same formulas, so a time gives the same bits
        either way.
        """
        if self.kind == "constant":
            return self.omega_bar + np.zeros_like(t)
        if self.kind == "harmonic":
            return self.omega_bar + self.amplitude * np.sin(self.angular_frequency * t + self.phase)
        if self.kind == "square":
            k, _ = self._cycle(t, side, per_period=2)
            return self.omega_bar + np.where(k % 2 == 0, self.amplitude, -self.amplitude)
        if self.kind == "sawtooth":
            _, frac = self._cycle(t, side, per_period=1)
            return self.omega_bar + self.amplitude * (2.0 * frac - 1.0)
        return np.interp(t, *self._knots(t))

    def slope(self, t, side: int = +1):
        """d omega_0 / dt; side=-1 selects the left limit at a break time.

        Takes and returns a float or an ndarray, as omega does.
        """
        if self.kind == "harmonic":
            return self.amplitude * self.angular_frequency * np.cos(
                self.angular_frequency * t + self.phase
            )
        if self.kind == "tabulated":
            times, freqs = self._knots(t)
            seg = np.searchsorted(times, t, side="right" if side >= 0 else "left") - 1
            seg = np.clip(seg, 0, len(times) - 2)
            return (freqs[seg + 1] - freqs[seg]) / (times[seg + 1] - times[seg])
        rate = 2.0 * self.amplitude / self.period if self.kind == "sawtooth" else 0.0
        return rate + np.zeros_like(t)

    # -- discontinuity bookkeeping -------------------------------------------

    def jump_times(self, t_start: float, t_end: float) -> np.ndarray:
        """All value-jump times of omega_0 in the half-open span [t_start, t_end).

        Exact edge locations, no tolerance search; empty for smooth drives.
        """
        if t_end <= t_start:
            return np.empty(0)
        if self.kind == "square":
            return self._edges(t_start, t_end, per_period=2)
        if self.kind == "sawtooth":
            return self._edges(t_start, t_end, per_period=1)
        return np.empty(0)

    def breakpoints(self, t_start: float, t_end: float) -> np.ndarray:
        """Times in [t_start, t_end) where omega_0 or its slope is discontinuous.

        Superset of jump_times; tabulated knots appear here but not there.
        """
        if self.kind == "tabulated":
            times = self._knot_arrays[0]
            return times[(times >= t_start) & (times < t_end)]
        return self.jump_times(t_start, t_end)

    def jump_values(self, t_jump: float) -> tuple[float, float]:
        """(omega before, omega after) at a jump time."""
        return self.omega(t_jump, side=-1), self.omega(t_jump, side=+1)

    # -- internals ------------------------------------------------------------

    def _edge(self, j, per_period):
        # edge j sits at cycle coordinate j/per_period; j may be an array
        return (j / per_period - self.phase_cycles) * self.period

    def _edges(self, t_start, t_end, per_period):
        lo = math.floor(per_period * (t_start / self.period + self.phase_cycles)) - 1
        hi = math.ceil(per_period * (t_end / self.period + self.phase_cycles)) + 1
        edges = self._edge(np.arange(lo, hi + 1), per_period)
        return edges[(edges >= t_start) & (edges < t_end)]

    def _cycle(self, t, side, per_period):
        """(edge index, fraction of the way to the next edge) at time t.

        Edges sit at _edge(j, per_period). A t that hits an edge exactly is
        placed after it for side=+1 (fraction 0) and before it for side=-1
        (fraction 1), consistent with the edge times jump_times() advertises.
        """
        u = per_period * (t / self.period + self.phase_cycles)
        k = np.floor(u)
        frac = u - k
        if side >= 0:
            hit = t == self._edge(k + 1, per_period)
            return np.where(hit, k + 1, k), np.where(hit, 0.0, frac)
        hit = t == self._edge(k, per_period)
        return np.where(hit, k - 1, k), np.where(hit, 1.0, frac)

    @cached_property
    def _knot_arrays(self):
        """(knot times, knot frequencies) as arrays, built on first use."""
        return tuple(np.array(self.knots).T)

    def _knots(self, t):
        """(knot times, knot frequencies); DriveError if t leaves their range."""
        times, freqs = self._knot_arrays
        if np.any(t < times[0]) or np.any(t > times[-1]):
            raise DriveError("tabulated drive evaluated outside the knot range")
        return times, freqs

    def _check_positive_on_grid(self):
        # dense sweep plus all breakpoints; parametric kinds are also covered
        # exactly by the |amplitude| < omega_bar constructor check
        if self.kind == "tabulated":
            lo, hi = self.knots[0][0], self.knots[-1][0]
        elif self.kind == "constant":
            return
        else:
            lo, hi = 0.0, self.period
        grid = np.linspace(lo, hi, 1001)
        checkpoints = np.concatenate([grid, self.breakpoints(lo, hi), [hi]])
        vals = self.omega(np.sort(checkpoints))
        if np.any(vals <= 0.0):
            raise DriveError("omega_0(t) must stay positive over the drive")


@dataclass(frozen=True)
class SimulationGrid:
    """Integration window and output sampling.

    t_start, t_end : integration span, units of 1/omega_bar
    n_samples      : number of equally spaced output samples, >= 2
    """

    t_start: float = 0.0
    t_end: float = 100.0
    n_samples: int = 1001

    def __post_init__(self):
        _require_finite(self, ("t_start", "t_end"), ConfigError)
        if not self.t_end > self.t_start:
            raise ConfigError("grid requires t_end > t_start")
        if self.n_samples < 2:
            raise ConfigError("grid requires n_samples >= 2")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


@dataclass(frozen=True)
class Config:
    system: SystemParams
    drive: DriveWaveform
    grid: SimulationGrid


_SYSTEM_KEYS = {"omega_bar", "gamma", "T_e"}
_DRIVE_KEYS = {"kind", "amplitude", "period", "phase", "knots"}
_GRID_KEYS = {"t_start", "t_end", "n_samples"}


def _reject_unknown(section: str, given: dict, allowed: set):
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {section!r} section: {sorted(unknown)}")


def _is_number(value) -> bool:
    """A JSON number that is a finite float: no bool, NaN, infinity or huge int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _check_numbers(section: str, given: dict, keys) -> None:
    for key in keys:
        if key in given and not _is_number(given[key]):
            raise ConfigError(f"{section}.{key} must be a finite number, not {given[key]!r}")


def config_from_dict(doc: dict) -> Config:
    """Build a Config from a parsed JSON document. Unknown keys are an error."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown("top-level", doc, {"system", "drive", "grid"})
    for section in ("system", "drive", "grid"):
        if section not in doc:
            raise ConfigError(f"missing configuration section {section!r}")
        if not isinstance(doc[section], dict):
            raise ConfigError(f"configuration section {section!r} must be an object")

    _reject_unknown("system", doc["system"], _SYSTEM_KEYS)
    _reject_unknown("drive", doc["drive"], _DRIVE_KEYS)
    _reject_unknown("grid", doc["grid"], _GRID_KEYS)
    _check_numbers("system", doc["system"], _SYSTEM_KEYS)
    _check_numbers("drive", doc["drive"], _DRIVE_KEYS - {"kind", "knots"})
    _check_numbers("grid", doc["grid"], ("t_start", "t_end"))
    if "n_samples" in doc["grid"] and type(doc["grid"]["n_samples"]) is not int:
        raise ConfigError(f"grid.n_samples must be an integer, not {doc['grid']['n_samples']!r}")

    system = SystemParams(**doc["system"])
    drive_args = dict(doc["drive"])
    if "knots" in drive_args:
        knots = drive_args["knots"]
        if not isinstance(knots, (list, tuple)) or not all(
            isinstance(k, (list, tuple)) and len(k) == 2 and all(map(_is_number, k)) for k in knots
        ):
            raise ConfigError("drive.knots must be a list of [t, omega] pairs of finite numbers")
        drive_args["knots"] = tuple(tuple(k) for k in knots)
    drive = DriveWaveform(omega_bar=system.omega_bar, **drive_args)
    return Config(system=system, drive=drive, grid=SimulationGrid(**doc["grid"]))


def config_to_dict(config: Config) -> dict:
    """Inverse of config_from_dict; round-trips every parameter exactly."""
    drive = {
        "kind": config.drive.kind,
        "amplitude": config.drive.amplitude,
        "period": config.drive.period,
        "phase": config.drive.phase,
    }
    if config.drive.kind == "tabulated":
        drive["knots"] = [list(k) for k in config.drive.knots]
    return {
        "system": {
            "omega_bar": config.system.omega_bar,
            "gamma": config.system.gamma,
            "T_e": config.system.T_e,
        },
        "drive": drive,
        "grid": {
            "t_start": config.grid.t_start,
            "t_end": config.grid.t_end,
            "n_samples": config.grid.n_samples,
        },
    }


def load_config(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)


def dump_config(config: Config, path) -> None:
    # json round-trips floats exactly (shortest repr)
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n", encoding="utf-8")
