"""Correctness gates: each solve's outputs against independent references.

A gate returns a list of problems; an empty list is a pass. References are
closed forms written out here, or package routes other than the one that
produced the output (the jets for a distribution's mean and variance, the
equilibrium formulas for constant drives). Tolerances are stated next to
each check with the error they allow for.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

# |n(end) - n(start)| over whole periods, relative to the thermal occupation;
# the package certifies 1e-9 at the start of the window
PERIODICITY_TOL = 1e-8
# pointwise identities between CSV columns written with 17 digits
IDENTITY_RTOL = 1e-10
# battery thresholds of the cross-method check (verify.run_verification)
TV_TOL = 1e-4
MEAN_GAP_TOL = 1e-6
# a distribution window must hold the mass to the package's own 1e-8
MASS_TOL = 1e-8


def read_csv(path: Path) -> tuple[str, dict]:
    """(units comment, column name -> array) of a CSV written by the CLI."""
    lines = path.read_text(encoding="utf-8").splitlines()
    names = lines[1].split(",")
    table = np.array([line.split(",") for line in lines[2:]], dtype=float).reshape(-1, len(names))
    return lines[0], dict(zip(names, table.T))


def fingerprint(outdir: Path) -> str:
    """Hash of every data file in a solve's output directory."""
    h = hashlib.sha256()
    for path in sorted(outdir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def n_bose(omega, T):
    return 1.0 / np.expm1(np.asarray(omega, dtype=float) / T)


def _drive_value(doc: dict, t: np.ndarray):
    """omega_0(t) of a harmonic drive, or None for kinds checked elsewhere."""
    d = doc["drive"]
    if d["kind"] != "harmonic":
        return None
    return 1.0 + d["amplitude"] * np.sin(2.0 * math.pi / d["period"] * t + d["phase"])


def _close(a, b, rtol=IDENTITY_RTOL) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b))))
    return bool(np.all(np.abs(a - b) <= rtol * scale))


def check_thermo_csv(path: Path, doc: dict, impulses: Path | None) -> list[str]:
    """Periodic-state trajectory: identities, periodicity and the first law.

    The CSV holds n (or T when n is absent), omega0, P and J; U is rebuilt
    as omega0 * n. Per sample interval the first law reads
    dU = int (P + J) dt + impulse works in (t_i, t_i+1]. The trapezoid rule
    errs by O(dt^3) on smooth intervals, so those must close to 1e-3 of
    dt * max|P + J|; across a drive jump J itself jumps, which bounds the
    trapezoid error by dt * max|P + J|.
    """
    problems = []
    _, c = read_csv(path)
    gamma, T_e = doc["system"]["gamma"], doc["system"]["T_e"]
    t, w, P, J = c["t"], c["omega0"], c["P"], c["J"]
    if t.size != doc["grid"]["n_samples"] or not all(np.all(np.isfinite(v)) for v in (t, w, P, J)):
        return [f"{path.name}: wrong row count or non-finite values"]
    n = c["n"] if "n" in c else n_bose(w, c["T"])
    if "n" in c and not _close(c["T"], w / np.log1p(1.0 / n)):
        problems.append(f"{path.name}: T is not the thermal temperature of n")
    if "U" in c and not _close(c["U"], w * n):
        problems.append(f"{path.name}: U != omega0 * n")
    if not _close(J, w * gamma * (n_bose(w, T_e) - n)):
        problems.append(f"{path.name}: J != omega0 * gamma * (n_B - n)")
    expected_w = _drive_value(doc, t)
    if expected_w is not None and not _close(w, expected_w, 1e-9):
        problems.append(f"{path.name}: omega0 does not follow the drive")

    n_th = float(n_bose(1.0, T_e))
    defect = abs(n[-1] - n[0])
    if defect > PERIODICITY_TOL * max(1.0, n_th):
        problems.append(f"{path.name}: periodicity defect {defect:.3e}")

    imp_t, imp_w = np.empty(0), np.empty(0)
    if impulses is not None:
        _, ic = read_csv(impulses)
        imp_t, imp_w = ic["t"], ic["W"]
    dt = np.diff(t)
    flow = P + J
    trap = 0.5 * dt * (flow[1:] + flow[:-1])
    interval = np.searchsorted(t, imp_t, side="left") - 1
    works = np.bincount(interval, weights=imp_w, minlength=dt.size)
    jumped = np.bincount(interval, minlength=dt.size) > 0
    residual = np.abs(np.diff(w * n) - trap - works)
    scale = dt * max(float(np.max(np.abs(flow))), 1e-300)
    if np.any(residual[~jumped] > 1e-3 * scale[~jumped]):
        problems.append(f"{path.name}: first-law residual {residual[~jumped].max():.3e} on a smooth interval")
    if np.any(residual[jumped] > scale[jumped]):
        problems.append(f"{path.name}: first-law residual {residual[jumped].max():.3e} across a jump")
    return problems


def check_response_csvs(outdir: Path, doc: dict) -> list[str]:
    """Transfer-function tables against the closed forms (omega_bar = 1)."""
    gamma, T_e = doc["system"]["gamma"], doc["system"]["T_e"]
    n = float(n_bose(1.0, T_e))
    forms = {
        "temperature": lambda W: 1j * W / (gamma + 1j * W) * T_e,
        "power": lambda W: 1j * W * n,
        "heat": lambda W: 1j * gamma * W / (gamma + 1j * W) * (-n * (1.0 + n) / T_e),
    }
    problems = []
    for kind, form in forms.items():
        _, c = read_csv(outdir / f"response_{kind}.csv")
        got = c["Re"] + 1j * c["Im"]
        if not _close(got, form(c["Omega"])) or not _close(c["modulus"], np.abs(got)):
            problems.append(f"response_{kind}.csv differs from the closed form")
    return problems


def check_cli(solve, outdir: Path, references) -> list[str]:
    """Gate of a CLI solve, by subcommand."""
    doc = solve.doc
    if solve.subcommand == "temperature":
        return check_thermo_csv(outdir / "temperature.csv", doc, outdir / "temperature_impulses.csv")
    if solve.subcommand == "thermo":
        problems = []
        for kind in ("square", "sawtooth", "harmonic"):
            kdoc = {**doc, "drive": {**doc["drive"], "kind": kind}}
            problems += check_thermo_csv(outdir / f"thermo_{kind}.csv", kdoc,
                                         outdir / f"thermo_{kind}_impulses.csv")
        return problems
    if solve.subcommand == "linear-response":
        return (check_thermo_csv(outdir / "linear_response_timeseries.csv", doc, None)
                + check_response_csvs(outdir, doc))
    if solve.subcommand == "cumulants":
        order = int(solve.extra[solve.extra.index("--order") + 1])
        return check_cumulant_csv(outdir / "cumulants.csv", doc, order, references)
    if solve.subcommand == "lr-cumulants":
        return check_lr_cumulants(outdir / "lr_cumulants.csv", doc)
    return check_distribution(outdir, solve, references)


def _period_rows(doc: dict, t: np.ndarray) -> np.ndarray:
    tau = doc["drive"]["period"]
    k = np.round(t / tau)
    return (k > 0) & np.isclose(t, k * tau, rtol=0.0, atol=1e-9 * tau)


def check_cumulant_csv(path: Path, doc: dict, order: int, references) -> list[str]:
    """Cumulant trajectories.

    Driven: the mean net emission equals n(reset) - n(t), which vanishes
    after whole periods of the periodic state; it must stay within
    PERIODICITY_TOL of the thermal occupation there. The variance must be
    positive after the reset. Constant drive: after gamma*t >= 38 the
    cumulants have saturated (transient below e^-38) to
    linear_response.equilibrium_cumulants; even orders must match to 1e-8
    relative, odd ones vanish to 1e-8 of the even order below.
    """
    _, c = read_csv(path)
    t = c["t"]
    cum = [c[f"c{k}"] for k in range(1, order + 1)]
    if not all(np.all(np.isfinite(v)) for v in cum):
        return [f"{path.name}: non-finite cumulants"]
    problems = []
    n_th = float(n_bose(1.0, doc["system"]["T_e"]))
    if np.any(cum[1][1:] <= 0.0):
        problems.append(f"{path.name}: variance not positive")
    if doc["drive"]["kind"] == "constant":
        x = 1.0 / doc["system"]["T_e"]
        eq = references.equilibrium_cumulants(x, order)
        got = np.array([v[-1] for v in cum])
        for k in range(order):
            if (k + 1) % 2 == 0:
                ok = abs(got[k] - eq[k]) <= 1e-8 * abs(eq[k])
            else:  # on the scale of the even order below (the variance for c1)
                ok = abs(got[k]) <= 1e-8 * abs(eq[max(k - 1, 1)])
            if not ok:
                problems.append(f"{path.name}: c{k + 1} = {got[k]!r}, equilibrium {eq[k]!r}")
    else:
        rows = _period_rows(doc, t)
        if not rows.any():
            problems.append(f"{path.name}: no whole-period rows")
        elif np.max(np.abs(cum[0][rows])) > PERIODICITY_TOL * max(1.0, n_th):
            problems.append(f"{path.name}: mean emission after whole periods "
                            f"{np.max(np.abs(cum[0][rows])):.3e}")
    return problems


def _fundamental(t, series, omega, phase) -> complex:
    """A with series ~ Im(A exp(i(omega t + phase))) over whole periods (trapezoid)."""
    return 2j * np.trapezoid(series * np.exp(-1j * (omega * t + phase)), t) / (t[-1] - t[0])


def check_lr_cumulants(path: Path, doc: dict) -> list[str]:
    """Linear-response cumulants: the drive column, and c_k against c_k_lr.

    Over the last period (gamma*t > 30, transient below e^-30) the
    fundamental of each accumulated cumulant must match that of the
    small-signal prediction to 2 % in modulus and 0.05 rad in phase, the
    tolerance of the package's own acceptance criterion for this case.
    """
    _, c = read_csv(path)
    problems = check_cumulant_csv(path, doc, 4, None)
    d = doc["drive"]
    omega = 2.0 * math.pi / d["period"]
    if not _close(c["domega0"], d["amplitude"] * np.sin(omega * c["t"] + d["phase"]), 1e-9):
        problems.append(f"{path.name}: domega0 does not follow the drive")
    last = c["t"] >= c["t"][-1] - d["period"] * (1.0 + 1e-12)
    t = c["t"][last]
    for k in range(1, 5):
        got = _fundamental(t, c[f"c{k}"][last], omega, d["phase"])
        want = _fundamental(t, c[f"c{k}_lr"][last], omega, d["phase"])
        ratio = got / want
        if abs(abs(ratio) - 1.0) > 0.02 or abs(np.angle(ratio)) > 0.05:
            problems.append(f"{path.name}: c{k} fundamental {got:.4g} vs small-signal {want:.4g}")
    return problems


_T_COUNT = re.compile(r"after counting for t = (\S+)")


def check_distribution(outdir: Path, solve, references) -> list[str]:
    """Photon-exchange distribution.

    Mass within MASS_TOL of 1, no probability below -1e-10, and the
    equilibrium column equal to tanh(x/2) exp(-|m| x). Constant drive
    counted for gamma*t >= 38: the total variation from
    counting.equilibrium_distribution is below 1e-8. Driven: mean and variance equal the first
    two cumulants of the independent jet route at the same counting time.
    The window misses mass eps = |1 - sum p| beyond |m| = m_max, which
    shifts the moments by up to eps * (2 m_max) and eps * (2 m_max)^2; on
    top of that they must agree to 1e-7 of the standard deviation and 1e-7
    relative.
    """
    head, c = read_csv(outdir / "distribution.csv")
    _, ceq = read_csv(outdir / "distribution_equilibrium.csv")
    m, p = c["m"], c["p"]
    x = 1.0 / solve.doc["system"]["T_e"]
    problems = []
    if abs(p.sum() - 1.0) > MASS_TOL or p.min() < -1e-10:
        problems.append(f"distribution mass {p.sum()!r}, min {p.min():.3e}")
    eq = math.tanh(x / 2.0) * np.exp(-np.abs(m) * x)
    if not _close(ceq["p_eq"], eq):
        problems.append("distribution_equilibrium.csv differs from tanh(x/2) exp(-|m| x)")
    if solve.doc["drive"]["kind"] == "constant":
        tv = 0.5 * float(np.abs(p - references.equilibrium_distribution(x, m)).sum())
        if tv > 1e-8:
            problems.append(f"saturated distribution: total variation {tv:.3e} from equilibrium")
        return problems
    t_count = float(_T_COUNT.search(head).group(1))
    c1, c2 = references.jet_mean_variance(solve.doc, t_count)
    mean = float(m @ p)
    var = float(((m - mean) ** 2) @ p)
    eps, reach = abs(1.0 - float(p.sum())), 2.0 * float(m[-1])
    if abs(mean - c1) > eps * reach + 1e-7 * math.sqrt(c2):
        problems.append(f"distribution mean {mean!r} vs jet {c1!r}")
    if abs(var - c2) > eps * reach**2 + 1e-7 * c2:
        problems.append(f"distribution variance {var!r} vs jet {c2!r}")
    return problems


def check_oracle(result: dict) -> list[str]:
    """The battery's thresholds, plus the mass each route's window holds."""
    problems = []
    for key in ("tv_counting_tilted", "tv_counting_ladder", "tv_tilted_ladder"):
        if not result[key] < TV_TOL:
            problems.append(f"{key} = {result[key]:.3e} >= {TV_TOL}")
    if not result["mean_gap_ladder_vs_jet"] < MEAN_GAP_TOL:
        problems.append(f"mean gap {result['mean_gap_ladder_vs_jet']:.3e} >= {MEAN_GAP_TOL}")
    for key in ("p_counting", "p_tilted", "p_ladder"):
        if abs(float(np.sum(result[key])) - 1.0) > 1e-7:
            problems.append(f"{key} holds mass {float(np.sum(result[key]))!r}")
    return problems


def oracle_fingerprint(result: dict) -> str:
    h = hashlib.sha256()
    for key in ("p_counting", "p_tilted", "p_ladder"):
        h.update(np.ascontiguousarray(result[key]).tobytes())
    return h.hexdigest()


class References:
    """Reference values from package routes other than the gated one.

    Computed outside the timed and traced batches and cached per input, so
    a batch repeated in one run pays for them once. The package is imported
    on first use because it goes on sys.path only once a run has started.
    """

    def __init__(self):
        self._jets = {}

    @staticmethod
    def equilibrium_cumulants(x: float, order: int) -> np.ndarray:
        from driven_resonator.linear_response import equilibrium_cumulants
        return equilibrium_cumulants(x, order)

    @staticmethod
    def equilibrium_distribution(x: float, m: np.ndarray) -> np.ndarray:
        from driven_resonator.counting import equilibrium_distribution
        return equilibrium_distribution(x, m.astype(int))

    def jet_mean_variance(self, doc: dict, t_count: float) -> tuple[float, float]:
        """First two cumulants after counting for t_count from the periodic state."""
        key = (json.dumps(doc, sort_keys=True), t_count)
        if key not in self._jets:
            from driven_resonator.counting import cumulant_trajectories
            from driven_resonator.model import SimulationGrid, config_from_dict
            cfg = config_from_dict(doc)
            grid = SimulationGrid(t_start=0.0, t_end=t_count, n_samples=2)
            jets = cumulant_trajectories(2, cfg.system, cfg.drive, grid)
            self._jets[key] = (float(jets.cumulants[-1, 0]), float(jets.cumulants[-1, 1]))
        return self._jets[key]
