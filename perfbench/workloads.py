"""Seeded workloads: the batch of solves each one runs and its inputs.

A workload turns a seed into a fixed batch of solves. Every drawn value is
jittered around a fixed centre within a narrow documented range, so two
seeds give different inputs but nearly the same amount of work: run-to-run
spread of the timings then reflects the program, not the draw. Each batch
takes a few seconds, so a run repeats it at least three times. The package
receives only the generated ``--params`` files (or API arguments for the
oracle).

occupancy  ``temperature``, ``thermo`` and ``linear-response`` through
           ``cli.main``: a 3-component state and 12-50k RHS calls per
           solve, so per-call cost in ``model`` and ``stepping`` and the
           ``dynamics`` relaxation pre-run dominate. Counting and Fock code
           is not reached.
counting   ``cumulants`` (orders 4 and 8), ``lr-cumulants`` and
           ``distribution`` (explicit and automatic counting time, explicit
           ``--m-max``) through ``cli.main``: ``series`` jets and the
           ``counting`` field grid (up to 2048 complex fields) with FFT
           inversion dominate. No Fock code.
oracle     ``verify.driven_cross_method_check`` at a reduced truncation:
           few RHS calls on arrays of about 28k complex entries
           in ``fock_oracle``, so per-step overhead in ``model`` and
           ``stepping`` hardly shows. No CLI, no CSV writing.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

TAU = 2.0 * math.pi / 0.1  # drive period of the package's standard cases


@dataclass
class Solve:
    """One timed call into the package.

    CLI solves run ``cli.main([subcommand, --params, file, --out, dir,
    *extra])``; an API solve calls ``api(**kwargs)`` instead. ``doc`` is the
    configuration the package receives, and the checker uses it as the
    reference for the expected outputs.
    """

    name: str
    doc: dict
    subcommand: str | None = None
    extra: list = field(default_factory=list)
    api: str | None = None
    kwargs: dict = field(default_factory=dict)


def _jitter(rng: random.Random, centre: float, rel: float = 0.03) -> float:
    """centre * exp(u), u uniform in [-rel, rel]: a log-uniform draw."""
    return centre * math.exp(rng.uniform(-rel, rel))


def _doc(gamma, T_e, kind, amplitude, phase, periods, samples_per_period, period=TAU):
    """Config covering whole periods with samples on every period boundary."""
    span = periods * (period if kind != "constant" else 1.0)
    return {
        "system": {"omega_bar": 1.0, "gamma": gamma, "T_e": T_e},
        "drive": {
            "kind": kind,
            "amplitude": amplitude,
            "period": period if kind != "constant" else 0.0,
            "phase": phase,
        },
        "grid": {
            "t_start": 0.0,
            "t_end": span,
            "n_samples": int(periods * samples_per_period) + 1,
        },
    }


def occupancy(rng: random.Random) -> list[Solve]:
    """Four solves; gamma spans about 0.003 to 0.1 in fixed strata.

    ``thermo`` runs the square, sawtooth and harmonic drives itself, so the
    four solves cover all three kinds. Ranges: gamma within +-3 % of its
    stratum centre (log-uniform), T_e within +-2 % of 1.5, amplitude within
    +-3 % of its centre, phase uniform in [0, 2 pi). Every grid covers 3
    periods with 3001 samples. The batch takes about 5 s on one core, so a
    run times every solve several times.
    """
    def draw(gamma, kind, amplitude):
        return _doc(_jitter(rng, gamma), _jitter(rng, 1.5, 0.02), kind,
                    _jitter(rng, amplitude), rng.uniform(0.0, 2.0 * math.pi), 3, 1000)

    return [
        Solve("temperature-square", draw(0.003, "square", 0.3), "temperature"),
        Solve("thermo-mid", draw(0.03, "sawtooth", 0.4), "thermo"),
        Solve("linear-response-0.1", draw(0.1, "harmonic", 0.05), "linear-response"),
        Solve("linear-response-0.03", draw(0.03, "harmonic", 0.05), "linear-response"),
    ]


def counting(rng: random.Random) -> list[Solve]:
    """Five solves: two cumulant orders, linear response, two distributions.

    Ranges: gamma within +-3 % of its centre, T_e within +-2 %, amplitude
    within +-3 %, phase uniform (within +-0.1 rad of 0 for the automatic
    counting time). The driven cumulant grid covers 2 periods, the
    linear-response one 6, so that its fundamental is fitted past the
    transient after the counting reset. The constant-drive solves count for t = 400 (gamma*t >= 38), so their
    statistics have saturated to the closed-form equilibrium ones. The batch
    takes about 6 s on one core, most of it the automatic-time distribution
    (2048 counting fields, relaxation run twice).
    """
    def gamma_t(centre):
        return _jitter(rng, centre), _jitter(rng, 4.0, 0.02)

    def phase():
        return rng.uniform(0.0, 2.0 * math.pi)

    g, T = gamma_t(0.1)
    driven4 = _doc(g, T, "harmonic", _jitter(rng, 0.6), phase(), 2, 1000)
    g = _jitter(rng, 0.1)
    eq8 = _doc(g, _jitter(rng, 2.0, 0.02), "constant", 0.0, 0.0, 400, 5)
    g, T = gamma_t(0.1)
    lr4 = _doc(g, T, "harmonic", _jitter(rng, 0.01), phase(), 6, 1000)
    g = _jitter(rng, 0.1)
    eq_dist = _doc(g, _jitter(rng, 2.0, 0.02), "constant", 0.0, 0.0, 400, 5)
    # the automatic counting time, where the variance peaks, moves with the
    # phase; a narrow phase range keeps the counting window (the work) steady
    g, T = gamma_t(0.1)
    auto_dist = _doc(g, T, "harmonic", _jitter(rng, 0.6), rng.uniform(-0.1, 0.1), 4, 500)
    return [
        Solve("cumulants-4-harmonic", driven4, "cumulants", ["--order", "4"]),
        Solve("cumulants-8-constant", eq8, "cumulants", ["--order", "8"]),
        Solve("lr-cumulants-4", lr4, "lr-cumulants", ["--order", "4"]),
        Solve("distribution-constant", eq_dist, "distribution",
              ["--at-time", "400", "--m-max", "80"]),
        Solve("distribution-auto", auto_dist, "distribution", ["--m-max", "160"]),
    ]


# Reduced truncation of the battery's driven case, at a lower temperature
# so that each route still holds the mass (n_max levels, m_window transfers).
# The temperature sits between two failures: at T_e 0.7 the ladder route
# misses up to 1.2e-7 of the mass, above the checks' 1e-7 (at 0.66, 3e-8);
# at T_e 0.6 the tilted-grid inversion raises on a negative probability
# below -1e-10, the defect the oracle-inversion-noise probe reproduces
ORACLE_N_MAX = 20
ORACLE_M_WINDOW = 16


def oracle(rng: random.Random) -> list[Solve]:
    """One cross-method check on a cooler, jittered copy of the battery's driven case.

    Ranges: gamma within +-3 % of 0.1, T_e within +-1 % of 0.65, amplitude
    within +-3 % of 0.3; harmonic drive at phase 0, as in the battery. The
    check takes about 3.5 s on one core.
    """
    doc = _doc(_jitter(rng, 0.1), _jitter(rng, 0.65, 0.01), "harmonic",
               _jitter(rng, 0.3), 0.0, 1, 1)
    return [Solve("cross-method", doc, api="verify.driven_cross_method_check",
                  kwargs={"n_max": ORACLE_N_MAX, "m_window": ORACLE_M_WINDOW})]


WORKLOADS = {"occupancy": occupancy, "counting": counting, "oracle": oracle}

# the reference kernel of calibration.py whose mix of work each workload has:
# per-call overhead of a Python right-hand side, or that plus Fock arrays
KERNEL = {"occupancy": "stepper", "counting": "stepper", "oracle": "fock"}


def generate(workload: str, seed: int) -> list[Solve]:
    """The batch of a workload; the same seed always gives the same batch."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def write_params(solves: list[Solve], directory: Path) -> dict:
    """Write each solve's config as a ``--params`` file; name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for solve in solves:
        path = directory / f"{solve.name}.json"
        path.write_text(json.dumps(solve.doc, indent=2) + "\n", encoding="utf-8")
        paths[solve.name] = path
    return paths
