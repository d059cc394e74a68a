#!/usr/bin/env python3
"""Periodic-state temperature traces for several reservoir couplings.

For each coupling the resonator is relaxed to its periodic state under the
chosen drive and one period of T(t) is written as a CSV column. With weak
coupling the temperature follows the drive proportionally; with strong
coupling it flattens toward the reservoir value between excursions and the
response becomes visibly nonlinear.

Usage:
    python scripts/sweep_coupling_temperature.py [--kind harmonic]
        [--amplitude 0.7] [--couplings 0.01 0.05 0.2] [--out temperature_sweep.csv]
"""

import argparse
import math
import sys

import numpy as np

from driven_resonator.cli import write_csv
from driven_resonator.dynamics import relax_to_periodic, simulate_thermo
from driven_resonator.model import DriveWaveform, SimulationGrid, SystemParams


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", default="harmonic", choices=["square", "sawtooth", "harmonic"])
    parser.add_argument("--amplitude", type=float, default=0.7)
    parser.add_argument("--period", type=float, default=2.0 * math.pi / 0.1)
    parser.add_argument("--T-e", type=float, default=1.5)
    parser.add_argument("--couplings", type=float, nargs="+", default=[0.01, 0.05, 0.2])
    parser.add_argument("--out", default="temperature_sweep.csv")
    args = parser.parse_args()

    drive = DriveWaveform(
        kind=args.kind, omega_bar=1.0, amplitude=args.amplitude, period=args.period
    )
    grid = SimulationGrid(0.0, args.period, n_samples=1001)
    columns = []
    names = ["t", "omega0"]
    for gamma in args.couplings:
        params = SystemParams(omega_bar=1.0, gamma=gamma, T_e=args.T_e)
        state = relax_to_periodic(params, drive, grid)
        traj = simulate_thermo(params, drive, grid, state.start_occupation)
        if not columns:
            columns = [traj.t - state.epoch, traj.omega0]
        names.append(f"T_gamma_{gamma:g}")
        columns.append(traj.T)
        print(f"gamma = {gamma:g}: certificate {state.certificate:.2e}")

    write_csv(
        args.out,
        "t [1/omega_bar], omega0 [omega_bar], T [hbar*omega_bar/k_B] per coupling",
        names,
        columns,
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
