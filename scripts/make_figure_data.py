#!/usr/bin/env python3
"""Generate the full set of figure-reproduction CSVs.

Runs every CLI subcommand with its built-in defaults (each mirrors a
standard parameter set documented in the README) into per-topic
subdirectories of the chosen output root. Any external plotting tool can
be pointed at the resulting CSVs.

Usage:
    python scripts/make_figure_data.py [--out data]
"""

import argparse
import sys
import time

from driven_resonator.cli import main as cli_main

RUNS = [
    ("temperature", []),
    ("thermo", []),
    ("linear-response", []),
    ("cumulants", ["--order", "4"]),
    ("lr-cumulants", ["--order", "4"]),
    ("distribution", []),
    ("verify-oracle", []),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data", help="output root directory")
    args = parser.parse_args()

    for subcommand, extra in RUNS:
        outdir = f"{args.out}/{subcommand.replace('-', '_')}"
        print(f"== {subcommand} -> {outdir}")
        t0 = time.monotonic()
        code = cli_main([subcommand, "--out", outdir, *extra])
        print(f"   done in {time.monotonic() - t0:.1f}s (exit {code})")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
