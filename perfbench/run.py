#!/usr/bin/env python3
"""Benchmark of the driven_resonator package.

Usage, from the repository root:

    python3 perfbench/run.py --workload occupancy --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``. A run imports the package from
``src/`` beside this directory, turns the seed into the workload's batch of
solves, and repeats the batch for about ``--seconds`` seconds in this one
process, with one compute thread. Every solve is checked against
independent references (``checks.py``); the known ROADMAP contract defects
are reproduced once per run outside the timed batches (``PROBES``).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (time to finish
the batch on the reference host of ``calibration.py``: the mean batch time
over the run's batches, at least three, over the mean time of the
workload's reference kernel timed between the solves, times that kernel's
time on the reference host), ``setup_s`` (median, over three fresh
processes started at the start, middle and end of the run, of process
start to ready: imports and config generation), ``peak_rss_mb`` (peak
resident memory after the timed batches) and ``pass_ratio`` (1 -
fail_ratio; the batch's solves and the contract probes that passed). ``--trace 1`` alternates untraced and traced
batches and reports the per-layer metrics of ``spans.py`` for the traced
batch of median time, the tracing overhead, and writes the spans to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (the timed solves) and ``metrics``.
"""

from __future__ import annotations

import os

# one compute thread per run, set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_BATCHES = 3
# the reference kernel runs once per started KERNEL_EVERY_S of each solve,
# so that its samples weight the host's speed over time as the solves do
KERNEL_EVERY_S = 1.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "pass_ratio": "ratio"}

PER_LAYER_EXTRA = {
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "trace_overhead_s": "s",
    "fail_ratio": "ratio",
}

# a fixed tabulated drive: documented input that every subcommand rejects
TABULATED = {
    "system": {"omega_bar": 1.0, "gamma": 0.05, "T_e": 1.5},
    "drive": {"kind": "tabulated", "knots": [[0.0, 1.0], [40.0, 1.3], [80.0, 0.8], [120.0, 1.0]]},
    "grid": {"t_start": 0.0, "t_end": 120.0, "n_samples": 241},
}

# Known contract defects (ROADMAP item 2), reproduced once per run outside
# the timed batches. Each counts as one attempt; anything but exit 0 fails.
PROBES = [
    ("distribution-defaults", ["distribution"], None),
    ("temperature-tabulated", ["temperature"], TABULATED),
    ("thermo-tabulated", ["thermo"], TABULATED),
]

# Cross-method checks that fail their own battery on documented inputs,
# reproduced in the oracle workload only (the only one that reaches them).
ORACLE_PROBES = [
    # FFT of the tilted-grid traces gives tail probabilities below -1e-10
    ("oracle-inversion-noise", dict(gamma=0.1, T_e=0.7, kind="harmonic", amplitude=0.3,
                                    phase=1.0, n_max=26, m_window=20)),
    # mean gap between ladder and jets above 1e-6 on a square drive
    ("oracle-square-mean-gap", dict(gamma=0.1, T_e=0.7, kind="square", amplitude=0.3,
                                    phase=0.7, n_max=20, m_window=16)),
]


def per_layer_units() -> dict:
    return {**{name: spans.unit_of(name) for name in spans.METRIC_NAMES}, **PER_LAYER_EXTRA}


def import_package():
    """Import driven_resonator from src/ beside the benchmark, never elsewhere."""
    if not (SRC / "driven_resonator" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import driven_resonator
    import driven_resonator.cli
    import driven_resonator.verify

    if Path(driven_resonator.__file__).resolve().parent != (SRC / "driven_resonator").resolve():
        sys.stderr.write(f"perfbench: imported {driven_resonator.__file__}, not {SRC}\n")
        raise SystemExit(2)
    return driven_resonator


# -- set-up -----------------------------------------------------------------


def prepare(workload: str, seed: int, workdir: Path):
    """Package import plus input generation: what set-up time measures."""
    pkg = import_package()
    solves = workloads.generate(workload, seed)
    params = workloads.write_params(solves, workdir / "params")
    api_args = {}
    for solve in solves:
        if solve.api is not None:
            cfg = pkg.model.config_from_dict(solve.doc)
            api_args[solve.name] = dict(solve.kwargs, params=cfg.system, drive=cfg.drive)
    return pkg, solves, params, api_args


def setup_time(workload: str, seed: int) -> float:
    """Process start to ready, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return ready - start


def setup_probe(workload: str, seed: int) -> int:
    workdir = OUT / f"setup-{os.getpid()}"
    try:
        prepare(workload, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# -- batches ----------------------------------------------------------------


class Batches:
    """Runs a workload's batch repeatedly and gates every solve."""

    def __init__(self, pkg, solves, params, api_args, workdir):
        self.pkg = pkg
        self.solves = solves
        self.params = params
        self.api_args = api_args
        self.workdir = workdir
        self.references = checks.References()
        self.first_prints: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count = 0
        self.solve_times = {solve.name: [] for solve in solves}
        self.kernel_times: list[float] = []

    def run(self, tracer=None, kernel=None) -> float:
        """One timed batch, traced when a tracer is given; returns its wall time.

        With a ``kernel`` name, that reference kernel of ``calibration`` is
        timed before the first solve and after each one, once per started
        KERNEL_EVERY_S of the solve, outside the solves' times. Outputs are gated after the batch, with the tracer
        removed.
        """
        batch_dir = self.workdir / f"batch-{self.count}"
        self.count += 1
        outcomes = []
        cli = self.pkg.cli
        gc.collect()  # garbage of earlier batches must not add to this one's memory
        wall = 0.0
        if kernel:
            self.kernel_times.append(calibration.sample(kernel))
        with tracer.installed() if tracer else contextlib.nullcontext():
            for solve in self.solves:
                begin = time.perf_counter()
                try:
                    if solve.subcommand is not None:
                        outcomes.append(cli.main([
                            solve.subcommand, "--params", str(self.params[solve.name]),
                            "--out", str(batch_dir / solve.name), *solve.extra]))
                    else:
                        outcomes.append(self._api(solve)(**self.api_args[solve.name]))
                except Exception as exc:  # a solve that raises is a failed solve
                    outcomes.append(exc)
                elapsed = time.perf_counter() - begin
                wall += elapsed
                self.solve_times[solve.name].append(elapsed)
                for _ in range(math.ceil(elapsed / KERNEL_EVERY_S) if kernel else 0):
                    self.kernel_times.append(calibration.sample(kernel))
        self._gate(batch_dir, outcomes)
        shutil.rmtree(batch_dir, ignore_errors=True)
        return wall

    def reference_batch(self, kernel: str) -> float:
        """The mean batch time on the reference host of ``calibration``.

        The mean batch time of this run, over the mean time of the kernel
        timed between its solves, times that kernel's time on the reference
        host. A solve's own time swings with the host's speed over a second
        or two, so per-solve ratios are noisy; the run's means are not.
        """
        mean_batch = sum(statistics.fmean(times) for times in self.solve_times.values())
        return mean_batch / statistics.fmean(self.kernel_times) * calibration.REFERENCE_S[kernel]

    def _api(self, solve):
        module, name = solve.api.split(".")
        return getattr(getattr(self.pkg, module), name)

    def _gate(self, batch_dir: Path, outcomes):
        for solve, outcome in zip(self.solves, outcomes):
            self.attempted += 1
            try:
                problems = self._problems(solve, batch_dir / solve.name, outcome)
            except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
                problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems += [f"{solve.name}: {p}" for p in problems]

    def _problems(self, solve, outdir, outcome) -> list[str]:
        if isinstance(outcome, Exception):
            return [f"raised {type(outcome).__name__}: {outcome}"]
        if solve.api is not None:
            problems = checks.check_oracle(outcome)
            fp = checks.oracle_fingerprint(outcome)
        elif outcome != 0:
            return [f"exit {outcome}"]
        else:
            problems = checks.check_cli(solve, outdir, self.references)
            fp = checks.fingerprint(outdir)
        if self.first_prints.setdefault(solve.name, fp) != fp:
            problems.append("outputs differ from the first batch of this run")
        return problems


def run_probes(pkg, workload: str, workdir: Path) -> list[tuple[str, str]]:
    """(probe, outcome) for each contract probe; outcome 'ok' is a pass."""
    results = []
    for name, argv, doc in PROBES:
        outdir = workdir / "probes" / name
        args = list(argv) + ["--out", str(outdir)]
        if doc is not None:
            path = workdir / f"probe-{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            args += ["--params", str(path)]
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = pkg.cli.main(args)
            outcome = "ok" if code == 0 else f"exit {code}: {err.getvalue().strip()}"
        except Exception as exc:  # the CLI contract allows no uncaught exception
            outcome = f"contract breach (exit 1, traceback): {type(exc).__name__}: {exc}"
        results.append((name, outcome))
    if workload == "oracle":
        for name, case in ORACLE_PROBES:
            results.append((name, _oracle_probe(pkg, **case)))
    return results


def _oracle_probe(pkg, gamma, T_e, kind, amplitude, phase, n_max, m_window) -> str:
    params = pkg.model.SystemParams(omega_bar=1.0, gamma=gamma, T_e=T_e)
    drive = pkg.model.DriveWaveform(kind=kind, omega_bar=1.0, amplitude=amplitude,
                                    period=2.0 * math.pi / 0.1, phase=phase)
    try:
        result = pkg.verify.driven_cross_method_check(params, drive, n_max=n_max, m_window=m_window)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    problems = checks.check_oracle(result)
    return "; ".join(problems) if problems else "ok"


# -- the two kinds of run ---------------------------------------------------


def repeat_count(seconds: float, first: float, least: int) -> int:
    """Batches (or batch pairs) that fill about `seconds`, at least `least`."""
    return max(least, round(seconds / first))


def end_to_end(workload, seed, seconds, workdir):
    # set-up is timed at the start, the middle and the end of the run, so
    # that its samples spread over the run as the solves' do
    setup = [setup_time(workload, seed)]
    pkg, solves, params, api_args = prepare(workload, seed, workdir)
    batches = Batches(pkg, solves, params, api_args, workdir)
    kernel = workloads.KERNEL[workload]
    first = batches.run(kernel=kernel)
    count = repeat_count(seconds, first, MIN_BATCHES)
    for i in range(1, count):
        if i == count // 2:
            setup.append(setup_time(workload, seed))
        batches.run(kernel=kernel)
    setup.append(setup_time(workload, seed))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = run_probes(pkg, workload, workdir)
    fail = fail_ratio(batches, probes)
    metrics = {
        "wall_s": batches.reference_batch(kernel),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
        "pass_ratio": 1.0 - fail,
    }
    report(workload, seed, batches, probes, metrics, END_TO_END, {
        "wall_s": f"on the reference host: {batches.count} batches of {len(solves)} solves, "
                  f"{kernel} kernel {statistics.fmean(batches.kernel_times):.4f} s "
                  f"here, {calibration.REFERENCE_S[kernel]} s there",
        "setup_s": f"median of {len(setup)} fresh processes",
        "peak_rss_mb": "peak of the process after the timed batches",
        "pass_ratio": f"1 - fail_ratio; fail_ratio = {fail:.4f}",
    })


def traced(workload, seed, seconds, workdir):
    pkg, solves, params, api_args = prepare(workload, seed, workdir)
    batches = Batches(pkg, solves, params, api_args, workdir)
    tracer = spans.Tracer()
    plain, layered = [], []

    def pair():
        plain.append(batches.run())
        tracer.reset()
        wall = batches.run(tracer)
        layered.append((wall, tracer.layer_metrics(wall)))

    pair()
    for _ in range(repeat_count(seconds, plain[0] + layered[0][0], 1) - 1):
        pair()
    probes = run_probes(pkg, workload, workdir)
    ordered = sorted(layered, key=lambda item: item[0])
    wall, layer = ordered[(len(ordered) - 1) // 2]
    counts = [{k: v for k, v in m.items() if spans.is_count(k)} for _, m in layered]
    if any(c != counts[0] for c in counts):
        batches.problems.append("work counts differ between traced batches")
        batches.failed += 1
    untraced = statistics.median(plain)
    metrics = dict(layer)
    metrics.update({
        "traced_wall_s": wall,
        "untraced_wall_s": untraced,
        "trace_overhead_s": wall - untraced,
        "fail_ratio": fail_ratio(batches, probes),
    })
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spans-{workload}-{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "spans": tracer.spans}) + "\n",
        encoding="utf-8")
    report(workload, seed, batches, probes, metrics, per_layer_units(), {
        "traced_wall_s": f"median of {len(layered)} traced batches",
        "untraced_wall_s": f"median of {len(plain)} untraced batches",
    })


def fail_ratio(batches: Batches, probes) -> float:
    """Failed share of one batch's solves plus the run's probes, averaged over batches."""
    per_batch = len(batches.solves)
    n = batches.count
    failed_probes = sum(outcome != "ok" for _, outcome in probes)
    return (batches.failed / n + failed_probes) / (per_batch + len(probes))


def report(workload, seed, batches, probes, metrics, units, notes):
    print(f"workload {workload}, seed {seed}")
    for name, outcome in probes:
        print(f"  probe {name}: {outcome}")
    for problem in batches.problems:
        print(f"  FAILED {problem}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit}{note}")
    print(json.dumps({
        "correct": batches.failed == 0,
        "attempted": batches.attempted,
        "failed": batches.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    import_package()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced if args.trace else end_to_end
        run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
