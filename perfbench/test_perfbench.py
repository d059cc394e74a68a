"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibration  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from driven_resonator import cli, dynamics, model, stepping  # noqa: E402


@pytest.fixture
def tmpdir(request):
    path = HERE / "out" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _small(kind="square"):
    tau = 2.0 * 3.141592653589793 / 0.1
    return {
        "system": {"omega_bar": 1.0, "gamma": 0.1, "T_e": 1.5},
        "drive": {"kind": kind, "amplitude": 0.3, "period": tau, "phase": 0.4},
        "grid": {"t_start": 0.0, "t_end": tau, "n_samples": 201},
    }


def _run_cli(tmpdir, name, argv, doc):
    params = tmpdir / f"{name}.json"
    params.write_text(json.dumps(doc))
    out = tmpdir / name
    assert cli.main([*argv, "--params", str(params), "--out", str(out)]) == 0
    return checks.fingerprint(out), out


@pytest.mark.parametrize("argv", [["temperature"], ["cumulants", "--order", "3"]])
def test_traced_and_untraced_outputs_are_byte_identical(tmpdir, argv):
    plain, _ = _run_cli(tmpdir, "plain", argv, _small())
    original = stepping.integrate_segmented
    omega = model.DriveWaveform.omega
    tracer = spans.Tracer()
    with tracer.installed():
        assert dynamics.integrate_segmented is not original
        traced, _ = _run_cli(tmpdir, "traced", argv, _small())
    assert traced == plain
    assert tracer.calls["stepping.integrate_segmented"] > 0
    # the wrappers are gone again
    assert dynamics.integrate_segmented is original is stepping.integrate_segmented
    assert model.DriveWaveform.omega is omega


def test_layer_times_add_up_and_counts_repeat(tmpdir):
    results = []
    for i in range(2):
        tracer = spans.Tracer()
        with tracer.installed():
            start = spans.time.perf_counter()
            _run_cli(tmpdir, f"run{i}", ["temperature"], _small("sawtooth"))
            wall = spans.time.perf_counter() - start
        m = tracer.layer_metrics(wall)
        total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) + m["unattributed_s"]
        assert total == pytest.approx(wall, rel=1e-9)
        assert 0.0 <= m["unattributed_s"] < wall
        assert all(m[f"{layer}.self_s"] >= 0.0 for layer in spans.LAYERS)
        assert m["stepping.nfev"] > 0 and m["model.omega_calls"] > 0
        assert 0.0 < m["dynamics.relax_nfev_share"] < 1.0
        assert m["cli.write_csv_calls"] == 2 and m["cli.csv_bytes"] > 0
        results.append({k: v for k, v in m.items() if spans.is_count(k)})
        assert tracer.spans and all("start" in s and "end" in s for s in tracer.spans)
    assert results[0] == results[1]


def test_errors_are_counted_once_per_layer(tmpdir):
    tracer = spans.Tracer()
    doc = dict(run.TABULATED)
    params = tmpdir / "tab.json"
    params.write_text(json.dumps(doc))
    with tracer.installed():
        code = cli.main(["temperature", "--params", str(params), "--out", str(tmpdir / "o")])
    assert code == 2
    m = tracer.layer_metrics(0.0)
    assert m["model.errors"] == 1 and m["stepping.errors"] == 1 and m["dynamics.errors"] == 1
    assert m["cli.errors"] == 0  # main turns the exception into exit 2


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(workload):
    a, b, c = (workloads.generate(workload, s) for s in (1, 1, 2))
    assert [s.doc for s in a] == [s.doc for s in b]
    assert [s.doc for s in a] != [s.doc for s in c]
    for solve in a:
        model.config_from_dict(solve.doc)


def test_gate_rejects_corrupted_output(tmpdir):
    _, out = _run_cli(tmpdir, "ok", ["temperature"], _small())
    csv = out / "temperature.csv"
    impulses = out / "temperature_impulses.csv"
    assert checks.check_thermo_csv(csv, _small(), impulses) == []
    lines = csv.read_text().splitlines()
    names = lines[1].split(",")
    j = names.index("P")
    bad = []
    for line in lines[2:]:
        cells = line.split(",")
        cells[j] = repr(float(cells[j]) + 1e-3)
        bad.append(",".join(cells))
    csv.write_text("\n".join(lines[:2] + bad) + "\n")
    assert checks.check_thermo_csv(csv, _small(), impulses)
    impulses.write_text("\n".join(impulses.read_text().splitlines()[:2]) + "\n")
    csv.write_text("\n".join(lines) + "\n")
    assert any("first-law" in p for p in checks.check_thermo_csv(csv, _small(), impulses))


def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_package_source(tmpdir):
    shutil.copytree(HERE, tmpdir / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmpdir / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "occupancy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmpdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_outputs_fail_the_solve_instead_of_the_run(tmpdir):
    import driven_resonator

    solve = workloads.Solve("t", _small(), "temperature")
    batches = run.Batches(driven_resonator, [solve], {}, {}, tmpdir)
    batches._gate(tmpdir / "nothing-written", [0])
    assert batches.failed == 1 and "unreadable" in batches.problems[0]


def test_reference_batch_divides_out_the_host_speed(tmpdir):
    import driven_resonator

    solves = [workloads.Solve("a", _small(), "temperature"), workloads.Solve("b", _small(), "thermo")]
    batches = run.Batches(driven_resonator, solves, {}, {}, tmpdir)
    batches.solve_times = {"a": [1.0, 3.0], "b": [2.0, 2.0]}
    batches.kernel_times = [0.1, 0.3]
    reference = calibration.REFERENCE_S["stepper"]
    assert batches.reference_batch("stepper") == pytest.approx(4.0 / 0.2 * reference)
    # a host twice as slow doubles the solves and the kernel alike
    batches.solve_times = {k: [2.0 * t for t in v] for k, v in batches.solve_times.items()}
    batches.kernel_times = [2.0 * t for t in batches.kernel_times]
    assert batches.reference_batch("stepper") == pytest.approx(4.0 / 0.2 * reference)


def test_every_workload_has_a_reference_kernel():
    assert set(workloads.KERNEL) == set(workloads.WORKLOADS)
    for kind in set(workloads.KERNEL.values()):
        assert calibration.sample(kind) > 0.0
