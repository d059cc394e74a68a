"""Layer tracing from outside the package.

``Tracer.installed()`` replaces public functions of each package module
with timing wrappers for the duration of a ``with`` block and restores the
originals afterwards; nothing under ``src/`` is edited. A wrapped function
is rebound in every package module that imported it by name, so calls made
through ``from .stepping import integrate_segmented`` are seen too.

Each wrapped call is a span with name, start, end, parent and the traced
batch it belongs to. Spans of the
functions called once per right-hand-side evaluation (``HOT``) would number
in the hundreds of thousands per batch, so they are not stored one by one:
each is folded into its nearest stored ancestor as a call count and total
time. Stored or folded, every span takes part in the self-time accounting:
its self time is its duration minus the time its child spans cover, and it
is credited to the span's layer.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "driven_resonator"

LAYERS = (
    "model",
    "stepping",
    "dynamics",
    "series",
    "linear_response",
    "counting",
    "fock_oracle",
    "verify",
    "cli",
)

# called once per RHS evaluation: folded into their parent, never stored
HOT = frozenset({
    "model.DriveWaveform.omega",
    "model.DriveWaveform.slope",
    "series.jet_mul",
    "counting.cumulant_jet_rhs",
    "fock_oracle.apply_tilted_generator",
})

# cli has no __all__, and its cmd_* handlers are reached through the
# COMMANDS table, where rebinding the module attribute would not be seen
CLI_FUNCTIONS = ("main", "write_csv", "write_manifest", "config_hash")


def _targets():
    """(layer, span name, owner, attribute, function) for every wrapped callable."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        names = CLI_FUNCTIONS if layer == "cli" else module.__all__
        for attr in names:
            fn = getattr(module, attr)
            if callable(fn) and not isinstance(fn, type):
                out.append((layer, f"{layer}.{attr}", module, attr, fn))
    drive = sys.modules[f"{PACKAGE}.model"].DriveWaveform
    for attr in ("omega", "slope"):
        out.append(("model", f"model.DriveWaveform.{attr}", drive, attr, getattr(drive, attr)))
    return out


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "nfev_below", "record", "holder")

    def __init__(self, name, layer, record, holder):
        self.name = name
        self.layer = layer
        self.record = record
        self.holder = holder  # nearest stored span: this one or an ancestor
        self.start = 0.0
        self.child = 0.0
        self.nfev_below = 0


class Tracer:
    """Spans and per-layer counters, kept in memory until written out."""

    def __init__(self):
        self.spans: list[dict] = []
        self.batch = -1
        self.reset()

    def reset(self):
        """Start a new accounting window (one traced batch); stored spans are kept."""
        self.batch += 1
        self.stack: list[_Frame] = []
        self.self_s = defaultdict(float)        # layer -> self time
        self.outer_s = defaultdict(float)       # layer -> time in outermost spans of the layer
        self.errors = defaultdict(int)          # layer -> exceptions leaving the layer
        self.calls = defaultdict(int)           # span name -> calls
        self.total_s = defaultdict(float)       # span name -> inclusive time
        self.self_by_name = defaultdict(float)  # span name -> self time
        # per integrate_segmented call: (nfev, segments, elems, itemsize, ancestors, parent)
        self.steps = []
        self.tilted_s = 0.0
        self.fields = 0
        self.field_evals = 0
        self.csv_bytes = 0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        hot = name in HOT
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            holder = stack[-1].holder if stack else None
            record = None
            if not hot:
                record = {"name": name, "parent": holder["id"] if holder else None,
                          "id": len(tracer.spans), "batch": tracer.batch}
                tracer.spans.append(record)
            frame = _Frame(name, layer, record, record or holder)
            stack.append(frame)
            failed = True
            result = None
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                own = dur - frame.child
                tracer.self_s[layer] += own
                tracer.self_by_name[name] += own
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                outer = not stack or stack[-1].layer != layer
                if outer:
                    tracer.outer_s[layer] += dur
                    if failed:
                        tracer.errors[layer] += 1
                if stack:
                    stack[-1].child += dur
                if record is not None:
                    record["start"], record["end"] = frame.start, end
                    if not failed:
                        tracer._on_exit(name, frame, dur, args, result)
                elif holder is not None:
                    folded = holder.setdefault("folded", {}).setdefault(name, [0, 0.0])
                    folded[0] += 1
                    folded[1] += dur

        return traced

    def _on_exit(self, name, frame, dur, args, result):
        if name == "stepping.integrate_segmented":
            y0 = np.asarray(args[2])
            ancestors = frozenset(f.name for f in self.stack)
            parent = self.stack[-1].name if self.stack else None
            self.steps.append((int(result.nfev), int(result.breakpoint_times.size) + 1,
                               int(y0.size), int(y0.dtype.itemsize), ancestors, parent))
            for f in self.stack:
                f.nfev_below += int(result.nfev)
        elif name == "counting.evolve_counting":
            fields = int(np.atleast_1d(args[0]).size)
            self.fields += fields
            self.field_evals += fields * frame.nfev_below
        elif name == "fock_oracle.evolve_fock":
            if not any(f.name == "fock_oracle.relax_fock_periodic" for f in self.stack):
                self.tilted_s += dur
        elif name == "cli.write_csv":
            self.csv_bytes += os.path.getsize(args[0])

    def installed(self):
        """Context manager that installs the wrappers and always removes them."""
        return _Installation(self)

    # -- results --------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the window since the last reset.

        wall_s is the traced batch's wall time; what no layer span covers
        is reported as unattributed_s, so the layer self times and
        unattributed_s add up to it.
        """
        c, t = self.calls, self.total_s

        def nfev(pred=lambda s: True):
            return sum(s[0] for s in self.steps if pred(s))

        nfev_all = nfev()
        relax_nfev = nfev(lambda s: "dynamics.relax_to_periodic" in s[4])
        fock = [s for s in self.steps if any(a.startswith("fock_oracle.") for a in s[4])]
        fock_nfev = sum(s[0] for s in fock)
        stepping_self = self.self_s["stepping"]
        m = {
            "model.omega_calls": c["model.DriveWaveform.omega"],
            "model.omega_s": t["model.DriveWaveform.omega"],
            "model.slope_calls": c["model.DriveWaveform.slope"],
            "model.slope_s": t["model.DriveWaveform.slope"],
            "stepping.calls": c["stepping.integrate_segmented"],
            "stepping.segments": sum(s[1] for s in self.steps),
            "stepping.nfev": nfev_all,
            "stepping.self_s": stepping_self,
            "stepping.us_per_eval": 1e6 * stepping_self / nfev_all if nfev_all else 0.0,
            "dynamics.relax_calls": c["dynamics.relax_to_periodic"],
            "dynamics.relax_s": t["dynamics.relax_to_periodic"],
            "dynamics.relax_nfev": relax_nfev,
            "dynamics.relax_nfev_share": relax_nfev / nfev_all if nfev_all else 0.0,
            "dynamics.trajectory_s": t["dynamics.occupancy_trajectory"],
            "dynamics.observables_s": t["dynamics.thermo_observables"],
            "series.jet_mul_calls": c["series.jet_mul"],
            "series.jet_mul_s": t["series.jet_mul"],
            "counting.epoch_s": t["counting.counting_epoch"],
            "counting.cumulants_s": t["counting.cumulant_trajectories"],
            "counting.cumulants_nfev": nfev(lambda s: s[5] == "counting.cumulant_trajectories"),
            "counting.evolve_s": t["counting.evolve_counting"],
            "counting.fields": self.fields,
            "counting.field_evals": self.field_evals,
            "counting.invert_s": self.self_by_name["counting.distribution"],
            "linear_response.calls": sum(v for k, v in c.items() if k.startswith("linear_response.")),
            "linear_response.s": self.outer_s["linear_response"],
            "fock_oracle.relax_s": t["fock_oracle.relax_fock_periodic"],
            "fock_oracle.relax_nfev": nfev(lambda s: "fock_oracle.relax_fock_periodic" in s[4]),
            "fock_oracle.tilted_s": self.tilted_s,
            "fock_oracle.ladder_s": t["fock_oracle.m_resolved_evolve"],
            "fock_oracle.nfev": fock_nfev,
            "fock_oracle.generator_calls": c["fock_oracle.apply_tilted_generator"],
            "fock_oracle.state_elems": max((s[2] for s in fock), default=0),
            # computed, not measured: one read of the state and one write of
            # its derivative per RHS evaluation, averaged over evaluations
            "fock_oracle.bytes_per_eval_computed": (
                sum(s[0] * 2 * s[2] * s[3] for s in fock) / fock_nfev if fock_nfev else 0.0),
            "verify.checks": c["verify.driven_cross_method_check"] + c["verify.run_verification"],
            "cli.main_self_s": self.self_by_name["cli.main"],
            "cli.write_csv_calls": c["cli.write_csv"],
            "cli.write_csv_s": t["cli.write_csv"],
            "cli.csv_bytes": self.csv_bytes,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_s[layer]
            m[f"{layer}.errors"] = self.errors[layer]
        m["unattributed_s"] = wall_s - sum(self.self_s[layer] for layer in LAYERS)
        return m


class _Installation:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, name, owner, attr, fn in _targets():
            wrapper = self.tracer._wrap(layer, name, fn)
            if isinstance(owner, type):
                self._rebind(owner, attr, fn, wrapper)
                continue
            # rebind every name under which a package module imported fn
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, fn, wrapper)
        return self.tracer

    def _rebind(self, owner, key, fn, wrapper):
        self.saved.append((owner, key, fn))
        setattr(owner, key, wrapper)

    def __exit__(self, *exc):
        for owner, key, fn in reversed(self.saved):
            setattr(owner, key, fn)
        self.saved.clear()
        return False


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_eval"):
        return "us"
    if name.endswith("_share"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def is_count(name: str) -> bool:
    """Work counts, and ratios and sizes computed from them: exact on every run."""
    return unit_of(name) not in ("s", "us")


METRIC_NAMES = tuple(Tracer().layer_metrics(0.0))
