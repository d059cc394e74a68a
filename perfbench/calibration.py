"""Reference kernels that gauge the host's current speed.

A shared host changes speed by up to 2x, over times from a second to
minutes, and a batch timed in a slow stretch reads slow however long the
run. The benchmark therefore runs a fixed kernel between the timed solves,
about once per second of solving, and reports the mean batch time over the
mean kernel time, times the kernel's time on the reference host: slow
stretches lengthen both and cancel. The
kernels use no package code, only numpy and scipy, and each has the mix of
work of the workloads it serves, because a slow stretch slows different
work by different amounts:

stepper  an RK45 solve at rtol 1e-12 of a 3-component state with a Python
         right-hand side, as the occupancy equation and the counting jets
         have: per-call interpreter overhead (occupancy, counting).
fock     the Fock oracle's generator arithmetic (broadcast tables, shifted
         slices) over a stack of density matrices of its size, then a
         shorter stepper solve: numpy work on arrays of 28k complex
         entries plus RK45 step overhead, the oracle's mix (oracle).

REFERENCE_S holds each kernel's typical time on the reference host, one
core of a 2-vCPU Intel Xeon virtual machine, so that the reported times
read as seconds on that host. They are fixed: changing them rescales every
reported time.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import solve_ivp

REFERENCE_S = {"stepper": 0.10, "fock": 0.08}


def _rhs(t, y):
    w = 1.0 + 0.05 * math.sin(0.1 * t)
    dn = 0.03 * (1.0 / math.expm1(w / 1.5) - y[0])
    return (dn, 0.005 * y[0] * math.cos(0.1 * t), w * dn)


def _ode(t_end: float) -> float:
    sol = solve_ivp(_rhs, (0.0, t_end), np.array([1.0, 0.0, 0.0]), rtol=1e-12, atol=1e-12)
    return float(sol.y[0, -1])


# a stack of 64 density matrices of 21 x 21 entries, as the oracle's tilted
# grid holds at n_max 20; buffers are made once, so that the kernel's time
# does not depend on how the program's own arrays left the allocator
_RHO = np.exp(1j * np.linspace(0.0, 1.0, 64 * 21 * 21)).reshape(64, 21, 21)
_DIFF = np.linspace(-1.0, 1.0, 21 * 21).reshape(21, 21)
_WEIGHT = np.linspace(0.5, 1.0, 20 * 20).reshape(20, 20)
_OUT = np.empty_like(_RHO)
_TMP = np.empty_like(_RHO)


def stepper() -> float:
    return _ode(1000.0)


def fock() -> float:
    rho, out, tmp = _RHO, _OUT, _TMP
    for _ in range(60):
        np.multiply(rho, _DIFF, out=out)
        np.multiply(rho, 0.3, out=tmp)
        out -= tmp
        np.multiply(rho[..., 1:, 1:], _WEIGHT, out=tmp[..., :-1, :-1])
        out[..., :-1, :-1] += tmp[..., :-1, :-1]
        np.multiply(rho[..., :-1, :-1], _WEIGHT, out=tmp[..., 1:, 1:])
        out[..., 1:, 1:] += tmp[..., 1:, 1:]
    return _ode(500.0) + float(out.real.sum())


KERNELS = {"stepper": stepper, "fock": fock}


def sample(kind: str) -> float:
    """Seconds one run of the named kernel takes now."""
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start
