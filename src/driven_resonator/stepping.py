"""Segmented adaptive ODE integration for the counting pair, its cumulant
jets and the Fock oracle.

The scalar occupancy equation is linear and needs no stepper: dynamics
solves it by quadrature. The systems integrated here are nonlinear (the
counting pair is a Riccati equation) or large (Fock populations), and
smooth except at drive discontinuities, so the integrator is an explicit
embedded Runge-Kutta pair restarted exactly at every breakpoint: by default
scipy's Dormand-Prince 8(5,3) pair DOP853, whose eighth order needs about a
third of RK45's right-hand-side calls at the package's 1e-12 tolerances; the
Fock oracle keeps RK45, to stay independent of the fast paths. The
right-hand sides of the counting pair and its jets are affine in the one
time-dependent scalar n_B(t), so their callers build the coefficients once
per solve and a call costs a few array operations (counting_pair_rhs and
cumulant_jet_rhs in counting); the stepper's own work per step is then a
large share of the cost.

The stepper object is driven directly: a sample at the end of a step is
the stepper's own state, and dense output is built only for steps with a
sample inside them. Within a segment the drive is smooth; at a segment's
right endpoint the left limit of the drive must be used, which is what the
``side`` argument of the RHS callback is for.

IntegrationError is also the package's error for a failed error
certificate of the occupancy quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853

__all__ = ["IntegrationError", "SegmentedResult", "integrate_segmented", "DEFAULT_RTOL", "DEFAULT_ATOL"]

# tight defaults: cheap for the scalar/jet systems and leaves headroom for
# the 1e-9-level periodicity certificates
DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12


class IntegrationError(RuntimeError):
    """Raised when the stepper cannot meet its local error target, or when
    the occupancy quadrature's certificate fails."""


@dataclass
class SegmentedResult:
    t: np.ndarray          # requested sample times
    y: np.ndarray          # states at sample times, shape (len(t), n)
    y_final: np.ndarray    # state at t_end
    breakpoint_times: np.ndarray  # the breakpoints strictly inside t_span
    nfev: int


def integrate_segmented(
    rhs,
    t_span,
    y0,
    *,
    breakpoints=(),
    t_eval=None,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    method=DOP853,
) -> SegmentedResult:
    """Integrate dy/dt = rhs(t, y, side) over t_span with exact restarts.

    rhs        : callable (t, y, side) -> dy; side is -1 only when t is the
                 right endpoint of the current smooth segment, +1 otherwise
    breakpoints: times where rhs is discontinuous; only those strictly inside
                 t_span are used, each becomes a mandatory step boundary
    t_eval     : strictly increasing sample times within t_span (may include
                 endpoints)
    method     : a scipy explicit Runge-Kutta stepper class (DOP853, RK45)
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("integrate_segmented requires t_span[1] > t_span[0]")
    y0 = np.asarray(y0, dtype=complex if np.iscomplexobj(y0) else float)

    bps = np.asarray(sorted(set(float(b) for b in np.atleast_1d(breakpoints))), dtype=float)
    bps = bps[(bps > t0) & (bps < t1)]
    boundaries = np.concatenate([[t0], bps, [t1]])

    if t_eval is None:
        t_eval = np.array([t0, t1])
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.size and (t_eval[0] < t0 or t_eval[-1] > t1):
        raise ValueError("t_eval must lie within t_span")

    # sample blocks, each of shape (k, n); a sample at t0 is y0 itself
    samples = [y0[None]] if t_eval.size and t_eval[0] == t0 else []
    done = len(samples)  # t_eval[:done] are sampled
    nfev = 0

    y = y0
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        def seg_rhs(t, yy, _b=b):
            return rhs(t, yy, -1 if t == _b else +1)

        stepper = method(seg_rhs, a, y, b, rtol=rtol, atol=atol)
        while stepper.status == "running":
            message = stepper.step()
            if stepper.status == "failed":
                raise IntegrationError(f"step-size failure in [{a}, {b}]: {message}")
            upto = int(np.searchsorted(t_eval, stepper.t, side="right"))
            if upto > done:
                inner = t_eval[done:upto]
                at_end = inner[-1] == stepper.t
                if at_end:
                    inner = inner[:-1]
                if inner.size:
                    samples.append(stepper.dense_output()(inner).T)
                if at_end:
                    samples.append(stepper.y[None])
                done = upto
        nfev += stepper.nfev
        y = stepper.y

    empty = np.empty((0, y0.size), dtype=y0.dtype)
    return SegmentedResult(
        t=t_eval.copy(),
        y=np.concatenate(samples) if samples else empty,
        y_final=y,
        breakpoint_times=bps,
        nfev=nfev,
    )
