"""Independent brute-force verification in a truncated Fock space.

Everything else in this package reduces the open-system dynamics to a few
scalar ODEs by exploiting the thermal form of the state. This module does
not. Its reference is the complete tilted generator on density matrices

    L(s) rho = -i omega [N, rho]
             + gamma (1 + n_B) (e^s  a rho a+ - {a+ a, rho}/2)
             + gamma n_B       (e^-s a+ rho a - {a a+, rho}/2)

with the counting-field weights e^{+-s} attached to the emission and
absorption jump terms, built as a dense matrix by build_tilted_generator.
L(s) is phase covariant: it maps diagonal matrices to diagonal matrices,
and on them the commutator term vanishes. Every state evolved here starts
diagonal (thermal or periodic), so the integrators evolve only the level
populations p_j, under the tridiagonal population generator

    dp_j/dt = gamma (1 + n_B) (e^s  (j+1) p_{j+1} - j p_j)
            + gamma n_B       (e^-s j p_{j-1}     - q_j p_j),

with q_j = j + 1 below the top level and q_{n_max} = 0. The same generator
drives the tilted evolution on a counting-field grid and, at s = 0, the
population propagator Phi[j0, j] behind the periodic state and the
two-point measurement of N: a jump moves the count m and the level in
opposite directions, so p(m) = sum_{j0} p0[j0] Phi[j0, j0 - m] (Talkner,
Lutz & Hanggi, PRE 75, 050102(R) (2007)), the transfer-resolved ladder of
populations re-indexed (hence the battery's ``ladder`` names). Agreement
between the scalar reduction and these routes certifies the reduction; the
routes assume diagonal states, not the thermal (geometric) form the scalar
route rests on. Tests tie the population generator to the dense one. The
truncation is capped at 80 levels - this is a desk-scale verification
engine, not a production solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45

from .model import DriveWaveform, SystemParams, bose_einstein
from .stepping import integrate_segmented

__all__ = [
    "TruncationError",
    "N_MAX_CAP",
    "thermal_state",
    "apply_tilted_generator",
    "build_tilted_generator",
    "evolve_fock",
    "population_propagator",
    "relax_fock_periodic",
    "transfer_distribution",
    "total_variation",
    "FockTraceSeries",
]

N_MAX_CAP = 80
ORACLE_RTOL = 1e-10
ORACLE_ATOL = 1e-10
TOP_LEVEL_TOL = 1e-8
# max-norm periodicity certificate on the populations of the periodic state
PERIODIC_TOL = 1e-7


class TruncationError(RuntimeError):
    """Raised when probability reaches the highest retained Fock level."""


def _check_cap(n_max: int):
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > N_MAX_CAP:
        raise ValueError(f"n_max capped at {N_MAX_CAP} for dense verification")


def thermal_state(n_occ: float, n_max: int) -> np.ndarray:
    """Populations of the thermal state with mean occupation n_occ.

    Geometric populations proportional to (n/(1+n))**k over the levels
    0..n_max, renormalized. Rejected if the truncation would hold visible
    probability at the top level.
    """
    _check_cap(n_max)
    if n_occ < 0.0:
        raise ValueError("n_occ must be non-negative")
    q = n_occ / (1.0 + n_occ)
    if q > 0.0 and q**n_max > TOP_LEVEL_TOL:
        raise TruncationError(
            f"(n/(1+n))^n_max = {q**n_max:.2e} > {TOP_LEVEL_TOL}; raise n_max"
        )
    pops = q ** np.arange(n_max + 1)
    return pops / pops.sum()


def apply_tilted_generator(p: np.ndarray, n_b: float, gamma: float):
    """The tilted generator on populations, split by counted jump.

    p has shape (..., n_max + 1). Returns (stay, emitted, absorbed), each of
    p's shape, with L(s) p = stay + e^s emitted + e^-s absorbed: emitted is
    the flux into each level from the one above (a rho a+), absorbed the
    flux from the one below (a+ rho a), and stay the loss of each level.
    """
    j = np.arange(1.0, p.shape[-1])
    down = gamma * (1.0 + n_b) * j * p[..., 1:]  # emission, level j -> j - 1
    up = gamma * n_b * j * p[..., :-1]           # absorption, level j - 1 -> j
    stay = np.zeros_like(p)
    emitted = np.zeros_like(p)
    absorbed = np.zeros_like(p)
    # truncated a a+ is diag(1, ..., n_max, 0): the top level loses nothing
    # to absorption, as it gains nothing from it, which keeps the truncated
    # generator exactly trace-preserving
    stay[..., 1:] -= down
    stay[..., :-1] -= up
    emitted[..., :-1] = down
    absorbed[..., 1:] = up
    return stay, emitted, absorbed


def build_tilted_generator(s, omega: float, params: SystemParams, n_max: int) -> np.ndarray:
    """Dense tilted generator on row-major vectorized density matrices.

    The full-matrix reference for the population generator. At s = 0 this
    is the plain dissipative generator; the left trace functional
    annihilates it there (trace preservation).
    """
    _check_cap(n_max)
    dim = n_max + 1
    n_b = bose_einstein(omega, params.T_e)
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    a_dag = a.conj().T
    num = a_dag @ a        # diag(0..n_max), exact under truncation
    a_adag = a @ a_dag     # diag(1..n_max, 0): truncated product
    eye = np.eye(dim, dtype=complex)
    es, ems = np.exp(s), np.exp(-s)

    def left(A):
        return np.kron(A, eye)

    def right(B):  # rho @ B  ->  kron(I, B.T) on row-major vec
        return np.kron(eye, B.T)

    def sandwich(A, B):  # A rho B
        return np.kron(A, B.T)

    gen = -1j * omega * (left(num) - right(num))
    gen += params.gamma * (1.0 + n_b) * (
        es * sandwich(a, a_dag) - 0.5 * (left(num) + right(num))
    )
    gen += params.gamma * n_b * (
        ems * sandwich(a_dag, a) - 0.5 * (left(a_adag) + right(a_adag))
    )
    return gen


@dataclass(frozen=True)
class FockTraceSeries:
    """Generating-function traces tr rho(s, t) from the Fock evolution."""

    t: np.ndarray
    s: np.ndarray
    trace: np.ndarray         # shape (len(t), len(s)), complex
    occupation: np.ndarray    # number-weighted trace tr(a+ a rho), same shape
    final_states: np.ndarray  # populations, shape (len(s), dim)


def _tilted(tilt_emit, tilt_absorb):
    def combine(stay, emitted, absorbed):
        return stay + tilt_emit * emitted + tilt_absorb * absorbed

    return combine


def _integrate(combine, y0, params, drive, t_span, t_eval, rtol, atol):
    """Evolve a stack of populations y0 (levels on the last axis) under
    dy/dt = combine(*apply_tilted_generator(y, n_B(t), gamma)).

    Returns (sample times, samples, final state), the stack's shape kept.
    """
    _check_cap(y0.shape[-1] - 1)
    gamma, T_e = params.gamma, params.T_e
    shape = y0.shape

    def rhs(t, y, side):
        n_b = 1.0 / math.expm1(drive.omega(t, side) / T_e)
        return combine(*apply_tilted_generator(y.reshape(shape), n_b, gamma)).ravel()

    t0, t1 = float(t_span[0]), float(t_span[1])
    res = integrate_segmented(
        rhs,
        (t0, t1),
        y0.ravel(),
        breakpoints=drive.breakpoints(t0, t1),
        t_eval=t_eval,
        rtol=rtol,
        atol=atol,
        # independent of the fast paths' DOP853, which at 1e-10 lifts the top level past TOP_LEVEL_TOL
        method=RK45,
    )
    return res.t, res.y.reshape(len(res.t), *shape), res.y_final.reshape(shape)


def evolve_fock(
    p0: np.ndarray,
    params: SystemParams,
    drive: DriveWaveform,
    s,
    t_span,
    t_eval=None,
    *,
    rtol: float = ORACLE_RTOL,
    atol: float = ORACLE_ATOL,
) -> FockTraceSeries:
    """Evolve the populations p0 under the tilted generator.

    s may be a scalar or 1-D array; one copy of p0 is propagated per value,
    all sharing the integrator's adaptive steps (the runs are independent, so
    shared stepping cannot couple them). Truncation health is checked at all
    sample times: the top-level population must stay below TOP_LEVEL_TOL
    relative to the trace scale.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    shape = (s_arr.size, p0.shape[-1])
    y0 = np.broadcast_to(p0, shape).astype(complex)
    combine = _tilted(np.exp(s_arr)[:, None], np.exp(-s_arr)[:, None])
    t, states, final = _integrate(combine, y0, params, drive, t_span, t_eval, rtol, atol)
    traces = states.sum(axis=-1)
    top = np.abs(states[..., -1])
    scale = np.maximum(1.0, np.abs(traces))
    if np.any(top > TOP_LEVEL_TOL * scale):
        raise TruncationError(f"top Fock level reached {np.max(top / scale):.2e}; raise n_max")
    return FockTraceSeries(
        t=t,
        s=s_arr,
        trace=traces,
        occupation=states @ np.arange(shape[1]),
        final_states=final,
    )


def population_propagator(params: SystemParams, drive: DriveWaveform, n_max: int, t_span) -> np.ndarray:
    """Phi over t_span: phi[j0, j] is the probability of level j at the end
    given level j0 at the start, its rows the basis populations evolved."""
    eye = np.eye(n_max + 1)
    return _integrate(_tilted(1.0, 1.0), eye, params, drive, t_span, None, ORACLE_RTOL, ORACLE_ATOL)[2]


def transfer_distribution(p0: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-point distribution (m, p) of net emissions m = j0 - j in [-n_max, n_max],
    p(m) = sum_{j0} p0[j0] phi[j0, j0 - m], from the populations p0 when
    counting starts and the population propagator phi over the window."""
    n_max = p0.size - 1
    j0, j = np.indices(phi.shape)
    p = np.bincount((j0 - j + n_max).ravel(), weights=(p0[:, None] * phi).ravel())
    return np.arange(-n_max, n_max + 1), p


def relax_fock_periodic(
    params: SystemParams, drive: DriveWaveform, n_max: int = 40
) -> tuple[np.ndarray, np.ndarray]:
    """Fock-space route to the periodic state: (its populations at t = 0, Phi).

    One drive period from cycle phase zero maps p to p @ Phi exactly, Phi
    the population_propagator over the period. The periodic state solves
    (Phi^T - I) p = 0 with one (dependent) row replaced by sum(p) = 1, and
    is certified by evolving one more period from it: RuntimeError unless
    the max-norm defect stays below PERIODIC_TOL. Without dissipation
    (gamma = 0) Phi = I, every state is periodic, and the
    reservoir-equilibrium populations are returned, as
    dynamics.relax_to_periodic does. With dissipation the drive must be
    periodic (ValueError otherwise).
    """
    dim = n_max + 1
    if params.gamma == 0.0:
        return thermal_state(params.n_thermal, n_max), np.eye(dim)
    if not drive.is_periodic:
        raise ValueError(f"the Fock periodic state needs a periodic drive, not {drive.kind!r}")
    tau = drive.period
    phi = population_propagator(params, drive, n_max, (0.0, tau))
    system = phi.T - np.eye(dim)
    system[-1] = 1.0
    p = np.linalg.solve(system, np.eye(dim)[-1])
    again = evolve_fock(p, params, drive, 0.0, (0.0, tau))
    defect = float(np.max(np.abs(again.final_states[0] - p)))
    if not defect < PERIODIC_TOL:
        raise RuntimeError(
            f"Fock periodic-state certificate {defect:.2e} above {PERIODIC_TOL:.1e}"
        )
    return p, phi


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Half the absolute difference mass between two distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("total_variation requires a common transfer window")
    return 0.5 * float(np.abs(p - q).sum())
