"""Full counting statistics of net photon exchanges with the reservoir.

The statistics of the net number m of photons emitted into the reservoir
during a counting window are encoded in a generating function whose
logarithm C(s, t) and companion counting-field-shifted occupation n(s, t)
obey a closed pair of ODEs:

    dC/dt = gamma*(e^s - 1)*n_s*(1 + n_B) + gamma*(e^-s - 1)*n_B*(1 + n_s)
    dn_s/dt = gamma*(e^s - 1)*n_s^2*(1 + n_B)
            + gamma*(e^-s - 1)*n_B*(1 + n_s)^2 + gamma*(n_B - n_s)

with n_B evaluated at the instantaneous drive frequency. Counting starts
with C = 0 and n_s equal to the physical occupation. At s = 0 the pair
degenerates to the plain occupancy equation. The counting-field formalism
is that of Esposito, Harbola & Mukamel, Rev. Mod. Phys. 81, 1665 (2009).

The only time-dependent quantity in the pair is the scalar n_B(t), and
every coefficient is affine in it. With g_e = gamma*(e^s - 1) and
g_a = gamma*(e^-s - 1) the pair reads

    dC/dt   = a*n_s + g_a*n_B
    dn_s/dt = (a*n_s + b)*n_s + (g_a + gamma)*n_B,
    a = g_e + (g_e + g_a)*n_B,   b = 2*g_a*n_B - gamma,

so the coefficients are built once per solve, and a right-hand side call
costs a few array operations (counting_pair_rhs). The same holds for the
jets (cumulant_jet_rhs).

Three consumers build on the pair:

* cumulants of any order, by propagating the pair as truncated power-series
  jets in s (the hierarchy of coupled ODEs is generated by series
  arithmetic, never derived by hand);
* the full distribution p(m, t), by evaluating the generating function on a
  uniform grid of purely imaginary counting fields and applying a discrete
  Fourier transform — for integer m the inversion integral is exactly a
  Fourier series, so the only error is aliasing of mass outside the window,
  which theta_grid_size bounds;
* the saturated equilibrium distribution in closed form, as an oracle.

For periodically driven figures, counting begins after the occupation has
relaxed to the certified periodic state, with the reset placed at cycle
phase zero (times congruent to 0 modulo the period).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import relax_to_periodic
from .model import DriveWaveform, SimulationGrid, SystemParams
from .series import exp_minus_one_jet, jet_mul_matrix
from .stepping import DEFAULT_ATOL, DEFAULT_RTOL, integrate_segmented

__all__ = [
    "CountingOverflowError",
    "DistributionError",
    "CountingSeries",
    "CumulantTrajectories",
    "PhotonDistribution",
    "evolve_counting",
    "counting_pair_rhs",
    "cumulant_jet_rhs",
    "cumulant_trajectories",
    "theta_grid_size",
    "window_tail_bound",
    "automatic_window",
    "distribution",
    "equilibrium_distribution",
    "counting_epoch",
]

# e^C must stay representable in double precision
REAL_CGF_BOUND = 700.0

# highest cumulant order the jet propagation accepts
JET_CAPACITY = 8

# bound on the mass outside an automatically sized transfer window
WINDOW_TAIL = 1e-9


class CountingOverflowError(RuntimeError):
    """Raised when Re C(s, t) exceeds the representable-exponent guard."""


class DistributionError(RuntimeError):
    """Raised when a reconstructed distribution fails its sanity checks."""


@dataclass(frozen=True)
class CountingSeries:
    """C(s, t) and n(s, t) sampled along a counting window, per s value."""

    t: np.ndarray        # absolute times
    s: np.ndarray        # counting-field values, shape (n_s,)
    cgf: np.ndarray      # shape (len(t), n_s), complex
    occupation: np.ndarray  # shape (len(t), n_s), complex


@dataclass(frozen=True)
class CumulantTrajectories:
    """Cumulants 1..K accumulated since the counting reset."""

    t: np.ndarray          # time since the reset
    epoch: float           # absolute time of the reset
    cumulants: np.ndarray  # shape (len(t), K)
    occupation_jet: np.ndarray  # shape (len(t), K+1), jet coefficients of n(s, t)

    @property
    def order(self) -> int:
        return self.cumulants.shape[1]


@dataclass(frozen=True)
class PhotonDistribution:
    """Probabilities of net photon transfers m in a symmetric window."""

    t: float
    m: np.ndarray
    p: np.ndarray

    @property
    def m_max(self) -> int:
        return int(self.m[-1])

    def mean(self) -> float:
        return float(np.dot(self.m, self.p))

    def central_moment(self, order: int) -> float:
        mu = self.mean()
        return float(np.dot((self.m - mu) ** order, self.p))

    def variance(self) -> float:
        return self.central_moment(2)


def counting_epoch(
    params: SystemParams,
    drive: DriveWaveform,
    grid: SimulationGrid,
    n_init: float | None = None,
):
    """(reset time, occupation at reset) for counting from the periodic state.

    When n_init is given, counting instead starts at grid.t_start from that
    occupation with no relaxation pre-run.
    """
    if n_init is not None:
        return float(grid.t_start), float(n_init)
    periodic = relax_to_periodic(params, drive, grid)
    return periodic.epoch, periodic.start_occupation


def counting_pair_rhs(s, gamma: float):
    """Right-hand side f(n_s, n_B) -> (dC/dt, dn_s/dt) of the counting pair,
    concatenated, for the counting fields s (1-D, complex).

    Every coefficient is affine in n_B, so the coefficients are built here,
    once, and a call costs about ten array operations.
    """
    g_e = gamma * np.expm1(s)   # gamma*(e^s - 1)
    g_a = gamma * np.expm1(-s)  # gamma*(e^-s - 1)
    g_sum = g_e + g_a
    g_a2 = 2.0 * g_a
    g_d = g_a + gamma

    def rhs(n_s, n_b: float):
        an = (g_e + n_b * g_sum) * n_s
        return np.concatenate([an + n_b * g_a, (an + (n_b * g_a2 - gamma)) * n_s + n_b * g_d])

    return rhs


def evolve_counting(
    s,
    params: SystemParams,
    drive: DriveWaveform,
    t_span,
    n_init: float,
    t_eval=None,
    *,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> CountingSeries:
    """Propagate the counting pair for one or many counting-field values.

    Counting starts at t_span[0] with C = 0 and n_s = n_init (the physical
    occupation there). s may be a scalar or a 1-D array (real or complex);
    all values share the integrator's adaptive steps.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    ns = s_arr.size
    T_e = params.T_e
    pair = counting_pair_rhs(s_arr, params.gamma)

    t0, t1 = float(t_span[0]), float(t_span[1])
    if t_eval is None:
        t_eval = np.array([t0, t1])

    def rhs(t, y, side):
        # guard during stepping: divergence can kill the stepper before any
        # sample is collected, so the bound must be enforced on the fly
        if y[:ns].real.max() > REAL_CGF_BOUND:
            raise CountingOverflowError(
                f"Re C exceeded {REAL_CGF_BOUND} at t = {t:.6g}; the "
                "generating function would overflow"
            )
        return pair(y[ns:], 1.0 / math.expm1(drive.omega(t, side) / T_e))

    y0 = np.concatenate([np.zeros(ns, dtype=complex), np.full(ns, n_init, dtype=complex)])
    res = integrate_segmented(
        rhs,
        (t0, t1),
        y0,
        breakpoints=drive.breakpoints(t0, t1),
        t_eval=np.asarray(t_eval, dtype=float),
        rtol=rtol,
        atol=atol,
    )
    cgf = res.y[:, :ns]
    if np.any(np.real(cgf) > REAL_CGF_BOUND):
        raise CountingOverflowError(
            f"Re C exceeded {REAL_CGF_BOUND}; the generating function would overflow"
        )
    return CountingSeries(t=res.t, s=s_arr, cgf=cgf, occupation=res.y[:, ns:])


def cumulant_jet_rhs(order: int, gamma: float):
    """Right-hand side f(nu, n_B) -> (d c_hat/dt, d nu/dt) of the
    counting-pair jets to the given order, concatenated.

    c_hat and nu are coefficient arrays of C(s, t) and n(s, t) in powers of
    s (coefficient k = cumulant_k / k! and n_k / k!); C does not enter the
    pair. The pair's series products with the jets of e^s - 1 and e^-s - 1
    are fixed matrices, and every coefficient is affine in n_B, so

        f(nu, n_B) = (m0 + n_B*m1) @ [nu, nu*nu] + n_B*b1,

    with nu*nu the truncated self-product: one convolution and one
    matrix-vector product per call. The hand-derived low-order hierarchy
    equations are recovered exactly.
    """
    k1 = order + 1
    em1 = exp_minus_one_jet(order, -1)
    ep1_mul, em1_mul = jet_mul_matrix(exp_minus_one_jet(order, +1)), jet_mul_matrix(em1)
    both = ep1_mul + em1_mul
    eye, zero = np.eye(k1), np.zeros((k1, k1))
    # rows: d c_hat, d nu; columns: nu, nu*nu
    m0 = gamma * np.block([[ep1_mul, zero], [-eye, ep1_mul]])
    m1 = gamma * np.block([[both, zero], [2.0 * em1_mul, both]])
    b1 = gamma * np.concatenate([em1, em1 + eye[0]])

    def rhs(nu, n_b: float):
        z = np.concatenate([nu, np.convolve(nu, nu)[:k1]])
        return (m0 + n_b * m1) @ z + n_b * b1

    return rhs


def cumulant_trajectories(
    order: int,
    params: SystemParams,
    drive: DriveWaveform,
    grid: SimulationGrid,
    *,
    n_init: float | None = None,
) -> CumulantTrajectories:
    """First ``order`` cumulants versus time since the counting reset.

    The counting window has the grid's length; by default it starts at the
    certified periodic state (cycle phase zero), or at grid.t_start with the
    supplied occupation when n_init is given. Orders beyond JET_CAPACITY
    are refused.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > JET_CAPACITY:
        raise ValueError(f"order {order} exceeds the jet capacity {JET_CAPACITY}")
    k1 = order + 1
    T_e = params.T_e
    jets = cumulant_jet_rhs(order, params.gamma)

    t0, n0 = counting_epoch(params, drive, grid, n_init)
    duration = grid.t_end - grid.t_start
    t1 = t0 + duration
    rel_times = grid.times() - grid.t_start

    def rhs(t, y, side):
        return jets(y[k1:], 1.0 / math.expm1(drive.omega(t, side) / T_e))

    y0 = np.zeros(2 * k1)
    y0[k1] = n0
    res = integrate_segmented(
        rhs,
        (t0, t1),
        y0,
        breakpoints=drive.breakpoints(t0, t1),
        t_eval=t0 + rel_times,
    )
    factorials = np.array([math.factorial(k) for k in range(1, k1)])
    return CumulantTrajectories(
        t=rel_times,
        epoch=t0,
        cumulants=res.y[:, 1:k1] * factorials,
        occupation_jet=res.y[:, k1:],
    )


def theta_grid_size(m_max: int) -> int:
    """Smallest power of two N >= 3*m_max + 2 counting fields.

    The discrete Fourier transform on N fields folds p(m') onto m' mod N,
    so the mass aliased into the window |m| <= M comes from |m'| >= N - M,
    and is at most window_tail_bound(n_start, n_end, N - M - 1). With
    N >= 3M + 2 that is at most q0^(2M+2) + q1^(2M+2), which is at most the
    square of the window's own window_tail_bound(n_start, n_end, M).
    """
    return 1 << (3 * m_max + 1).bit_length()


def window_tail_bound(n_start: float, n_end: float, m_max: int) -> float:
    """Bound on P(|m| > m_max). The drive commutes with N, so m = N(0) - N(t),
    and both are geometric, P(N > M) = q^(M+1) with q = n/(1+n)."""
    return sum((n / (1.0 + n)) ** (m_max + 1) for n in (n_start, n_end))


def automatic_window(n_start: float, n_end: float) -> int:
    """Smallest m_max >= 1 whose window_tail_bound is at most WINDOW_TAIL."""
    return next(m for m in itertools.count(1) if window_tail_bound(n_start, n_end, m) <= WINDOW_TAIL)


def _invert_generating_function(m_values: np.ndarray, mgf: np.ndarray, t: float) -> PhotonDistribution:
    n_theta = mgf.size
    p_full = np.fft.fft(mgf) / n_theta
    p_raw = p_full[np.mod(m_values, n_theta)]

    if np.max(np.abs(p_raw.imag)) > 1e-10:
        raise DistributionError("inversion produced imaginary parts above 1e-10")
    p = p_raw.real.copy()
    total = float(p.sum())
    if abs(total - 1.0) > 1e-8:
        raise DistributionError(
            f"window probabilities sum to {total!r}; enlarge m_max so the "
            "window holds all the mass"
        )
    edge = max(abs(p[0]), abs(p[-1]))
    if edge > 1e-6:
        warnings.warn(
            f"probability {edge:.2e} at the window edge; aliasing likely, "
            "increase m_max",
            stacklevel=3,
        )
    if p.min() < -1e-10:
        raise DistributionError(f"negative probability {p.min():.3e} beyond quadrature noise")
    clipped = -float(p[p < 0.0].sum())
    if clipped > 0.0:
        if clipped >= 1e-8:
            raise DistributionError(
                f"total negative mass {clipped:.3e} too large to clip silently"
            )
        p = np.clip(p, 0.0, None)
        p /= p.sum()
    return PhotonDistribution(t=t, m=m_values, p=p)


def distribution(
    t_count: float,
    m_max: int,
    params: SystemParams,
    drive: DriveWaveform,
    grid: SimulationGrid,
    *,
    n_init: float | None = None,
) -> PhotonDistribution:
    """Distribution of net transfers after counting for t_count.

    One counting-pair integration per point of a uniform purely-imaginary
    counting-field grid, then a discrete Fourier transform. The grid runs
    are independent; here they are propagated as one vectorized state.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if t_count < 0.0:
        raise ValueError("t_count must be non-negative")
    m_values = np.arange(-m_max, m_max + 1)
    if t_count == 0.0:
        p = np.zeros(m_values.size)
        p[m_max] = 1.0
        return PhotonDistribution(t=0.0, m=m_values, p=p)

    n_theta = theta_grid_size(m_max)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    t0, n0 = counting_epoch(params, drive, grid, n_init)
    run = evolve_counting(1j * theta, params, drive, (t0, t0 + t_count), n0, t_eval=[t0 + t_count])
    mgf = np.exp(run.cgf[-1])
    return _invert_generating_function(m_values, mgf, t_count)


def equilibrium_distribution(x, m):
    """Saturated probability of m net transfers: exp(-|m|x) * tanh(x/2)."""
    if not x > 0.0:
        raise ValueError("equilibrium_distribution needs x > 0")
    m = np.asarray(m)
    out = np.exp(-np.abs(m) * x) * math.tanh(x / 2.0)
    return float(out) if out.ndim == 0 else out
