import numpy as np
import pytest
from scipy.integrate import DOP853, RK45

from driven_resonator.stepping import integrate_segmented

T_BP, T_END = 4.1, 12.0
T_EVAL = np.sort(np.concatenate([[0.0], np.linspace(0.5, 11.5, 9), [T_BP, T_END]]))
# DOP853 needs about 1.5k calls on either case below, RK45 6k-7k
NFEV_BOUND = 3000


def _rate(t, side):
    # 1 + cos(t)/2, doubled after the breakpoint; side picks the limit there
    before = t < T_BP or (t == T_BP and side == -1)
    return (1.0 + 0.5 * np.cos(t)) * (1.0 if before else 2.0)


def _smooth_phase(t):
    return t + 0.5 * np.sin(t)


def _phase(t):
    # the integral of _rate from 0
    before, at_bp = _smooth_phase(t), _smooth_phase(T_BP)
    return np.where(t <= T_BP, before, at_bp + 2.0 * (before - at_bp))


ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
CASES = {
    # a real rotation (cos, sin) of the phase
    "real": (
        lambda t, y, side: _rate(t, side) * (ROTATION @ y),
        np.array([1.0, 0.0]),
        lambda t: np.stack([np.cos(_phase(t)), np.sin(_phase(t))], axis=1),
    ),
    # a damped complex phase
    "complex": (
        lambda t, y, side: (1j * _rate(t, side) - 0.2) * y,
        np.array([1.0 + 0.5j]),
        lambda t: (1.0 + 0.5j) * np.exp(1j * _phase(t) - 0.2 * t)[:, None],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("method", [DOP853, RK45], ids=["DOP853", "RK45"])
def test_samples_follow_the_exact_solution(case, method):
    rhs, y0, exact = CASES[case]
    res = integrate_segmented(rhs, (0.0, T_END), y0, breakpoints=[T_BP], t_eval=T_EVAL, method=method)
    assert np.array_equal(res.t, T_EVAL)
    assert res.y.shape == (T_EVAL.size, y0.size) and res.y.dtype == y0.dtype
    assert np.max(np.abs(res.y - exact(T_EVAL))) <= 1e-10
    # samples at the end and at the breakpoint are the stepper's own states
    assert np.array_equal(res.y[-1], res.y_final)
    first_segment = integrate_segmented(rhs, (0.0, T_BP), y0, method=method)
    assert np.array_equal(res.y[T_EVAL == T_BP][0], first_segment.y_final)
    assert np.array_equal(res.breakpoint_times, [T_BP])
    assert np.array_equal(res.y[0], y0)
    # eighth order: DOP853 stays below a call count RK45 exceeds
    assert (res.nfev < NFEV_BOUND) == (method is DOP853)


def test_dense_output_only_for_interior_samples():
    rhs, y0, _ = CASES["real"]
    ends = integrate_segmented(rhs, (0.0, T_END), y0, breakpoints=[T_BP], t_eval=[0.0, T_BP, T_END])
    bare = integrate_segmented(rhs, (0.0, T_END), y0, breakpoints=[T_BP])
    assert ends.nfev == bare.nfev
    assert np.array_equal(ends.y[-1], bare.y_final)
    # DOP853's interpolant costs three extra calls per step it serves
    inner = integrate_segmented(rhs, (0.0, T_END), y0, breakpoints=[T_BP], t_eval=[1.0, 2.0])
    assert inner.nfev == bare.nfev + 6
    assert np.array_equal(inner.y_final, bare.y_final)


def test_breakpoint_is_seen_from_both_sides():
    rhs, y0, _ = CASES["complex"]
    sides = []

    def spy(t, y, side):
        if t == T_BP:
            sides.append(side)
        return rhs(t, y, side)

    # breakpoints outside the open span are dropped
    res = integrate_segmented(spy, (0.0, T_END), y0, breakpoints=[T_BP, T_END, -1.0])
    assert np.array_equal(res.breakpoint_times, [T_BP])
    # the first segment ends on the left limit, the second starts on the right
    assert sides[0] == -1 and sides[-1] == +1 and set(sides) == {-1, +1}
