"""Truncated power-series (jet) arithmetic.

A jet is a 1-D coefficient array a with a[k] the coefficient of s**k,
truncated at a fixed order. Products are truncated Cauchy products, so
propagating jets through arithmetic yields derivatives to the truncation
order exactly (up to floating-point rounding), with no symbolic work and
no numeric differencing.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "jet_mul",
    "jet_mul_matrix",
    "jet_recip",
    "jet_log",
    "exp_jet",
    "exp_minus_one_jet",
    "equilibrium_occupation_jet",
]


def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product; the result keeps the shorter operand's order."""
    n = min(len(a), len(b))
    return np.convolve(a[:n], b[:n])[:n]


def jet_mul_matrix(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrix T of multiplication by a:
    T @ b equals jet_mul(a, b) for every b of a's length."""
    n = len(a)
    out = np.zeros((n, n), dtype=np.result_type(a, float))
    for j in range(n):  # column j: a times s**j
        out[j:, j] = a[: n - j]
    return out


def jet_recip(a: np.ndarray) -> np.ndarray:
    """Series 1/a; requires a[0] != 0."""
    if a[0] == 0:
        raise ZeroDivisionError("jet_recip needs a nonzero constant term")
    out = np.zeros_like(np.asarray(a, dtype=np.result_type(a.dtype, float)))
    out[0] = 1.0 / a[0]
    for k in range(1, len(a)):
        out[k] = -np.dot(a[1 : k + 1], out[k - 1 :: -1]) / a[0]
    return out


def jet_log(a: np.ndarray) -> np.ndarray:
    """Series log(a); requires a[0] > 0 (real branch)."""
    if not np.real(a[0]) > 0:
        raise ValueError("jet_log needs a positive constant term")
    out = np.zeros_like(np.asarray(a, dtype=np.result_type(a.dtype, float)))
    out[0] = np.log(a[0])
    # from a = exp(out): k*a_k = sum_{j=1..k} j*out_j*a_{k-j}
    for k in range(1, len(a)):
        acc = k * a[k]
        for j in range(1, k):
            acc -= j * out[j] * a[k - j]
        out[k] = acc / (k * a[0])
    return out


@lru_cache(maxsize=None)
def _exp_coeffs(order: int, sign: int) -> tuple:
    return tuple(sign**k / math.factorial(k) for k in range(order + 1))


def exp_jet(order: int, sign: int = +1) -> np.ndarray:
    """Jet of exp(sign*s) to the given order."""
    return np.array(_exp_coeffs(order, sign))


def exp_minus_one_jet(order: int, sign: int = +1) -> np.ndarray:
    """Jet of exp(sign*s) - 1; zero constant term."""
    out = exp_jet(order, sign).copy()
    out[0] = 0.0
    return out


def equilibrium_occupation_jet(x: float, order: int) -> np.ndarray:
    """Jet of 1/(exp(x + s) - 1) in s about s = 0, for x > 0.

    Coefficient k times k! is the k'th s-derivative at 0.
    """
    if not x > 0:
        raise ValueError("equilibrium_occupation_jet needs x > 0")
    ex = math.exp(x)
    denom = np.array([ex / math.factorial(k) for k in range(order + 1)])
    denom[0] = math.expm1(x)
    return jet_recip(denom)
