import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driven_resonator.series import (
    equilibrium_occupation_jet,
    exp_jet,
    exp_minus_one_jet,
    jet_log,
    jet_mul,
    jet_mul_matrix,
    jet_recip,
)

coeff = st.floats(-3.0, 3.0)


@given(st.lists(coeff, min_size=3, max_size=7), st.lists(coeff, min_size=3, max_size=7))
@settings(max_examples=80, deadline=None)
def test_mul_commutes(a, b):
    a, b = np.array(a), np.array(b)
    assert np.allclose(jet_mul(a, b), jet_mul(b, a), atol=1e-12)


@given(st.lists(coeff, min_size=1, max_size=9), st.data())
@settings(max_examples=80, deadline=None)
def test_mul_matrix_is_the_truncated_product(a, data):
    a = np.array(a)
    b = np.array(data.draw(st.lists(coeff, min_size=a.size, max_size=a.size)))
    assert np.allclose(jet_mul_matrix(a) @ b, jet_mul(a, b), rtol=0.0, atol=1e-13)


@given(st.lists(coeff, min_size=4, max_size=6))
@settings(max_examples=80, deadline=None)
def test_recip_inverts(a):
    a = np.array(a)
    a[0] = a[0] + 5.0  # keep the constant term away from zero
    prod = jet_mul(a, jet_recip(a))
    expect = np.zeros_like(prod)
    expect[0] = 1.0
    assert np.allclose(prod, expect, atol=1e-10)


def test_recip_requires_nonzero_constant():
    with pytest.raises(ZeroDivisionError):
        jet_recip(np.array([0.0, 1.0]))


def test_exp_jets_are_inverse_series():
    prod = jet_mul(exp_jet(8, +1), exp_jet(8, -1))
    expect = np.zeros(9)
    expect[0] = 1.0
    assert np.allclose(prod, expect, atol=1e-15)


def test_log_of_exp_is_identity_series():
    out = jet_log(exp_jet(8, +1))
    expect = np.zeros(9)
    expect[1] = 1.0
    assert np.allclose(out, expect, atol=1e-14)


def test_exp_minus_one_has_no_constant_term():
    e = exp_minus_one_jet(5, -1)
    assert e[0] == 0.0
    assert e[1] == -1.0
    assert e[2] == 0.5


def test_equilibrium_occupation_jet_derivatives():
    # d/ds of 1/(e^{x+s}-1) at 0 is -n(1+n); second derivative n(1+n)(1+2n)
    x = 0.25
    jet = equilibrium_occupation_jet(x, 3)
    n = 1.0 / math.expm1(x)
    assert jet[0] == pytest.approx(n, rel=1e-14)
    assert jet[1] == pytest.approx(-n * (1 + n), rel=1e-13)
    assert 2.0 * jet[2] == pytest.approx(n * (1 + n) * (1 + 2 * n), rel=1e-12)
    assert 6.0 * jet[3] == pytest.approx(-n * (1 + n) * (1 + 6 * n + 6 * n * n), rel=1e-12)


def test_equilibrium_occupation_jet_domain():
    with pytest.raises(ValueError):
        equilibrium_occupation_jet(0.0, 4)
