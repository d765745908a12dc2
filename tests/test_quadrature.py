import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawlab.errors import QuadratureNonConvergent
from clawlab.quadrature import adaptive_gauss_legendre


def test_polynomial_exact():
    val = adaptive_gauss_legendre(lambda x: x ** 3 - 2 * x, 0.0, 2.0)
    assert abs(val - (4.0 - 4.0)) < 1e-13


def test_orientation_sign():
    fwd = adaptive_gauss_legendre(np.cos, 0.0, 1.0)
    bwd = adaptive_gauss_legendre(np.cos, 1.0, 0.0)
    assert abs(fwd + bwd) < 1e-14
    assert abs(fwd - np.sin(1.0)) < 1e-12


def test_empty_interval():
    assert adaptive_gauss_legendre(np.exp, 0.3, 0.3) == 0.0


def test_vector_integrand():
    val = adaptive_gauss_legendre(lambda x: np.stack([x, x ** 2], axis=-1),
                                  0.0, 1.0)
    assert np.allclose(val, [0.5, 1.0 / 3.0], atol=1e-12)


def test_kinked_integrand_converges():
    val = adaptive_gauss_legendre(np.abs, -1.0, 2.0, tol=1e-12)
    assert abs(val - 2.5) < 1e-11


def test_nonconvergence_raises():
    # genuinely divergent integrand exhausts the depth budget
    with pytest.raises(QuadratureNonConvergent):
        adaptive_gauss_legendre(lambda x: 1.0 / np.abs(x - 0.5), 0.0, 1.0,
                                tol=1e-12, max_depth=8)


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_additivity(a, b):
    mid = 0.5 * (a + b)
    whole = adaptive_gauss_legendre(np.cos, a, b, tol=1e-12)
    parts = (adaptive_gauss_legendre(np.cos, a, mid, tol=1e-12)
             + adaptive_gauss_legendre(np.cos, mid, b, tol=1e-12))
    assert abs(whole - parts) < 1e-10
