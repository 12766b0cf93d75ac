import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from intact.estimators import rho_sq, weight_sq

finite = st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False)


def rho(t, c):
    """Cauchy loss of a residual t: log(1 + (t/c)^2)."""
    return rho_sq(t * t, c)


def psi(t, c):
    """Influence function of the Cauchy loss, d rho/dt = 2t/(c^2 + t^2)."""
    return 2.0 * t * weight_sq(t * t, c)


def test_rho_values():
    assert rho(0.0, 1.0) == 0.0
    assert math.isclose(rho(1.0, 1.0), math.log(2.0), rel_tol=1e-15)
    assert math.isclose(rho(3.0, 1.0), math.log(10.0), rel_tol=1e-15)
    assert math.isclose(rho(2.0, 2.0), math.log(2.0), rel_tol=1e-15)


def test_psi_values():
    assert psi(0.0, 1.0) == 0.0
    assert math.isclose(psi(2.0, 2.0), 0.5, rel_tol=1e-15)
    assert abs(psi(1e6, 1.0)) < 1e-5  # redescending tail


def test_psi_max_at_c():
    for c in (0.5, 1.0, 3.0):
        grid = np.linspace(-10 * c, 10 * c, 4001)
        vals = np.abs(psi(grid, c))
        assert np.max(vals) <= 1.0 / c + 1e-12
        assert math.isclose(psi(c, c), 1.0 / c, rel_tol=1e-15)


def test_weight_values():
    assert weight_sq(0.0, 1.0) == 1.0
    assert weight_sq(3.0, 1.0) == 0.25
    assert weight_sq(1e12, 1.0) <= 1e-12


@given(st.floats(0, 1e12), st.floats(1e-3, 1e3))
def test_weight_identity_exact(r_sq, c):
    # (1/a)*a is exact up to one ulp in IEEE doubles
    w = weight_sq(r_sq, c)
    assert abs(w * (c * c + r_sq) - 1.0) <= np.finfo(float).eps


def test_psi_is_derivative_of_rho():
    for c in (0.5, 1.0, 2.0):
        t = np.linspace(-10 * c, 10 * c, 201)
        h = 1e-6 * np.maximum(1.0, np.abs(t))
        numeric = (rho(t + h, c) - rho(t - h, c)) / (2 * h)
        analytic = psi(t, c)
        assert np.max(np.abs(numeric - analytic)) < 1e-6


@given(finite)
def test_rho_sublinear(t):
    # doubling the residual adds at most log 4
    assert rho(2 * t, 1.0) - rho(t, 1.0) <= math.log(4.0) + 1e-12


@given(st.floats(0, 1e8), st.floats(0, 1e8))
def test_rho_monotone_in_magnitude(a, b):
    lo, hi = sorted((a, b))
    assert rho(hi, 1.0) >= rho(lo, 1.0) - 1e-12
