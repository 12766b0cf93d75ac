import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intact import cauchy_psi, cauchy_rho, residual_weight
from intact.errors import NegativeResidual, NonPositiveScale

finite = st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False)


def test_rho_values():
    assert cauchy_rho(0.0, 1.0) == 0.0
    assert math.isclose(cauchy_rho(1.0, 1.0), math.log(2.0), rel_tol=1e-15)
    assert math.isclose(cauchy_rho(3.0, 1.0), math.log(10.0), rel_tol=1e-15)
    assert math.isclose(cauchy_rho(2.0, 2.0), math.log(2.0), rel_tol=1e-15)


def test_psi_values():
    assert cauchy_psi(0.0, 1.0) == 0.0
    assert math.isclose(cauchy_psi(2.0, 2.0), 0.5, rel_tol=1e-15)
    assert abs(cauchy_psi(1e6, 1.0)) < 1e-5  # redescending tail


def test_psi_max_at_c():
    for c in (0.5, 1.0, 3.0):
        grid = np.linspace(-10 * c, 10 * c, 4001)
        vals = np.abs(cauchy_psi(grid, c))
        assert np.max(vals) <= 1.0 / c + 1e-12
        assert math.isclose(cauchy_psi(c, c), 1.0 / c, rel_tol=1e-15)


def test_weight_values():
    assert residual_weight(0.0, 1.0) == 1.0
    assert residual_weight(3.0, 1.0) == 0.25
    assert residual_weight(1e12, 1.0) <= 1e-12


@given(st.floats(0, 1e12), st.floats(1e-3, 1e3))
def test_weight_identity_exact(r_sq, c):
    # (1/a)*a is exact up to one ulp in IEEE doubles
    w = residual_weight(r_sq, c)
    assert abs(w * (c * c + r_sq) - 1.0) <= np.finfo(float).eps


def test_psi_is_derivative_of_rho():
    for c in (0.5, 1.0, 2.0):
        t = np.linspace(-10 * c, 10 * c, 201)
        h = 1e-6 * np.maximum(1.0, np.abs(t))
        numeric = (cauchy_rho(t + h, c) - cauchy_rho(t - h, c)) / (2 * h)
        analytic = cauchy_psi(t, c)
        assert np.max(np.abs(numeric - analytic)) < 1e-6


@given(finite)
def test_rho_sublinear(t):
    # doubling the residual adds at most log 4
    assert cauchy_rho(2 * t, 1.0) - cauchy_rho(t, 1.0) <= math.log(4.0) + 1e-12


@given(st.floats(0, 1e8), st.floats(0, 1e8))
def test_rho_monotone_in_magnitude(a, b):
    lo, hi = sorted((a, b))
    assert cauchy_rho(hi, 1.0) >= cauchy_rho(lo, 1.0) - 1e-12


def test_scale_errors():
    with pytest.raises(NonPositiveScale):
        cauchy_rho(1.0, 0.0)
    with pytest.raises(NonPositiveScale):
        cauchy_psi(1.0, -2.0)
    with pytest.raises(NonPositiveScale):
        residual_weight(1.0, 0.0)
    with pytest.raises(NegativeResidual):
        residual_weight(-1e-9, 1.0)
