"""Scalar robust-estimator kernels.

The Cauchy loss and its influence function drive the reweighted-residual
solvers. All functions accept scalars or arrays and broadcast elementwise.

`rho_sq` and `weight_sq` are the one definition of the loss and the IRR
weight of a squared residual norm that every objective and solver uses;
they skip argument checks because they sit on the fitter's hot path. The
squared-error baseline of `robustness_benchmark` needs neither: it is
fitted in closed form by `optimizer.l2_fit`.
"""

from __future__ import annotations

import numpy as np

from .errors import NegativeResidual, NonPositiveScale


def _check_scale(c) -> float:
    c = float(c)
    if c <= 0:
        raise NonPositiveScale(f"scale must be > 0, got {c}")
    return c


def _maybe_scalar(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def rho_sq(s, c: float):
    """Cauchy loss of squared residual norms s: log(1 + s/c^2)."""
    return np.log1p(s / (c * c))


def weight_sq(s, c: float):
    """IRR weight of squared residual norms s, the derivative of rho_sq in
    s: 1/(c^2 + s)."""
    return 1.0 / (c * c + s)


def cauchy_rho(t, c: float = 1.0):
    """Cauchy loss log(1 + (t/c)^2): symmetric, zero at t=0, sublinear tails."""
    c = _check_scale(c)
    t = np.asarray(t, dtype=np.float64)
    return _maybe_scalar(rho_sq(t * t, c))


def cauchy_psi(t, c: float = 1.0):
    """Influence function 2t/(c^2 + t^2): odd, redescending, |psi| <= 1/c."""
    c = _check_scale(c)
    t = np.asarray(t, dtype=np.float64)
    return _maybe_scalar(2.0 * t / (c * c + t * t))


def residual_weight(r_sq, c: float = 1.0):
    """Reweighting factor 1/(c^2 + r_sq) applied to a squared residual norm.

    Strictly decreasing in r_sq and bounded above by 1/c^2, so outlying
    residuals are continuously down-weighted.
    """
    c = _check_scale(c)
    r_sq = np.asarray(r_sq, dtype=np.float64)
    if np.any(r_sq < 0):
        raise NegativeResidual("squared residual norms must be >= 0")
    return _maybe_scalar(weight_sq(r_sq, c))

