"""Scalar robust-estimator kernels.

The Cauchy loss and its influence function drive the reweighted-residual
solvers; the L2 and smoothed-L1 baselines exist for robustness comparisons.
All functions accept scalars or arrays and broadcast elementwise.

`rho_sq` and `weight_sq` are the one definition of the loss and the IRR
weight of a squared residual norm that every objective and solver uses;
they skip argument checks because they sit on the fitter's hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeResidual, NonPositiveScale


def _check_scale(c) -> float:
    c = float(c)
    if c <= 0:
        raise NonPositiveScale(f"scale must be > 0, got {c}")
    return c


def _maybe_scalar(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def rho_sq(s, c: float, loss: str = "cauchy"):
    """Loss of squared residual norms s: log(1 + s/c^2) for the Cauchy
    loss, s itself for the l2 baseline."""
    if loss == "l2":
        return s
    return np.log1p(s / (c * c))


def weight_sq(s, c: float, loss: str = "cauchy"):
    """IRR weight of squared residual norms s, the derivative of rho_sq in
    s: 1/(c^2 + s) for the Cauchy loss, 1 for l2."""
    if loss == "l2":
        return np.ones_like(s)
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


@dataclass(frozen=True)
class EstimatorKind:
    """One of the analyzed loss families: cauchy(c), l2, or smoothed l1."""

    kind: str
    c: float = 1.0
    epsilon_smooth: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("cauchy", "l2", "l1"):
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "cauchy":
            _check_scale(self.c)
        if self.kind == "l1" and self.epsilon_smooth <= 0:
            raise ValueError("l1 smoothing epsilon must be > 0")

    @classmethod
    def cauchy(cls, c: float = 1.0) -> "EstimatorKind":
        return cls(kind="cauchy", c=c)

    @classmethod
    def l2(cls) -> "EstimatorKind":
        return cls(kind="l2")

    @classmethod
    def l1(cls, epsilon_smooth: float = 1e-6) -> "EstimatorKind":
        return cls(kind="l1", epsilon_smooth=epsilon_smooth)


def baseline_rho(kind: EstimatorKind, t):
    """Loss value for a baseline estimator kind.

    l2 uses t^2/2; l1 uses the pseudo-Huber smoothing sqrt(t^2+eps^2)-eps
    (exact |t| breaks reweighting fixed points at zero residual); cauchy
    delegates to cauchy_rho.
    """
    t = np.asarray(t, dtype=np.float64)
    if kind.kind == "l2":
        return _maybe_scalar(0.5 * t * t)
    if kind.kind == "l1":
        eps = kind.epsilon_smooth
        return _maybe_scalar(np.sqrt(t * t + eps * eps) - eps)
    return cauchy_rho(t, kind.c)
