"""Synthetic benchmark data: S-curve sampling, orthogonal plane
projections as base views, windowed SNR-controlled noise, and planted
linear models. All generators are pure functions of (parameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignal

TWO_HALF_PI = 3.0 * np.pi / 2.0


@dataclass(frozen=True)
class NoiseSpec:
    """Windowed noise configuration.

    snr_db is the decibel ratio of windowed signal variance to injected
    noise variance; math.inf means no noise. window_fraction is the share
    of rows the window covers; each (base view, copy) pair draws its own
    RNG stream from (seed, view index, copy index).
    """

    snr_db: float
    window_fraction: float = 0.3
    copies_per_base: int = 1
    seed: int = 0

    def __post_init__(self):
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be a number or inf, got {self.snr_db}")
        if not 0.0 < self.window_fraction <= 1.0:
            raise ValueError("window_fraction must lie in (0, 1]")
        if self.copies_per_base < 1:
            raise ValueError("copies_per_base must be >= 1")


def gen_s_curve(n: int, seed: int = 0) -> np.ndarray:
    """Sample n points from the standard S-curve surface.

    t ~ U[-3pi/2, 3pi/2], y ~ U[0, 2]; points are
    (sin t, y, sign(t) (cos t - 1)), which lie on two unit half-cylinders.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    t = rng.uniform(-TWO_HALF_PI, TWO_HALF_PI, size=n)
    y = rng.uniform(0.0, 2.0, size=n)
    return np.column_stack([np.sin(t), y, np.sign(t) * (np.cos(t) - 1.0)])


def project_to_planes(points3d) -> list:
    """The three coordinate-plane projections (X-Y, X-Z, Y-Z) of a point set."""
    P = np.asarray(points3d, dtype=np.float64)
    return [P[:, [0, 1]].copy(), P[:, [0, 2]].copy(), P[:, [1, 2]].copy()]


def _window_rows(n: int, window_fraction: float, rng) -> np.ndarray:
    """Randomly placed contiguous window over a seeded shuffle of the rows,
    i.e. a random subset of ceil(fraction * n) examples."""
    w = int(math.ceil(window_fraction * n))
    perm = rng.permutation(n)
    start = int(rng.integers(0, n - w + 1))
    return perm[start : start + w]


def add_window_noise(view, spec: NoiseSpec) -> np.ndarray:
    """Add zero-mean Gaussian noise to a random row window of one view.

    The noise variance is set so that 10*log10(signal variance within the
    window / noise variance) equals spec.snr_db. Rows outside the window
    are returned bit-identical. snr_db = inf returns an exact copy.
    """
    Z = np.array(view, dtype=np.float64, copy=True)
    if math.isinf(spec.snr_db):
        return Z
    rng = np.random.default_rng(spec.seed)
    rows = _window_rows(Z.shape[0], spec.window_fraction, rng)
    block = Z[rows]
    sig_var = float(block.var())
    if sig_var <= 0.0:
        raise DegenerateSignal("windowed signal has zero variance")
    noise_var = sig_var * 10.0 ** (-spec.snr_db / 10.0)
    Z[rows] = block + rng.normal(scale=np.sqrt(noise_var), size=block.shape)
    return Z


def _derived_seed(seed: int, view_idx: int, copy_idx: int) -> int:
    ss = np.random.SeedSequence([int(seed), int(view_idx), int(copy_idx)])
    return int(ss.generate_state(1)[0])


def make_noisy_views(base_views, spec: NoiseSpec) -> list:
    """Emit copies_per_base independently-windowed noisy copies of every
    base view, ordered base-major then copy-minor."""
    out = []
    for v, base in enumerate(base_views):
        for c in range(spec.copies_per_base):
            per_copy = NoiseSpec(
                snr_db=spec.snr_db,
                window_fraction=spec.window_fraction,
                copies_per_base=spec.copies_per_base,
                seed=_derived_seed(spec.seed, v, c),
            )
            out.append(add_window_noise(base, per_copy))
    return out


def gen_planted_linear(n, view_dims, d, seed=0, noise_sigma=0.0):
    """Plant a linear multi-view model: X ~ N(0,1), W_v ~ N(0, 1/d),
    views z = X W^T + optional Gaussian noise. Returns (X, [W_v], [Z_v])."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Ws, Zs = [], []
    for D in view_dims:
        W = rng.normal(size=(D, d)) / np.sqrt(d)
        Z = X @ W.T
        if noise_sigma > 0:
            Z = Z + noise_sigma * rng.normal(size=Z.shape)
        Ws.append(W)
        Zs.append(Z)
    return X, Ws, Zs
