"""Core domain types: validated multi-view datasets, hyperparameters,
models, embeddings, fit histories, and per-view standardization.

All containers are immutable after construction (arrays are marked
read-only) and safe to share across parallel workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyView, NonFiniteInput, NonPositiveScale, ShapeMismatch

def freeze_array(a) -> np.ndarray:
    """Copy `a` into a read-only float64 C-order array."""
    out = np.array(a, dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    return out


def as_matrix(X) -> np.ndarray:
    """Accept either a raw array or an IntactEmbedding and return the array."""
    if isinstance(X, IntactEmbedding):
        return X.X
    return np.asarray(X, dtype=np.float64)


@dataclass(frozen=True)
class Hyperparams:
    """Scale, regularization, and iteration controls for fitting.

    c is the Cauchy scale in the units of the (ideally standardized)
    features; with unit-variance columns the default c=1 places the loss
    knee at one standard deviation of residual. C1 weighs the view-map
    penalty, C2 the latent penalty.

    An outer iteration ends the fit when it changes the objective by at
    most tol_obj relative to max(1, |objective|). An inner solve stops
    when its iterate (a latent point or a view map) moves by at most tol_x
    in Euclidean (Frobenius) norm: an absolute change in the iterate's own
    units, not scaled by its size. A kernel map is measured in feature
    space, sqrt(trace(dA^T K dA)) for an atom change dA. max_outer and
    max_inner cap the two loops. c, C1, C2 and the tolerances must be
    finite.
    """

    d: int
    c: float = 1.0
    C1: float = 1e-4
    C2: float = 1e-4
    max_outer: int = 200
    max_inner: int = 100
    tol_obj: float = 1e-8
    tol_x: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("c", "C1", "C2", "tol_obj", "tol_x"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c <= 0:
            raise NonPositiveScale(f"c must be > 0, got {self.c}")
        if self.C1 < 0 or self.C2 < 0:
            raise ValueError("C1 and C2 must be non-negative")
        if int(self.d) < 1:
            raise ValueError("latent dimension d must be >= 1")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.tol_obj <= 0 or self.tol_x <= 0:
            raise ValueError("tolerances must be > 0")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class MultiViewDataset:
    """n examples described by m per-view feature matrices (n x D_v each)."""

    views: tuple
    labels: Optional[tuple]
    view_dims: tuple
    n: int

    @property
    def m(self) -> int:
        return len(self.views)


def validate_dataset(views: Sequence, labels=None) -> MultiViewDataset:
    """Check and freeze raw view matrices into a MultiViewDataset.

    Rejects empty inputs, inconsistent row counts, and non-finite entries.
    """
    if views is None or len(views) == 0:
        raise EmptyView("need at least one view")
    frozen = []
    for v, raw in enumerate(views):
        arr = np.asarray(raw, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch(f"view {v} must be a 2-D matrix, got ndim={arr.ndim}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise EmptyView(f"view {v} is empty (shape {arr.shape})")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteInput(f"view {v} contains NaN or infinite entries")
        frozen.append(freeze_array(arr))
    n = frozen[0].shape[0]
    for v, arr in enumerate(frozen):
        if arr.shape[0] != n:
            raise ShapeMismatch(
                f"view {v} has {arr.shape[0]} rows, expected {n} as in view 0"
            )
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != n:
            raise ShapeMismatch(f"got {len(labels)} labels for {n} examples")
    dims = tuple(int(arr.shape[1]) for arr in frozen)
    return MultiViewDataset(views=tuple(frozen), labels=labels, view_dims=dims, n=int(n))


@dataclass(frozen=True, eq=False)
class StandardizeRecord:
    """Per-view column means and scales, kept for inverse mapping and for
    transforming new data consistently with training."""

    means: tuple
    scales: tuple

    def apply(self, views: Sequence) -> list:
        out = []
        for Z, mu, sc in zip(views, self.means, self.scales):
            out.append((np.asarray(Z, dtype=np.float64) - mu) / sc)
        return out

    def invert(self, views: Sequence) -> list:
        out = []
        for Z, mu, sc in zip(views, self.means, self.scales):
            out.append(np.asarray(Z, dtype=np.float64) * sc + mu)
        return out


def standardize_views(dataset: MultiViewDataset):
    """Center each view column and scale it to unit standard deviation.

    Columns with (numerically) zero variance are centered and kept at
    scale 1 so view dimensions and index alignment are preserved.
    Returns the standardized dataset and the transform record.
    """
    means, scales, new_views = [], [], []
    for Z in dataset.views:
        mu = Z.mean(axis=0)
        sd = Z.std(axis=0)
        degenerate = sd <= 1e-12 * np.maximum(1.0, np.abs(mu))
        sc = np.where(degenerate, 1.0, sd)
        means.append(freeze_array(mu))
        scales.append(freeze_array(sc))
        new_views.append((Z - mu) / sc)
    record = StandardizeRecord(means=tuple(means), scales=tuple(scales))
    return validate_dataset(new_views, dataset.labels), record


@dataclass(frozen=True, eq=False)
class IntactModel:
    """Learned view-generation maps plus the hyperparameters that made them.

    Exactly one of `W` (linear mode, one D_v x d matrix per view) or
    `kernel_part` (kernel mode) is populated, according to `mode`.
    """

    mode: str
    W: Optional[tuple]
    kernel_part: Optional[object]
    hyperparams: Hyperparams

    def __post_init__(self):
        if self.mode not in ("linear", "kernel"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "linear":
            if self.W is None or self.kernel_part is not None:
                raise ValueError("linear mode requires W and no kernel part")
            d = self.hyperparams.d
            for v, Wv in enumerate(self.W):
                if Wv.ndim != 2 or Wv.shape[1] != d:
                    raise ShapeMismatch(
                        f"W[{v}] has shape {Wv.shape}, expected (D_{v}, {d})"
                    )
        else:
            if self.kernel_part is None or self.W is not None:
                raise ValueError("kernel mode requires kernel_part and no W")

    @property
    def m(self) -> int:
        if self.mode == "linear":
            return len(self.W)
        return len(self.kernel_part.A)

    @property
    def view_dims(self) -> tuple:
        if self.mode == "linear":
            return tuple(Wv.shape[0] for Wv in self.W)
        return tuple(Z.shape[1] for Z in self.kernel_part.training_views)


@dataclass(frozen=True, eq=False)
class IntactEmbedding:
    """Latent coordinates, one row per example (n x d)."""

    X: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X)
        if X.ndim != 2:
            raise ShapeMismatch(f"embedding must be 2-D, got ndim={X.ndim}")
        if not np.all(np.isfinite(X)):
            raise NonFiniteInput("embedding contains NaN or infinite entries")
        object.__setattr__(self, "X", freeze_array(X))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class FitHistory:
    """Per-half-step objective values and convergence metadata.

    `objective_trace` holds ("x-update" | "W-update", value) pairs for
    every half step of the alternation; descent theory guarantees the
    values are non-increasing up to round-off, which `monotone_within`
    audits. From the second outer iteration on, an "x-update" value also
    includes the decrease of the gauge step that precedes the latent sweep
    (`optimizer.balance_gauge`). `stop_reason` is "objective_tol" when an
    outer iteration changed the objective by at most tol_obj (relative),
    and "max_iter" when max_outer iterations ran out first.
    """

    objective_trace: tuple
    inner_iterations: tuple
    converged: bool
    stop_reason: str

    def values(self) -> np.ndarray:
        return np.array([val for _, val in self.objective_trace], dtype=np.float64)

    def monotone_within(self, rel_tol: float = 1e-9) -> bool:
        vals = self.values()
        if not np.all(np.isfinite(vals)):
            return False
        prev = vals[:-1]
        return bool(np.all(vals[1:] <= prev + rel_tol * np.maximum(1.0, np.abs(prev))))

    def max_relative_increase(self) -> float:
        vals = self.values()
        if len(vals) < 2:
            return 0.0
        prev = vals[:-1]
        rel = (vals[1:] - prev) / np.maximum(1.0, np.abs(prev))
        return float(np.max(rel))
