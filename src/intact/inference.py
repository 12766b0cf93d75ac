"""Out-of-sample embedding and multi-view stability diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IntactModel
from .errors import NonFiniteInput, ZeroRegularizer
from .estimators import rho_sq
from .optimizer import (
    _as_latent,
    _example_objectives,
    _example_stacks,
    _stack_blocks,
    residual_sq_from_stacks,
    sweep_latents,
)

# Midpoint pairs drawn by `local_convexity_check`.
CONVEXITY_SAMPLES = 16


@dataclass(frozen=True)
class StabilityReport:
    """One perturbation probe: the summed per-view loss deviation between
    an example and its single-coordinate perturbed copy, against the
    theoretical stability bound."""

    tau: float
    view_index: int
    coord_index: int
    measured_deviation: float
    beta_bound: float
    holds: bool
    local_convex: bool

    @property
    def bound_ratio(self) -> float:
        """measured_deviation / beta_bound: how much of the bound the probe
        used. A zero bound (tau = 0) with zero deviation reads 0."""
        if self.beta_bound > 0:
            return self.measured_deviation / self.beta_bound
        return 0.0 if self.measured_deviation == 0 else float("inf")


def embed_example(z_new, model: IntactModel, x0=None) -> np.ndarray:
    """Latent coordinate of a new multi-view example.

    Minimizes the per-example objective with the trained maps: the batched
    latent sweep on one row, starting from zero unless x0 is given.
    """
    hp = model.hyperparams
    G, P, znorm = _example_stacks(z_new, model)
    X0 = _as_latent(np.zeros(hp.d) if x0 is None else x0, G)
    return sweep_latents(G, P, znorm, X0, hp.c, hp.C2, hp.tol_x, hp.max_inner)[0][0]


def embed_examples(view_rows, model: IntactModel):
    """Embed a batch of examples given as one row matrix per view.

    Works in either mode; rows are independent solves from zero. The rows
    are checked whole, then their stacks are built and swept one block at
    a time (`optimizer._stack_blocks`), so memory stays bounded as the
    row count grows. At d <= 3 the latents are those of one sweep over all
    rows, bit for bit; at larger d a row can round differently by the
    batch it is swept in (`sweep_latents`).
    """
    hp = model.hyperparams
    return np.concatenate([
        sweep_latents(G, P, znorm, np.zeros((znorm.shape[1], hp.d)),
                      hp.c, hp.C2, hp.tol_x, hp.max_inner)[0]
        for _, (G, P, znorm) in _stack_blocks(view_rows, model)
    ])


def view_losses(z_views, model: IntactModel, x) -> np.ndarray:
    """Per-view Cauchy losses log(1 + ||z^v - W_v x||^2 / c^2)."""
    stacks = _example_stacks(z_views, model)
    s = residual_sq_from_stacks(*stacks, _as_latent(x, stacks[0]))[:, 0]
    return rho_sq(s, model.hyperparams.c)


def map_spectral_norms(model: IntactModel) -> np.ndarray:
    """Largest singular value of each view map (the feature-space operator
    norm in kernel mode): sqrt(lambda_max(G_v)) of the model's G stack."""
    G = _example_stacks([np.empty((0, D)) for D in model.view_dims], model)[0]
    return np.sqrt(np.maximum(np.linalg.eigvalsh(G)[:, -1], 0.0))


def stability_bound(tau: float, model: IntactModel) -> float:
    """Worst-case summed per-view loss deviation under a single-coordinate
    perturbation of magnitude tau:

        sqrt(2)/c * |tau| + sum_v 128^(1/4) * Omega_v / c
                              * sqrt(|tau| / (m c C2))

    with Omega_v the spectral norm of view v's map. Requires C2 > 0 and a finite tau.
    """
    if not np.isfinite(tau):
        raise NonFiniteInput(f"tau must be finite, got {tau}")
    hp = model.hyperparams
    if hp.C2 <= 0:
        raise ZeroRegularizer("stability bound undefined when C2 = 0")
    c = hp.c
    tau = abs(float(tau))
    omegas = map_spectral_norms(model)
    m = len(omegas)
    head = np.sqrt(2.0) / c * tau
    tail = float(np.sum(128.0**0.25 * omegas / c)) * np.sqrt(tau / (m * c * hp.C2))
    return head + tail


def local_convexity_check(
    z_views, model: IntactModel, center, radius: float, seed: int = 0
) -> bool:
    """Sampled midpoint-convexity audit of the per-example objective in a
    ball of finite radius around `center`; the stability bound's
    derivation assumes it."""
    if not np.isfinite(radius):
        raise NonFiniteInput(f"radius must be finite, got {radius}")
    stacks = _example_stacks(z_views, model)
    center = _as_latent(center, stacks[0])[0]
    rng = np.random.default_rng(seed)
    # row k holds a_k then b_k: the order of drawing one vector at a time
    ab = center + radius * rng.normal(size=(CONVEXITY_SAMPLES, 2, center.shape[0]))
    a, b = ab[:, 0], ab[:, 1]
    X = np.vstack([a, b, 0.5 * (a + b)])
    hp = model.hyperparams
    J = _example_objectives(stacks, X, hp.c, hp.C2)
    ja, jb, jm = np.split(J, 3)
    bound = 0.5 * (ja + jb)
    return not np.any(jm > bound + 1e-10 * np.maximum(1.0, np.abs(bound)))


def stability_probe(
    z_views,
    model: IntactModel,
    tau: float = 0.0,
    view_index: int = 0,
    coord_index: int = 0,
    seed: int = 0,
) -> StabilityReport:
    """Embed an example and its perturbed copy and compare the summed
    per-view loss deviation against the stability bound.

    The perturbed embedding starts from the unperturbed solution, matching
    the local neighborhood the bound's derivation works in. A sampled
    local-convexity check is attached so bound violations can be told
    apart from assumption failures.
    """
    if model.hyperparams.C2 <= 0:
        raise ZeroRegularizer("stability probes need C2 > 0")
    zs = [np.asarray(z, dtype=np.float64).reshape(-1) for z in z_views]
    if not 0 <= view_index < len(zs):
        raise IndexError(f"view index {view_index} out of range")
    if not 0 <= coord_index < zs[view_index].shape[0]:
        raise IndexError(f"coordinate index {coord_index} out of range")

    x = embed_example(zs, model)
    z_hat = [z.copy() for z in zs]
    z_hat[view_index][coord_index] += tau
    # tau = 0 poses the identical problem; re-solving would only add noise
    x_hat = x if tau == 0.0 else embed_example(z_hat, model, x0=x)

    losses = view_losses(zs, model, x) - view_losses(z_hat, model, x_hat)
    measured = float(np.sum(np.abs(losses)))
    bound = stability_bound(tau, model)
    radius = max(float(np.linalg.norm(x_hat - x)), abs(tau), 1e-6)
    return StabilityReport(
        tau=float(tau),
        view_index=int(view_index),
        coord_index=int(coord_index),
        measured_deviation=measured,
        beta_bound=bound,
        holds=measured <= bound + 1e-12,
        local_convex=local_convexity_check(zs, model, x, radius, seed=seed),
    )
