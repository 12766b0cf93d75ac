"""Out-of-sample embedding and multi-view stability diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Hyperparams, IntactModel
from .errors import ZeroRegularizer
from .estimators import rho_sq
from .optimizer import (
    _single_example_stacks,
    _example_stacks,
    residual_sq_from_stacks,
    solve_x,
    sweep_latents,
)


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


def embed_example(z_new, model: IntactModel, hp: Hyperparams = None, x0=None) -> np.ndarray:
    """Latent coordinate of a new multi-view example.

    Minimizes the per-example objective with the trained maps via the
    reweighted solver, starting from zero unless x0 is given.
    """
    hp = hp or model.hyperparams
    if x0 is None:
        x0 = np.zeros(hp.d)
    return solve_x(z_new, model, x0, hp).solution


def embed_examples(view_rows, model: IntactModel, hp: Hyperparams = None, threads: int = 1):
    """Embed a batch of examples given as one row matrix per view.

    Works in either mode; rows are independent solves from zero.
    """
    hp = hp or model.hyperparams
    G, P, znorm = _example_stacks(view_rows, model)
    X0 = np.zeros((znorm.shape[1], hp.d))
    X, _, _ = sweep_latents(
        G, P, znorm, X0, hp.c, hp.C2, hp.tol_x, hp.max_inner, "cauchy", threads
    )
    return X


def view_losses(z_views, model: IntactModel, x, hp: Hyperparams = None) -> np.ndarray:
    """Per-view Cauchy losses log(1 + ||z^v - W_v x||^2 / c^2), with c from
    hp (default: the model's hyperparameters)."""
    hp = hp or model.hyperparams
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    s = residual_sq_from_stacks(*_single_example_stacks(z_views, model), x)[:, 0]
    return rho_sq(s, hp.c)


def map_spectral_norms(model: IntactModel) -> np.ndarray:
    """Largest singular value of each view map (feature-space operator
    norm in kernel mode, via the Gram quadratic form)."""
    if model.mode == "linear":
        return np.array([np.linalg.norm(Wv, 2) for Wv in model.W])
    km = model.kernel_part
    out = []
    for A, K in zip(km.A, km.gram):
        G = A.T @ K @ A
        out.append(float(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0))))
    return np.array(out)


def stability_bound(tau: float, model: IntactModel, hp: Hyperparams = None) -> float:
    """Worst-case summed per-view loss deviation under a single-coordinate
    perturbation of magnitude tau:

        sqrt(2)/c * |tau| + sum_v 128^(1/4) * Omega_v / c
                              * sqrt(|tau| / (m c C2))

    with Omega_v the spectral norm of view v's map. Requires C2 > 0.
    """
    hp = hp or model.hyperparams
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
    z_views,
    model: IntactModel,
    center,
    radius: float,
    n_samples: int = 16,
    seed: int = 0,
    hp: Hyperparams = None,
) -> bool:
    """Sampled midpoint-convexity audit of the per-example objective, with
    c and C2 from hp (default: the model's hyperparameters), in a ball
    around `center`; the stability bound's derivation assumes it."""
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=np.float64).reshape(-1)
    d = center.shape[0]
    # row k holds a_k then b_k: the order of drawing one vector at a time
    ab = center + radius * rng.normal(size=(n_samples, 2, d))
    a, b = ab[:, 0], ab[:, 1]
    X = np.vstack([a, b, 0.5 * (a + b)])
    G, P, znorm = _single_example_stacks(z_views, model)
    m, n = len(G), len(X)
    s = residual_sq_from_stacks(
        G, np.broadcast_to(P, (m, n, d)), np.broadcast_to(znorm, (m, n)), X
    )
    hp = hp or model.hyperparams
    J = rho_sq(s, hp.c).mean(axis=0) + hp.C2 * np.einsum("ij,ij->i", X, X)
    ja, jb, jm = np.split(J, 3)
    bound = 0.5 * (ja + jb)
    return not np.any(jm > bound + 1e-10 * np.maximum(1.0, np.abs(bound)))


def stability_probe(
    z_views,
    model: IntactModel,
    hp: Hyperparams = None,
    tau: float = 0.0,
    view_index: int = 0,
    coord_index: int = 0,
    convexity_samples: int = 16,
    seed: int = 0,
) -> StabilityReport:
    """Embed an example and its perturbed copy and compare the summed
    per-view loss deviation against the stability bound.

    The solves, the measured losses, the convexity check and the bound all
    use hp (default: the model's hyperparameters). The perturbed embedding
    starts from the unperturbed solution, matching the local neighborhood
    the bound's derivation works in. A sampled
    local-convexity check is attached so bound violations can be told
    apart from assumption failures.
    """
    hp = hp or model.hyperparams
    if hp.C2 <= 0:
        raise ZeroRegularizer("stability probes need C2 > 0")
    zs = [np.asarray(z, dtype=np.float64).reshape(-1) for z in z_views]
    if not 0 <= view_index < len(zs):
        raise IndexError(f"view index {view_index} out of range")
    if not 0 <= coord_index < zs[view_index].shape[0]:
        raise IndexError(f"coordinate index {coord_index} out of range")

    x = solve_x(zs, model, np.zeros(hp.d), hp).solution
    z_hat = [z.copy() for z in zs]
    z_hat[view_index][coord_index] += tau
    # tau = 0 poses the identical problem; re-solving would only add noise
    x_hat = x if tau == 0.0 else solve_x(z_hat, model, x, hp).solution

    losses = view_losses(zs, model, x, hp) - view_losses(z_hat, model, x_hat, hp)
    measured = float(np.sum(np.abs(losses)))
    bound = stability_bound(tau, model, hp)
    radius = max(float(np.linalg.norm(x_hat - x)), abs(tau), 1e-6)
    return StabilityReport(
        tau=float(tau),
        view_index=int(view_index),
        coord_index=int(coord_index),
        measured_deviation=measured,
        beta_bound=bound,
        holds=measured <= bound + 1e-12,
        local_convex=local_convexity_check(
            zs, model, x, radius, n_samples=convexity_samples, seed=seed, hp=hp
        ),
    )
