"""Kernelized intact-space learning.

View maps live in a reproducing-kernel feature space and are expressed
through atom matrices A_v over the training examples, so residuals and
map norms reduce to Gram-matrix algebra:

    ||z_i^v - map_v(x_i)||^2 = k(z_i,z_i) - 2 k_i^T A_v x_i
                               + x_i^T A_v^T K_v A_v x_i
    ||map_v||^2 = trace(A_v^T K_v A_v)

Training is the linear fitter (`optimizer.alternate`, `fit_view_map`) on
exact features Phi_v = U_r Lambda_r^{1/2} from one eigendecomposition of
each Gram (eigenvalues above FEATURE_RCOND of the largest; the r = n
Nystrom map), so K_v = Phi_v Phi_v^T and maps W_v = Phi_v^T A_v. The row
norms are diag(K_v), and the map solver adds the per-row offset
diag(K_v) - ||Phi_v,i||^2 to its residuals. The model stores
A_v = U_r Lambda_r^{-1/2} W_v; with a linear kernel the iterates coincide
with the linear model's up to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Hyperparams,
    IntactEmbedding,
    IntactModel,
    MultiViewDataset,
    as_matrix,
    freeze_array,
)
from .errors import GramNotPSD, NonFiniteInput, ShapeMismatch
from .inference import embed_examples
from .optimizer import (
    _as_rows,
    _map_sweep,
    _objective,
    _ridge_maps,
    _view_stacks,
    alternate,
    default_init,
    residual_sq_from_stacks,
)

PSD_JITTER_TRIGGER = -1e-8
PSD_REJECT = -1e-4

# Gram eigenpairs at or below this fraction of the largest eigenvalue
# carry no feature column.
FEATURE_RCOND = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family: linear, or rbf with bandwidth gamma.

    gamma=None requests the median heuristic 1/median(pairwise squared
    distance), resolved per view when the model is fitted.
    """

    kind: str
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and self.gamma is not None and not 0 < self.gamma < np.inf:
            raise ValueError(f"rbf gamma must be a positive finite number, got {self.gamma}")


def median_heuristic_gamma(Z) -> float:
    """1 / median pairwise squared distance between rows of Z."""
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if n < 2:
        return 1.0
    sq = np.einsum("ij,ij->i", Z, Z)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Z @ Z.T)
    med = float(np.median(d2[np.triu_indices(n, k=1)]))
    if med <= 0:
        return 1.0
    return 1.0 / med


def _psd_spectrum(K: np.ndarray, vectors: bool):
    """Symmetrized, PSD-checked K with its ascending eigenvalues and, if
    `vectors`, eigenvectors (else None); see `ensure_psd`."""
    K = 0.5 * (K + K.T)
    lam, U = np.linalg.eigh(K) if vectors else (np.linalg.eigvalsh(K), None)
    lam_min = float(lam[0])
    if lam_min < PSD_REJECT:
        raise GramNotPSD(f"smallest Gram eigenvalue {lam_min:.3e}")
    if lam_min < PSD_JITTER_TRIGGER:
        shift = 1e-10 * float(np.mean(np.diag(K)))
        K = K + shift * np.eye(K.shape[0])
        lam = lam + shift
    return K, lam, U


def ensure_psd(K: np.ndarray) -> np.ndarray:
    """Symmetrize and check positive semidefiniteness.

    Round-off negativity up to the jitter trigger is absorbed by a tiny
    diagonal shift; anything below the reject threshold raises.
    """
    return _psd_spectrum(K, vectors=False)[0]


def cross_gram(Za, Zb, kind: str, gamma: Optional[float]) -> np.ndarray:
    """Kernel evaluations k(a_i, b_j) between two row sets."""
    Za = np.atleast_2d(np.asarray(Za, dtype=np.float64))
    Zb = np.atleast_2d(np.asarray(Zb, dtype=np.float64))
    if not (np.all(np.isfinite(Za)) and np.all(np.isfinite(Zb))):
        raise NonFiniteInput("kernel inputs contain NaN or infinite entries")
    if Za.shape[1] != Zb.shape[1]:
        raise ShapeMismatch(
            f"kernel inputs have {Za.shape[1]} and {Zb.shape[1]} columns"
        )
    if kind == "linear":
        return Za @ Zb.T
    sa = np.einsum("ij,ij->i", Za, Za)
    sb = np.einsum("ij,ij->i", Zb, Zb)
    d2 = np.maximum(sa[:, None] + sb[None, :] - 2.0 * (Za @ Zb.T), 0.0)
    return np.exp(-gamma * d2)


def gram(view_data, kernel: KernelSpec) -> np.ndarray:
    """Symmetric PSD Gram matrix of one view under the given kernel.

    For rbf, a concrete gamma must be supplied (fitting resolves the
    median heuristic before calling this).
    """
    if kernel.kind == "rbf" and kernel.gamma is None:
        raise ValueError("rbf gram needs a concrete gamma; resolve the heuristic first")
    K = cross_gram(view_data, view_data, kernel.kind, kernel.gamma)
    return ensure_psd(K)


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Atom matrices plus everything needed to evaluate kernels later:
    retained training views, the kernel spec, resolved per-view gammas,
    and the cached (read-only) Gram matrices."""

    A: tuple
    training_views: tuple
    kernel: KernelSpec
    gram: tuple
    gammas: tuple

    @property
    def n_train(self) -> int:
        return self.training_views[0].shape[0]

    def stacks(self, view_rows):
        """Sweep stacks of new examples (one row matrix per view): P_v and
        the self-kernels through cross-kernels against the retained
        training views, G_v as in training."""
        rows = _as_rows(view_rows, [Z.shape[1] for Z in self.training_views])
        P = np.stack([
            cross_gram(Z, Ztr, self.kernel.kind, g) @ A  # (n_new x n_train) A
            for Z, Ztr, g, A in zip(rows, self.training_views, self.gammas, self.A)
        ])
        if self.kernel.kind == "linear":
            znorm = np.stack([np.einsum("ij,ij->i", Z, Z) for Z in rows])
        else:
            znorm = np.ones(P.shape[:2])
        return np.stack([A.T @ (K @ A) for A, K in zip(self.A, self.gram)]), P, znorm


def kernel_residual_sq(i: int, v: int, x, km: KernelModel) -> float:
    """Feature-space squared residual of training example i on view v at
    latent point x; round-off negativity is clamped to zero."""
    if not 0 <= v < len(km.A):
        raise IndexError(f"view index {v} out of range")
    K = km.gram[v]
    if not 0 <= i < K.shape[0]:
        raise IndexError(f"example index {i} out of range")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    A = km.A[v]
    Ax = A @ x
    val = float(K[i, i] - 2.0 * (K[i] @ Ax) + Ax @ (K @ Ax))
    return max(val, 0.0)


def kernel_w_norm_sq(v: int, km: KernelModel) -> float:
    """Squared feature-space norm of view v's map: trace(A^T K A).

    This is the Frobenius norm of the implicit map, the unique reading
    under which explicit (linear-kernel) features reproduce the linear
    model's penalty exactly.
    """
    A = km.A[v]
    return float(np.sum((km.gram[v] @ A) * A))


def kernel_alternation_objective(km_A, grams, X, hp: Hyperparams, loss="cauchy") -> float:
    """The alternation objective in atom coordinates, on the stacks
    A_v^T K_v A_v, K_v A_v and diag(K_v)."""
    P = np.stack([K @ A for A, K in zip(km_A, grams)])
    G = np.stack([A.T @ KA for A, KA in zip(km_A, P)])
    s = residual_sq_from_stacks(G, P, np.stack([np.diag(K) for K in grams]), X)
    return _objective(s, G, X, hp, loss)


def kernel_fit(
    dataset: MultiViewDataset,
    hp: Hyperparams,
    kernel: KernelSpec,
    init=None,
    loss: str = "cauchy",
    threads: int = 1,
):
    """Fit the kernel model on exact kernel features (module docstring):
    latents from `default_init`, maps by ridge against them, or atoms of
    `init=(model, X)` mapped in as W_v = Phi_v^T A_v. Returns
    (IntactModel in kernel mode, IntactEmbedding, FitHistory).
    """
    if loss not in ("cauchy", "l2"):
        raise ValueError(f"unknown loss {loss!r}")
    views = dataset.views
    n, d = dataset.n, hp.d

    gammas, grams, feats, to_atoms = [], [], [], []
    for Z in views:
        g = None if kernel.kind == "linear" else kernel.gamma or median_heuristic_gamma(Z)
        K, lam, U = _psd_spectrum(cross_gram(Z, Z, kernel.kind, g), vectors=True)
        keep = lam > FEATURE_RCOND * lam[-1]
        root = np.sqrt(lam[keep])
        gammas.append(g)
        grams.append(freeze_array(K))
        feats.append(U[:, keep] * root)
        to_atoms.append(U[:, keep] / root)
    znorm = np.stack([np.diag(K) for K in grams])
    offsets = znorm - np.stack([np.einsum("ij,ij->i", F, F) for F in feats])

    if init is not None:
        model0, X0 = init
        if model0.mode != "kernel":
            raise ShapeMismatch("kernel_fit init must carry a kernel-mode model")
        A = [np.asarray(Av, dtype=np.float64) for Av in model0.kernel_part.A]
        for v, Av in enumerate(A):
            if Av.shape != (n, d):
                raise ShapeMismatch(f"A[{v}] shape {Av.shape}, expected ({n}, {d})")
        W = [F.T @ Av for F, Av in zip(feats, A)]
        X = np.array(as_matrix(X0), dtype=np.float64)
    else:
        X = default_init(views, hp)[0]
        W = _ridge_maps(X, feats, hp.C1)

    W, X, history = alternate(
        W, X,
        lambda W: _view_stacks(feats, W)[:2] + (znorm,),
        _map_sweep(feats, offsets, hp, loss),
        hp, loss, threads,
    )
    km = KernelModel(
        A=tuple(freeze_array(B @ Wv) for B, Wv in zip(to_atoms, W)),
        training_views=tuple(views),
        kernel=kernel,
        gram=tuple(grams),
        gammas=tuple(gammas),
    )
    model = IntactModel(mode="kernel", W=None, kernel_part=km, hyperparams=hp)
    return model, IntactEmbedding(X), history


def kernel_embed_many(z_rows, km: KernelModel, hp: Hyperparams, threads: int = 1):
    """Embed a batch of new multi-view examples (one row matrix per view):
    `embed_examples` on the kernel-mode model of km and hp."""
    model = IntactModel(mode="kernel", W=None, kernel_part=km, hyperparams=hp)
    return embed_examples(z_rows, model, hp, threads)


def kernel_embed(z_new, km: KernelModel, hp: Hyperparams = None) -> np.ndarray:
    """Latent coordinate of one new multi-view example, found by the same
    reweighted solver used in training, via cross-kernels against the
    retained training views."""
    if hp is None:
        raise ValueError("kernel_embed needs hyperparameters")
    rows = [np.asarray(z, dtype=np.float64).reshape(1, -1) for z in z_new]
    return kernel_embed_many(rows, km, hp)[0]
