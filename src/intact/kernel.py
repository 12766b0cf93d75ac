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
Nystrom map), so K_v = Phi_v Phi_v^T and maps W_v = Phi_v^T A_v. The
features are kept in one zero-padded (m x n x max r_v) stack, which the
map sweep reads as is. Both sweeps take diag(K_v) as the row norms, so
the residuals they read from the stacks are exact in feature space. The
model stores A_v = U_r Lambda_r^{-1/2} W_v; with a linear kernel the
iterates coincide with the linear model's up to round-off. A fitted
model builds its stack G_v = A_v^T K_v A_v once, on first use
(`KernelModel.G`), and everything that reads the model's maps reads it.

An rbf fit starts in feature space: the latents are U_d Lambda_d^{1/2}
from the top-d eigenpairs of sum_v K_v (`_feature_start`), the kernel-PCA
subspace of the concatenated features and the unshrunk principal subspace
of the L2 problem there, with maps fitted by ridge against them. Starting
from `default_init`'s principal directions of the inputs instead costs
the fit outer iterations spent moving from the linear subspace into the
kernel one (README S-curve, n = 1000: 78 against 10). A linear-kernel fit
keeps `default_init` on the inputs, so that it takes the linear fit's
steps.

Every Gram is PSD-checked (`ensure_psd`): eigenvalues below
PSD_REJECT raise, and those between it and PSD_JITTER_TRIGGER get a tiny
diagonal shift. The check that `gram` and `load_model` make first tries
a Cholesky factorization of K + |PSD_JITTER_TRIGGER| I, which succeeds
only when no eigenvalue lies below the trigger and costs a fraction of
`eigvalsh`; only a failed factorization computes the eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    Hyperparams,
    IntactEmbedding,
    IntactModel,
    MultiViewDataset,
    freeze_array,
)
from .errors import GramNotPSD, NonFiniteInput, ShapeMismatch
from .inference import embed_examples
from .optimizer import (
    _as_rows,
    _map_sweep,
    _objective,
    _principal_latents,
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
    `vectors`, eigenvectors (else None); see `ensure_psd`.

    Without `vectors`, a Cholesky factorization of K + |PSD_JITTER_TRIGGER| I
    with a finite diagonal certifies that no eigenvalue lies below the
    trigger, where the eigenvalue rule returns K unchanged: K is returned
    with no eigenvalues (None). Only a failed factorization runs eigvalsh."""
    K = 0.5 * (K + K.T)
    if not vectors:
        shifted = K.copy()
        shifted.flat[:: K.shape[0] + 1] += abs(PSD_JITTER_TRIGGER)
        try:
            if np.isfinite(np.linalg.cholesky(shifted).diagonal().sum()):
                return K, None, None
        except np.linalg.LinAlgError:
            pass
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
    diagonal shift; anything below the reject threshold raises. A Gram
    that passes the Cholesky certificate of `_psd_spectrum` needs no
    eigenvalues.
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

    @cached_property
    def G(self) -> np.ndarray:
        """Read-only stack G_v = A_v^T K_v A_v, built on first use."""
        return freeze_array(_atom_stacks(self.A, self.gram)[0])

    def stacks(self, view_rows):
        """Sweep stacks of new examples (one row matrix per view): P_v and
        the self-kernels through cross-kernels against the retained
        training views, and the model's G stack."""
        rows = _as_rows(view_rows, [Z.shape[1] for Z in self.training_views])
        P = np.stack([
            cross_gram(Z, Ztr, self.kernel.kind, g) @ A  # (n_new x n_train) A
            for Z, Ztr, g, A in zip(rows, self.training_views, self.gammas, self.A)
        ])
        if self.kernel.kind == "linear":
            znorm = np.stack([np.einsum("ij,ij->i", Z, Z) for Z in rows])
        else:
            znorm = np.ones(P.shape[:2])
        return self.G, P, znorm


def _atom_stacks(km_A, grams):
    """Stacks A_v^T K_v A_v and K_v A_v of atom maps over their Grams."""
    KA = np.stack([K @ A for A, K in zip(km_A, grams)])
    return np.stack([A.T @ P for A, P in zip(km_A, KA)]), KA


def kernel_residual_sq(i: int, v: int, x, km: KernelModel) -> float:
    """Feature-space squared residual of training example i on view v at
    latent point x, k(z_i,z_i) - 2 k_i^T A_v x + x^T G_v x; round-off
    negativity is clamped to zero."""
    if not 0 <= v < len(km.A):
        raise IndexError(f"view index {v} out of range")
    K = km.gram[v]
    if not 0 <= i < K.shape[0]:
        raise IndexError(f"example index {i} out of range")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    val = float(K[i, i] - 2.0 * (K[i] @ (km.A[v] @ x)) + x @ km.G[v] @ x)
    return max(val, 0.0)


def kernel_w_norm_sq(v: int, km: KernelModel) -> float:
    """Squared feature-space norm of view v's map: trace(A^T K A).

    This is the Frobenius norm of the implicit map, the unique reading
    under which explicit (linear-kernel) features reproduce the linear
    model's penalty exactly.
    """
    return float(np.trace(km.G[v]))


def kernel_alternation_objective(km_A, grams, X, hp: Hyperparams) -> float:
    """The alternation objective in atom coordinates, on the stacks
    A_v^T K_v A_v, K_v A_v and diag(K_v)."""
    G, P = _atom_stacks(km_A, grams)
    s = residual_sq_from_stacks(G, P, np.stack([np.diag(K) for K in grams]), X)
    return _objective(s, G, X, hp)


def _features(views, kernel: KernelSpec):
    """Per-view gammas and PSD-checked Grams, the exact features
    Phi_v = U_r Lambda_r^{1/2} written into one zero-padded
    (m x n x max r_v) stack, and the maps to atoms U_r Lambda_r^{-1/2}
    (n x r_v each, so r_v is their width)."""
    gammas, grams, to_atoms, roots = [], [], [], []
    for Z in views:
        g = None if kernel.kind == "linear" else kernel.gamma or median_heuristic_gamma(Z)
        K, lam, U = _psd_spectrum(cross_gram(Z, Z, kernel.kind, g), vectors=True)
        keep = lam > FEATURE_RCOND * lam[-1]
        gammas.append(g)
        grams.append(freeze_array(K))
        to_atoms.append(U[:, keep])
        roots.append(np.sqrt(lam[keep]))
    Phi = np.zeros((len(views), len(views[0]), max(len(r) for r in roots)))
    for F, B, root in zip(Phi, to_atoms, roots):
        np.multiply(B, root, out=F[:, : len(root)])
        B /= root
    return gammas, grams, Phi, to_atoms


def _feature_start(grams, hp: Hyperparams) -> np.ndarray:
    """Starting latents U_d Lambda_d^{1/2} from the top-d eigenpairs of
    sum_v K_v: the kernel-PCA subspace of the concatenated features,
    through `_principal_latents` with each column's sign fixed on U.

    A full `numpy.linalg.eigh`, not scipy's subset solver: at the sizes a
    kernel fit handles (n <= 1000) the subset call saves less time than
    importing `scipy.linalg` into a fresh process costs."""
    K = np.array(grams[0])
    for Kv in grams[1:]:
        K += Kv
    lam, U = np.linalg.eigh(K)
    lam, U = lam[::-1][: hp.d], U[:, ::-1][:, : hp.d]
    return _principal_latents(U, np.sqrt(np.maximum(lam, 0.0)), U.T, hp)


def kernel_fit(dataset: MultiViewDataset, hp: Hyperparams, kernel: KernelSpec):
    """Fit the kernel model on exact kernel features (module docstring).
    An rbf fit starts from the latents of `_feature_start`, the principal
    subspace of sum_v K_v; a linear-kernel fit from those of
    `default_init` on the inputs, as `optimizer.fit` does, so the two
    take the same steps. The maps start as ridge fits against the
    latents. Returns (IntactModel in kernel mode, IntactEmbedding,
    FitHistory).
    """
    views = dataset.views
    gammas, grams, Phi, to_atoms = _features(views, kernel)
    feats = [F[:, : B.shape[1]] for F, B in zip(Phi, to_atoms)]
    znorm = np.stack([np.diag(K) for K in grams])

    if kernel.kind == "linear":
        X = default_init(views, hp)[0]
    else:
        X = _feature_start(grams, hp)
    W = _ridge_maps(X, feats, hp.C1)

    W, X, history = alternate(
        W, X,
        lambda W: _view_stacks(feats, W)[:2] + (znorm,),
        _map_sweep(Phi, znorm, hp),
        hp,
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


def kernel_embed_many(z_rows, km: KernelModel, hp: Hyperparams):
    """Embed a batch of new multi-view examples (one row matrix per view):
    `embed_examples` on the kernel-mode model of km and hp."""
    model = IntactModel(mode="kernel", W=None, kernel_part=km, hyperparams=hp)
    return embed_examples(z_rows, model, hp)


def kernel_embed(z_new, km: KernelModel, hp: Hyperparams) -> np.ndarray:
    """Latent coordinate of one new multi-view example, found by the same
    reweighted solver used in training, via cross-kernels against the
    retained training views."""
    rows = [np.asarray(z, dtype=np.float64).reshape(1, -1) for z in z_new]
    return kernel_embed_many(rows, km, hp)[0]
