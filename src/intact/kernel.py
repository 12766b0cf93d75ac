"""Kernelized intact-space learning.

View maps live in a reproducing-kernel feature space and are expressed
through atom matrices A_v over the training examples, so residuals and
map norms reduce to Gram-matrix algebra:

    ||z_i^v - map_v(x_i)||^2 = k(z_i,z_i) - 2 k_i^T A_v x_i
                               + x_i^T A_v^T K_v A_v x_i
    ||map_v||^2 = trace(A_v^T K_v A_v)

Training is the linear fit path (`optimizer._fit_stack`) on exact
features Phi_v = U_r Lambda_r^{1/2} from one eigendecomposition of each
Gram (eigenvalues above FEATURE_RCOND of the largest; the r = n Nystrom
map), so K_v = Phi_v Phi_v^T and maps W_v = Phi_v^T A_v. This module
only builds the features (`_features`: one zero-padded (m x n x max r_v)
stack), their row norms diag(K_v) and the start; the fit path runs the
alternation on them. Both sweeps take diag(K_v) as the row norms, so
the residuals they read from the stacks are exact in feature space.
Each Gram is dropped once its view is decomposed (an rbf start keeps
only their running sum, and only until the start is formed), so a fit
holds no n x n matrix through the alternation. The model stores
A_v = U_r Lambda_r^{-1/2} W_v, read back from the features as
Phi_v (Lambda_r^{-1} W_v); with a linear kernel the iterates coincide
with the linear model's up to round-off. A model holds
what its file holds (atoms, training views, kernel kind, gammas); its
Grams are derived, and its stack G_v = A_v^T K_v A_v is built once, on
first use (`KernelModel.G`), from Grams dropped view by view.

An rbf fit starts in feature space: the latents are U_d Lambda_d^{1/2}
from the top-d eigenpairs of sum_v K_v (`_feature_start`), the kernel-PCA
subspace of the concatenated features and the unshrunk principal subspace
of the L2 problem there, with maps fitted by ridge against them. Starting
from `default_init`'s principal directions of the inputs instead costs
the fit outer iterations spent moving from the linear subspace into the
kernel one (README S-curve, n = 1000: 61 against 10). A linear-kernel fit
keeps `default_init` on the inputs, so that it takes the linear fit's
steps.

Every Gram is PSD-checked (`ensure_psd`) against thresholds scaled by
s = max(1, largest diagonal entry of K), since eigenvalue round-off grows
with the Gram's scale (a linear Gram of raw inputs can have entries of
1e10 and more): eigenvalues below PSD_REJECT s raise, and those between
it and PSD_JITTER_TRIGGER s get a tiny diagonal shift. An rbf Gram has a
unit diagonal, so s = 1 there. Only `gram` checks a model's Grams, at the
first `KernelModel.gram` or `.G` access; it first tries a Cholesky
factorization of K + |PSD_JITTER_TRIGGER| s I, which succeeds only when
no eigenvalue lies below the trigger and costs a fraction of `eigvalsh`;
only a failed factorization computes the eigenvalues.

An rbf block k(a_i, b_j) = exp(-gamma ||a_i - b_j||^2) is evaluated in
the one n_a x n_b buffer that the product Za Zb^T allocates
(`_sq_distances`): it is scaled by -2, the squared row norms are added,
the result is clamped at 0, scaled by -gamma and exponentiated in place,
so a block peaks at about its own size (1.09x its bytes for a 1000 x 100
block under tracemalloc) and costs one allocation, not one per step. Every
step stays finite because `core.validate_dataset`, and `load_model` for
a model's training views, reject a view whose squared row norms sum
above `core.SQ_NORM_LIMIT`, an eighth of the largest double: no norm,
cross term or squared distance between accepted rows can then overflow,
and a far pair's exp underflows to exactly 0 without a warning.
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
    _fit_stack,
    _objective,
    _principal_latents,
    _ridge_maps,
    default_init,
    residual_sq_from_stacks,
)

# Thresholds on the smallest Gram eigenvalue, relative to
# max(1, largest diagonal entry): eigenvalue round-off grows with the
# Gram's scale.
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
        if self.kind == "linear" and self.gamma is not None:
            raise ValueError(f"a linear kernel takes no gamma, got {self.gamma}")


def median_heuristic_gamma(Z) -> float:
    """1 / median pairwise squared distance between rows of Z, over the upper
    triangle gathered from row slices (no index arrays) and partitioned in place."""
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if n < 2:
        return 1.0
    D = _sq_distances(Z, Z)
    med = float(np.median(np.concatenate([D[i, i + 1:] for i in range(n - 1)]),
                          overwrite_input=True))
    if med <= 0:
        return 1.0
    return 1.0 / med


def _psd_spectrum(K: np.ndarray, vectors: bool):
    """Symmetrized, PSD-checked K with its ascending eigenvalues and, if
    `vectors`, eigenvectors (else None); see `ensure_psd`.

    Without `vectors`, a Cholesky factorization of K + |trigger| I with a
    finite diagonal certifies that no eigenvalue lies below the trigger,
    where the eigenvalue rule returns K unchanged: K is returned with no
    eigenvalues (None). Only a failed factorization runs eigvalsh."""
    K = 0.5 * (K + K.T)
    # a NaN diagonal leaves the scale at 1: max keeps its first argument
    scale = max(1.0, float(np.max(K.diagonal())))
    if not vectors:
        shifted = K.copy()
        shifted.flat[:: K.shape[0] + 1] += abs(PSD_JITTER_TRIGGER) * scale
        try:
            if np.isfinite(np.linalg.cholesky(shifted).diagonal().sum()):
                return K, None, None
        except np.linalg.LinAlgError:
            pass
    lam, U = np.linalg.eigh(K) if vectors else (np.linalg.eigvalsh(K), None)
    lam_min = float(lam[0])
    if lam_min < PSD_REJECT * scale:
        raise GramNotPSD(f"smallest Gram eigenvalue {lam_min:.3e}")
    if lam_min < PSD_JITTER_TRIGGER * scale:
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
    K = _sq_distances(Za, Zb)
    K *= -gamma
    return np.exp(K, out=K)


def _sq_distances(Za, Zb) -> np.ndarray:
    """Squared distances ||a_i - b_j||^2 between the rows of Za and Zb as
    ||a_i||^2 + ||b_j||^2 - 2 a_i.b_j, every step written into the one
    n_a x n_b buffer of the product and clamped at 0 against the
    cancellation of near-equal rows."""
    D = Za @ Zb.T
    D *= -2.0
    D += np.einsum("ij,ij->i", Za, Za)[:, None]
    D += np.einsum("ij,ij->i", Zb, Zb)
    return np.maximum(D, 0.0, out=D)


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
    """What a kernel model file holds: atom matrices, the retained training
    views, the kernel kind and the resolved per-view gammas."""

    A: tuple
    training_views: tuple
    kernel: KernelSpec
    gammas: tuple

    @property
    def n_train(self) -> int:
        return self.training_views[0].shape[0]

    def _gram(self, v: int) -> np.ndarray:
        return gram(self.training_views[v], KernelSpec(self.kernel.kind, self.gammas[v]))

    @cached_property
    def gram(self) -> tuple:
        """Read-only, PSD-checked Gram matrices of the training views."""
        return tuple(freeze_array(self._gram(v)) for v in range(len(self.A)))

    @cached_property
    def G(self) -> np.ndarray:
        """Read-only stack G_v = A_v^T K_v A_v, built on first use; each
        Gram is dropped after its view."""
        return freeze_array(np.stack([A.T @ (self._gram(v) @ A) for v, A in enumerate(self.A)]))

    def stacks(self, rows):
        """Sweep stacks of new examples, one checked row matrix per view
        (`optimizer._as_rows`): P_v and the self-kernels through
        cross-kernels against the retained training views, and the
        model's G stack."""
        P = np.stack([
            cross_gram(Z, Ztr, self.kernel.kind, g) @ A  # (n_new x n_train) A
            for Z, Ztr, g, A in zip(rows, self.training_views, self.gammas, self.A)
        ])
        if self.kernel.kind == "linear":
            znorm = np.stack([np.einsum("ij,ij->i", Z, Z) for Z in rows])
        else:
            znorm = np.ones(P.shape[:2])
        return self.G, P, znorm


def kernel_alternation_objective(km_A, grams, X, hp: Hyperparams) -> float:
    """The alternation objective in atom coordinates, on the stacks
    A_v^T K_v A_v, K_v A_v and diag(K_v)."""
    P = np.stack([K @ A for A, K in zip(km_A, grams)])
    G = np.stack([A.T @ KA for A, KA in zip(km_A, P)])
    s = residual_sq_from_stacks(G, P, np.stack([np.diag(K) for K in grams]), X)
    return _objective(s, G, X, hp)


def _features(views, kernel: KernelSpec):
    """Per-view gammas, the exact features Phi_v = U_r Lambda_r^{1/2} of
    each PSD-checked Gram written into one zero-padded (m x n x max r_v)
    stack, their squared row norms diag(K_v) (m x n), the retained
    eigenvalues Lambda_r (r_v of them per view, so they give its width)
    and, for an rbf start, sum_v K_v (None for a linear kernel). No Gram
    outlives its own view's eigendecomposition."""
    gammas, features, lams = [], [], []
    znorm = np.empty((len(views), len(views[0])))
    K_sum = None
    for v, Z in enumerate(views):
        g = None if kernel.kind == "linear" else kernel.gamma or median_heuristic_gamma(Z)
        K, lam, U = _psd_spectrum(cross_gram(Z, Z, kernel.kind, g), vectors=True)
        keep = lam > FEATURE_RCOND * lam[-1]
        gammas.append(g)
        znorm[v] = K.diagonal()
        if kernel.kind == "rbf":
            K_sum = K if K_sum is None else np.add(K_sum, K, out=K_sum)
        del K
        features.append(U[:, keep])
        lams.append(lam[keep])
        del U
    Phi = np.zeros((len(views), len(views[0]), max(len(lam) for lam in lams)))
    for F, B, lam in zip(Phi, features, lams):
        np.multiply(B, np.sqrt(lam), out=F[:, : len(lam)])
    return gammas, Phi, znorm, lams, K_sum


def _feature_start(K_sum, hp: Hyperparams) -> np.ndarray:
    """Starting latents U_d Lambda_d^{1/2} from the top-d eigenpairs of
    K_sum = sum_v K_v: the kernel-PCA subspace of the concatenated
    features, through `_principal_latents` with each column's sign fixed
    on U.

    A full `numpy.linalg.eigh`, not scipy's subset solver: at the sizes a
    kernel fit handles (n <= 1000) the subset call saves less time than
    importing `scipy.linalg` into a fresh process costs."""
    lam, U = np.linalg.eigh(K_sum)
    lam, U = lam[::-1][: hp.d], U[:, ::-1][:, : hp.d]
    return _principal_latents(U, np.sqrt(np.maximum(lam, 0.0)), U.T, hp)


def kernel_fit(dataset: MultiViewDataset, hp: Hyperparams, kernel: KernelSpec):
    """Fit the kernel model: `optimizer._fit_stack` on the exact kernel
    features of `_features` and diag K_v (module docstring). An rbf fit
    starts from the latents of `_feature_start`, the principal subspace
    of sum_v K_v; a linear-kernel fit from those of `default_init` on the
    inputs, as `optimizer.fit` does, so the two take the same steps. The
    maps start as ridge fits against the latents. No n x n matrix is held
    through the alternation: the atoms A_v = U_r Lambda_r^{-1/2} W_v are
    read back from the features as Phi_v (Lambda_r^{-1} W_v). Returns
    (IntactModel in kernel mode, IntactEmbedding, FitHistory).
    """
    views = dataset.views
    gammas, Phi, znorm, lams, K_sum = _features(views, kernel)
    if kernel.kind == "linear":
        X = default_init(views, hp)[0]
    else:
        X = _feature_start(K_sum, hp)
    del K_sum
    features = [F[:, : len(lam)] for F, lam in zip(Phi, lams)]
    W = _ridge_maps(X, features, hp.C1)
    W, X, history = _fit_stack(Phi, znorm, X, W, hp)
    km = KernelModel(
        A=tuple(freeze_array(F @ (Wv / lam[:, None])) for F, Wv, lam in zip(features, W, lams)),
        training_views=tuple(views),
        kernel=KernelSpec(kernel.kind),
        gammas=tuple(gammas),
    )
    model = IntactModel(mode="kernel", W=None, kernel_part=km, hyperparams=hp)
    return model, IntactEmbedding(X), history


def kernel_embed_many(z_rows, km: KernelModel, hp: Hyperparams):
    """Embed a batch of new multi-view examples (one row matrix per view):
    `embed_examples` on the kernel-mode model of km and hp."""
    model = IntactModel(mode="kernel", W=None, kernel_part=km, hyperparams=hp)
    return embed_examples(z_rows, model)

