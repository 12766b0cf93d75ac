"""Quantitative evaluation: reconstruction error, latent-space alignment,
k-NN classification, and the contamination-robustness benchmark."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Hyperparams, IntactModel, MultiViewDataset, as_matrix, validate_dataset
from .errors import EmptyTrainingSet, NonFiniteInput, RankDeficient, ShapeMismatch
from .optimizer import _model_residual_sq, data_term, fit, l2_fit

# Cells of the largest array k-NN holds per block: test rows x k x k in
# the vote, tied rows x n_train when ties are resolved by brute force.
_KNN_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class AlignmentScore:
    """Frobenius-relative error after the best affine map from an estimated
    latent space onto ground truth, plus the fitted map itself.

    Alignment is scored up to an affine transform because the generative
    model identifies the latent space only up to invertible linear maps
    (absorbed into the view maps) and standardization recenters views.
    """

    relative_residual: float
    map: np.ndarray
    offset: np.ndarray


def reconstruction_error(dataset, model: IntactModel, X) -> float:
    """Mean Cauchy loss over all (view, example) pairs: the data term of
    the training objective."""
    X = as_matrix(X)
    return data_term(_model_residual_sq(dataset, model, X)[0], model.hyperparams.c)


def align_to_truth(X_est, X_true) -> AlignmentScore:
    """Least-squares affine alignment of X_est onto X_true.

    Requires finite inputs and X_est of full column rank; the residual is
    invariant under invertible re-parameterizations of X_est.
    """
    X_est = np.asarray(X_est, dtype=np.float64)
    X_true = np.asarray(X_true, dtype=np.float64)
    if X_est.shape != X_true.shape:
        raise ShapeMismatch(
            f"estimate {X_est.shape} and truth {X_true.shape} differ in shape"
        )
    if not (np.all(np.isfinite(X_est)) and np.all(np.isfinite(X_true))):
        raise NonFiniteInput("alignment inputs contain NaN or infinite entries")
    n, d = X_est.shape
    aug = np.column_stack([X_est, np.ones(n)])
    sol, _, rank, _ = np.linalg.lstsq(aug, X_true, rcond=None)
    if rank < d + 1:
        raise RankDeficient(
            f"estimate has rank {rank - 1 if rank else 0} < {d}; alignment undefined"
        )
    resid = X_true - aug @ sol
    denom = max(float(np.linalg.norm(X_true)), np.finfo(float).tiny)
    return AlignmentScore(
        relative_residual=float(np.linalg.norm(resid)) / denom,
        map=sol[:d].copy(),
        offset=sol[d].copy(),
    )


def knn_classify(train_X, train_labels, test_X, k: int = 3, test_labels=None):
    """Majority vote among the k Euclidean-nearest training rows.

    The neighbours of a test row are the k training rows with the smallest
    Euclidean distance; among rows tied at the k-th distance, the lower
    training index wins. The vote goes to the label with the most
    neighbours, then to the label whose neighbours have the smaller summed
    distance (added nearest first), then to the lowest label. Returns
    (predictions, accuracy) where accuracy is None without test labels.

    A k-d tree finds k + 1 neighbours of each test row; only rows whose
    k-th and (k+1)-th distances are equal are resolved by brute force.
    Test rows are processed in blocks, so memory stays bounded by the
    block size rather than n_test x n_train.
    """
    train_X = np.atleast_2d(np.asarray(train_X, dtype=np.float64))
    test_X = np.atleast_2d(np.asarray(test_X, dtype=np.float64))
    labels = np.asarray(train_labels)
    if train_X.shape[0] == 0:
        raise EmptyTrainingSet("no training rows")
    if labels.shape[0] != train_X.shape[0]:
        raise ShapeMismatch("label count does not match training rows")
    if test_labels is not None:
        test_labels = np.atleast_1d(np.asarray(test_labels))
        if len(test_labels) != test_X.shape[0]:
            raise ShapeMismatch(
                f"{len(test_labels)} test labels for {test_X.shape[0]} test rows"
            )
    if not 1 <= k <= train_X.shape[0]:
        raise ValueError(f"k must be in [1, {train_X.shape[0]}], got {k}")
    if train_X.shape[1] != test_X.shape[1]:
        raise ShapeMismatch("train and test dimensionality differ")
    if not (np.all(np.isfinite(train_X)) and np.all(np.isfinite(test_X))):
        raise NonFiniteInput("k-NN inputs contain NaN or infinite entries")

    # Imported here rather than at module level: importing scipy.spatial
    # takes about 0.3 s, which every process that imports intact would
    # pay, and most never classify.
    from scipy.spatial import cKDTree

    uniq, codes = np.unique(labels, return_inverse=True)
    tree = cKDTree(train_X)
    n_query = min(k + 1, train_X.shape[0])
    block = max(1, _KNN_BLOCK_CELLS // (k * k))
    winner = np.empty(test_X.shape[0], dtype=np.intp)
    for start in range(0, test_X.shape[0], block):
        rows = test_X[start:start + block]
        dist, idx = tree.query(rows, k=n_query)
        dist = dist.reshape(len(rows), n_query)
        idx = idx.reshape(len(rows), n_query)
        tied = np.flatnonzero(dist[:, k - 1] == dist[:, -1]) if n_query > k else []
        dist, idx = dist[:, :k], idx[:, :k]
        if len(tied):
            dist[tied], idx[tied] = _exact_neighbours(train_X, rows[tied], k)
        winner[start:start + block] = _vote(codes[idx], dist)
    preds = uniq[winner]
    accuracy = None
    if test_labels is not None:
        accuracy = float(np.mean(preds == test_labels))
    return preds, accuracy


def _exact_neighbours(train_X, rows, k: int):
    """Distances and indices (each len(rows) x k, in order of distance) of
    the k nearest training rows of each row by brute force, ties at the
    k-th distance going to the lower index."""
    from scipy.spatial.distance import cdist

    dist = np.empty((len(rows), k))
    idx = np.empty((len(rows), k), dtype=np.intp)
    step = max(1, _KNN_BLOCK_CELLS // train_X.shape[0])
    for start in range(0, len(rows), step):
        d2 = cdist(rows[start:start + step], train_X, "sqeuclidean")
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        inside = d2 < kth
        at_kth = d2 == kth
        room = k - inside.sum(axis=1, keepdims=True)
        inside |= at_kth & (np.cumsum(at_kth, axis=1) <= room)
        chosen = np.nonzero(inside)[1].reshape(-1, k)
        near = np.sqrt(np.take_along_axis(d2, chosen, axis=1))
        order = np.argsort(near, axis=1, kind="stable")
        idx[start:start + step] = np.take_along_axis(chosen, order, axis=1)
        dist[start:start + step] = np.take_along_axis(near, order, axis=1)
    return dist, idx


def _vote(codes, dist) -> np.ndarray:
    """Winning label code of each row of neighbour label codes and
    distances (rows x k), neighbours ordered nearest first."""
    same = codes[:, :, None] == codes[:, None, :]
    count = same.sum(axis=2)
    # One neighbour at a time, nearest first, so each label's sum rounds as
    # its own distances added in that order do.
    summed = np.zeros(dist.shape)
    for j in range(dist.shape[1]):
        summed += np.where(same[:, :, j], dist[:, j, None], 0.0)
    cand = count == count.max(axis=1, keepdims=True)
    summed = np.where(cand, summed, np.inf)
    cand &= summed == summed.min(axis=1, keepdims=True)
    return np.where(cand, codes, np.iinfo(np.intp).max).min(axis=1)


@dataclass(frozen=True)
class RobustnessReport:
    """Reconstruction errors against clean truth for the Cauchy fit and the
    closed-form L2 optimum (`optimizer.l2_fit`), plus their ratio."""

    cauchy_error: float
    l2_error: float
    ratio: float


def _relative_reconstruction(clean_views, model, X) -> float:
    """Summed squared residuals over summed squared norms of the views."""
    num = float(_model_residual_sq(clean_views, model, as_matrix(X))[0].sum())
    den = sum(float(np.sum(Z * Z)) for Z in clean_views)
    return num / max(den, np.finfo(float).tiny)


def robustness_benchmark(
    base_dataset: MultiViewDataset,
    contamination_rate: float,
    magnitude: float,
    hp: Hyperparams,
) -> RobustnessReport:
    """Contaminate one view with +/-magnitude outliers and compare fits.

    A random subset of view 0's entries, drawn from hp.seed, is replaced.
    The Cauchy fit and the squared-error baseline with the same d and
    regularizers, the exact L2 optimum from `l2_fit`, are both trained on
    the corrupted data and scored by squared reconstruction error against
    the clean views, isolating the effect of the loss function.
    """
    if not 0.0 <= contamination_rate < 0.5:
        raise ValueError("contamination_rate must lie in [0, 0.5)")
    rng = np.random.default_rng(hp.seed)
    clean = [np.asarray(Z, dtype=np.float64) for Z in base_dataset.views]
    corrupted = [Z.copy() for Z in clean]
    n_entries = corrupted[0].size
    n_bad = int(contamination_rate * n_entries)
    if n_bad > 0:
        flat_idx = rng.choice(n_entries, size=n_bad, replace=False)
        signs = rng.choice([-1.0, 1.0], size=n_bad)
        target = corrupted[0].reshape(-1)
        target[flat_idx] = signs * magnitude
        corrupted[0] = target.reshape(corrupted[0].shape)
    noisy = validate_dataset(corrupted, base_dataset.labels)

    model_c, X_c, _ = fit(noisy, hp)
    model_l, X_l = l2_fit(noisy, hp)
    err_c = _relative_reconstruction(clean, model_c, X_c)
    err_l = _relative_reconstruction(clean, model_l, X_l)
    return RobustnessReport(
        cauchy_error=err_c,
        l2_error=err_l,
        ratio=err_c / max(err_l, np.finfo(float).tiny),
    )
