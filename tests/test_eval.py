from dataclasses import replace

import numpy as np
import pytest

from intact import (
    Hyperparams,
    align_to_truth,
    gen_planted_linear,
    knn_classify,
    objective_full,
    reconstruction_error,
    robustness_benchmark,
    validate_dataset,
)
from intact.core import IntactModel, freeze_array
from intact.errors import EmptyTrainingSet, NonFiniteInput, RankDeficient, ShapeMismatch
from oracles import objective_terms_bruteforce


def make_model(W_list, hp):
    return IntactModel(
        mode="linear",
        W=tuple(freeze_array(W) for W in W_list),
        kernel_part=None,
        hyperparams=hp,
    )


# ---------------------------------------------------------------------------
# reconstruction error
# ---------------------------------------------------------------------------

def test_reconstruction_zero_for_exact_fit():
    X_true, Ws, Zs = gen_planted_linear(10, [4, 3], 2, seed=0)
    hp = Hyperparams(d=2, C1=0.5, C2=0.5)
    model = make_model(Ws, hp)
    assert reconstruction_error(validate_dataset(Zs), model, X_true) < 1e-14


def test_reconstruction_equals_objective_when_unregularized():
    rng = np.random.default_rng(1)
    hp = Hyperparams(d=2, C1=0.0, C2=0.0)
    Ws = [rng.normal(size=(3, 2))]
    Zs = [rng.normal(size=(6, 3))]
    X = rng.normal(size=(6, 2))
    model = make_model(Ws, hp)
    ds = validate_dataset(Zs)
    assert reconstruction_error(ds, model, X) == objective_full(ds, model, X)


def test_reconstruction_matches_bruteforce():
    rng = np.random.default_rng(2)
    hp = Hyperparams(d=2, c=0.8, C1=0.3, C2=0.7)
    Ws = [rng.normal(size=(D, 2)) for D in (3, 5)]
    Zs = [rng.normal(size=(7, D)) for D in (3, 5)]
    X = rng.normal(size=(7, 2))
    model = make_model(Ws, hp)
    got = reconstruction_error(validate_dataset(Zs), model, X)
    want = objective_terms_bruteforce(Zs, Ws, X, hp.c, 0.0, 0.0)
    assert abs(got - want) < 1e-12 * max(1.0, want)


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def test_align_identity():
    X = np.random.default_rng(3).normal(size=(30, 3))
    score = align_to_truth(X, X)
    assert score.relative_residual < 1e-12
    assert np.allclose(score.map, np.eye(3), atol=1e-10)
    assert np.allclose(score.offset, 0.0, atol=1e-10)


def test_align_invertible_transform():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    R = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    score = align_to_truth(X @ R, X)
    assert score.relative_residual <= 1e-10


def test_align_random_noise_scores_badly():
    rng = np.random.default_rng(5)
    X_true = rng.normal(size=(500, 3))
    X_junk = rng.normal(size=(500, 3))
    assert align_to_truth(X_junk, X_true).relative_residual >= 0.8


def test_align_invariant_to_reparameterization():
    rng = np.random.default_rng(6)
    X_true = rng.normal(size=(50, 3))
    X_est = X_true + 0.3 * rng.normal(size=(50, 3))
    r1 = align_to_truth(X_est, X_true).relative_residual
    R = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    r2 = align_to_truth(X_est @ R, X_true).relative_residual
    assert abs(r1 - r2) < 1e-10


def test_align_rank_deficient():
    X_true = np.random.default_rng(7).normal(size=(20, 2))
    X_est = np.zeros((20, 2))
    with pytest.raises(RankDeficient):
        align_to_truth(X_est, X_true)
    with pytest.raises(ShapeMismatch):
        align_to_truth(X_true[:, :1], X_true)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["estimate", "truth"])
def test_align_rejects_non_finite_inputs(which, value):
    X_true = np.random.default_rng(8).normal(size=(20, 2))
    X_est = X_true + 0.1
    (X_est if which == "estimate" else X_true)[3, 1] = value
    with pytest.raises(NonFiniteInput):
        align_to_truth(X_est, X_true)


# ---------------------------------------------------------------------------
# k-NN harness
# ---------------------------------------------------------------------------

def test_knn_exact_training_point():
    X = np.array([[0.0], [10.0]])
    preds, _ = knn_classify(X, ["a", "b"], np.array([[10.0]]), k=1)
    assert preds[0] == "b"


def test_knn_forced_majority():
    train = np.array([[0.0], [0.1], [-0.1], [10.0], [10.1], [9.9]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    preds, _ = knn_classify(train, labels, np.array([[1.0]]), k=3)
    assert preds[0] == 0


def test_knn_train_as_test_accuracy_one():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(25, 4))
    labels = rng.integers(0, 3, size=25)
    preds, acc = knn_classify(X, labels, X, k=1, test_labels=labels)
    assert acc == 1.0


def test_knn_tie_breaking_by_distance_then_label():
    # two votes each at k=4: label 1 is closer in summed distance
    train = np.array([[1.0], [1.2], [-1.0], [-1.4]])
    labels = np.array([1, 1, 2, 2])
    preds, _ = knn_classify(train, labels, np.array([[0.0]]), k=4)
    assert preds[0] == 1
    # perfectly symmetric -> lowest label wins
    train = np.array([[1.0], [-1.0]])
    labels = np.array([5, 3])
    preds, _ = knn_classify(train, labels, np.array([[0.0]]), k=2)
    assert preds[0] == 3


def test_knn_training_order_invariance():
    rng = np.random.default_rng(9)
    train = rng.normal(size=(30, 3))
    labels = rng.integers(0, 4, size=30)
    test = rng.normal(size=(10, 3))
    p1, _ = knn_classify(train, labels, test, k=3)
    perm = rng.permutation(30)
    p2, _ = knn_classify(train[perm], labels[perm], test, k=3)
    assert np.array_equal(p1, p2)


def test_knn_errors():
    with pytest.raises(EmptyTrainingSet):
        knn_classify(np.zeros((0, 2)), [], np.zeros((1, 2)), k=1)
    with pytest.raises(ValueError):
        knn_classify(np.zeros((3, 2)), [0, 1, 0], np.zeros((1, 2)), k=4)


# ---------------------------------------------------------------------------
# robustness benchmark
# ---------------------------------------------------------------------------

def test_robustness_clean_data_parity():
    _, _, Zs = gen_planted_linear(80, [5, 5, 5], 3, seed=10, noise_sigma=0.05)
    hp = Hyperparams(d=3, C1=1e-3, C2=1e-3, seed=10, max_outer=100)
    rep = robustness_benchmark(validate_dataset(Zs), 0.0, 10.0, hp)
    assert 0.5 <= rep.ratio <= 2.0


def test_robustness_contamination_favors_cauchy():
    ratios = []
    for seed in range(3):
        _, _, Zs = gen_planted_linear(100, [6, 6, 6], 3, seed=seed, noise_sigma=0.05)
        hp = Hyperparams(d=3, C1=1e-3, C2=1e-3, seed=seed, max_outer=100)
        rep = robustness_benchmark(validate_dataset(Zs), 0.3, 10.0, replace(hp, seed=seed))
        ratios.append(rep.ratio)
    assert np.median(ratios) < 0.5


def test_robustness_deterministic_per_seed():
    _, _, Zs = gen_planted_linear(40, [4, 4], 2, seed=11, noise_sigma=0.05)
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-3, seed=11, max_outer=40)
    ds = validate_dataset(Zs)
    r1 = robustness_benchmark(ds, 0.2, 10.0, replace(hp, seed=5))
    r2 = robustness_benchmark(ds, 0.2, 10.0, replace(hp, seed=5))
    assert r1 == r2


def test_robustness_rejects_bad_rate():
    _, _, Zs = gen_planted_linear(20, [3, 3], 2, seed=12)
    hp = Hyperparams(d=2)
    with pytest.raises(ValueError):
        robustness_benchmark(validate_dataset(Zs), 0.5, 10.0, hp)
