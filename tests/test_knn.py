"""k-NN classification against the dense one-argsort-per-row reference."""

import numpy as np
import pytest

from intact import (
    Hyperparams,
    NoiseSpec,
    fit,
    gen_s_curve,
    knn_classify,
    make_noisy_views,
    project_to_planes,
    standardize_views,
    validate_dataset,
)
from intact.errors import NonFiniteInput, ShapeMismatch
from oracles import knn_classify_dense


def _assert_same_predictions(got, want):
    assert got.shape == want.shape
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("label_kind", ["int", "str"])
def test_knn_matches_reference_on_lattice_ties(k, label_kind):
    # Small integer coordinates make distances exact, so ties at the k-th
    # neighbour and between summed vote distances are common.
    rng = np.random.default_rng(10 * k + (label_kind == "str"))
    names = np.array(["delta", "alpha", "charlie", "bravo"])
    for dims, span, n_train in [(2, 3, 300), (3, 2, 120), (1, 4, 40), (2, 1, k)]:
        train = rng.integers(-span, span + 1, size=(n_train, dims)).astype(float)
        test = rng.integers(-span - 1, span + 2, size=(400, dims)).astype(float)
        codes = rng.integers(0, 4, size=n_train)
        labels = codes if label_kind == "int" else names[codes]
        want = knn_classify_dense(train, labels, test, k=k)
        got, _ = knn_classify(train, labels, test, k=k)
        _assert_same_predictions(got, want)


def test_knn_vote_sums_distances_nearest_first():
    # Squared distances (2, 2, 18) for "b" and (2, 8, 8) for "a": both sums
    # are 3 sqrt(2). Added nearest first they are equal in floating point
    # too, so the tie goes to the lower label; added farthest first, "b"
    # would come out smaller. In the second set the row at index 6 ties
    # with index 0 for the sixth neighbour, which sends the row through
    # the exact tie resolution.
    near = [[3, 3], [1, 1], [1, -1], [-1, 1], [2, 2], [2, -2]]
    test = np.zeros((1, 2))
    for extra, extra_labels in [([[9, 9]], ["b"]), ([[-3, -3], [9, 9]], ["a", "b"])]:
        train = np.array(near + extra, dtype=float)
        labels = np.array(["b", "b", "b", "a", "a", "a"] + extra_labels)
        assert knn_classify_dense(train, labels, test, k=6).tolist() == ["a"]
        assert knn_classify(train, labels, test, k=6)[0].tolist() == ["a"]


def _s_curve_embedding(seed, n=400):
    truth = gen_s_curve(n, seed=seed)
    views = make_noisy_views(
        project_to_planes(truth), NoiseSpec(snr_db=20.0, copies_per_base=2, seed=seed)
    )
    dataset, _ = standardize_views(validate_dataset(views))
    _, emb, _ = fit(dataset, Hyperparams(d=2, seed=seed))
    labels = 2 * (truth[:, 1] > 1.0) + (truth[:, 0] > 0.0)
    return emb.X, labels


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_knn_matches_reference_on_s_curve_embeddings(seed):
    X, labels = _s_curve_embedding(seed)
    for split in range(5):
        perm = np.random.default_rng(split).permutation(len(X))
        tr, te = perm[: len(X) // 2], perm[len(X) // 2:]
        want = knn_classify_dense(X[tr], labels[tr], X[te], k=3)
        got, acc = knn_classify(X[tr], labels[tr], X[te], k=3, test_labels=labels[te])
        _assert_same_predictions(got, want)
        assert acc == float(np.mean(want == labels[te]))


def test_knn_rejects_non_finite_rows():
    train = np.array([[0.0], [1.0]])
    with pytest.raises(NonFiniteInput):
        knn_classify(train, [0, 1], np.array([[np.nan]]), k=1)
    with pytest.raises(NonFiniteInput):
        knn_classify(np.array([[0.0], [np.inf]]), [0, 1], np.array([[0.5]]), k=1)


@pytest.mark.parametrize("n_labels", [1, 2])
def test_knn_rejects_a_test_label_count_unlike_the_test_rows(n_labels):
    # one label used to broadcast against all five predictions, two to
    # raise NumPy's broadcast error
    train = np.array([[0.0], [1.0]])
    test = np.linspace(0.0, 1.0, 5)[:, None]
    with pytest.raises(ShapeMismatch, match=f"{n_labels} test labels for 5 test rows"):
        knn_classify(train, ["a", "b"], test, k=1, test_labels=["b"] * n_labels)
