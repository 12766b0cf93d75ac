import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from intact import Hyperparams, KernelSpec, standardize_views, validate_dataset
from intact.errors import (
    EmptyView,
    NonFiniteInput,
    NonPositiveScale,
    ShapeMismatch,
)


def test_validate_shapes_bookkeeping():
    ds = validate_dataset([np.zeros((4, 2)), np.ones((4, 2))])
    assert ds.n == 4
    assert ds.m == 2
    assert ds.view_dims == (2, 2)


def test_validate_rejects_row_mismatch():
    with pytest.raises(ShapeMismatch):
        validate_dataset([np.zeros((4, 2)), np.zeros((5, 2))])


def test_validate_rejects_nan():
    bad = np.array([[0.0], [np.nan], [1.0]])
    with pytest.raises(NonFiniteInput):
        validate_dataset([bad])


@pytest.mark.parametrize("rows", [
    [[1e300, 1e300], [-1e300, 2.0]],
    [[1e160, 1e160], [-1e160, -1e160]],
    [[1e154, 0.0], [0.0, 0.0]],
], ids=["1e300", "1e160", "1e154"])
def test_validate_rejects_views_whose_squared_norms_overflow(rows):
    ok = np.ones((2, 2))
    with pytest.raises(NonFiniteInput, match="view 2 is too large"):
        validate_dataset([ok, ok, np.array(rows)])


def test_standardize_views_below_the_norm_limit_without_warnings():
    Z = np.array([[1e153, 0.0], [-1e153, 1.0], [1e153, 2.0]])
    dataset, record = standardize_views(validate_dataset([Z]))
    assert np.all(np.isfinite(dataset.views[0]))
    assert np.all(np.isfinite(record.scales[0]))


def test_validate_rejects_empty():
    with pytest.raises(EmptyView):
        validate_dataset([])
    with pytest.raises(EmptyView):
        validate_dataset([np.zeros((0, 3))])
    with pytest.raises(EmptyView):
        validate_dataset([np.zeros((3, 0))])


def test_validate_label_count():
    with pytest.raises(ShapeMismatch):
        validate_dataset([np.zeros((3, 1))], labels=["a", "b"])


def test_dataset_arrays_read_only():
    ds = validate_dataset([np.zeros((2, 2))])
    with pytest.raises(ValueError):
        ds.views[0][0, 0] = 1.0


def test_standardize_two_point_column():
    ds = validate_dataset([np.array([[0.0], [2.0]])])
    std, rec = standardize_views(ds)
    assert np.allclose(std.views[0], [[-1.0], [1.0]])
    assert np.allclose(rec.means[0], [1.0])
    assert np.allclose(rec.scales[0], [1.0])


def test_standardize_constant_column():
    ds = validate_dataset([np.array([[5.0], [5.0]])])
    std, rec = standardize_views(ds)
    assert np.allclose(std.views[0], 0.0)
    assert np.allclose(rec.scales[0], [1.0])


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(50, 3))
    std1, _ = standardize_views(validate_dataset([Z]))
    std2, _ = standardize_views(std1)
    assert np.max(np.abs(std2.views[0] - std1.views[0])) < 1e-12


finite_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 8), st.integers(1, 4)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@given(finite_matrices)
def test_standardize_closure(Z):
    ds = validate_dataset([Z])
    std, _ = standardize_views(ds)
    # closure: the standardized dataset validates again
    again = validate_dataset([v for v in std.views])
    assert again.n == ds.n


@given(finite_matrices)
def test_standardize_round_trip(Z):
    ds = validate_dataset([Z])
    std, rec = standardize_views(ds)
    back = rec.invert(std.views)[0]
    scale = max(1.0, float(np.max(np.abs(Z))))
    assert np.max(np.abs(back - Z)) / scale < 1e-10


def test_hyperparams_invariants():
    with pytest.raises(NonPositiveScale):
        Hyperparams(d=2, c=0.0)
    with pytest.raises(ValueError):
        Hyperparams(d=2, C1=-1.0)
    with pytest.raises(ValueError):
        Hyperparams(d=2, C2=-0.5)
    with pytest.raises(ValueError):
        Hyperparams(d=0)
    with pytest.raises(ValueError):
        Hyperparams(d=2, tol_obj=0.0)
    with pytest.raises(ValueError):
        Hyperparams(d=2, seed=-1)
    hp = Hyperparams(d=3)
    assert hp.c == 1.0 and hp.max_outer == 200


@pytest.mark.parametrize("name", ["c", "C1", "C2", "tol_obj", "tol_x"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_hyperparams_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        Hyperparams(d=2, **{name: value})


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0])
def test_kernel_spec_rejects_bad_rbf_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        KernelSpec("rbf", gamma)


def test_kernel_spec_rejects_a_linear_gamma():
    with pytest.raises(ValueError, match="gamma"):
        KernelSpec("linear", 0.5)


@pytest.mark.parametrize(
    "name, value",
    [("max_outer", 3.0), ("seed", 1.0), ("d", 2.5), ("max_inner", True),
     ("d", True), ("c", "1"), ("C1", True), ("tol_x", "1e-8")],
)
def test_hyperparams_reject_wrong_types(name, value):
    with pytest.raises(ValueError, match=name):
        Hyperparams(**{"d": 2, name: value})


def test_hyperparams_accept_numpy_and_int_numbers():
    hp = Hyperparams(d=np.int64(2), c=1, C1=np.float32(0.5), seed=np.uint64(7))
    assert hp.d == 2 and hp.c == 1 and hp.seed == 7
