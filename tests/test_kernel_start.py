"""The starting latents of an rbf kernel fit: U_d Lambda_d^{1/2} from the
top-d eigenpairs of sum_v K_v (`kernel._feature_start`), against the full
eigendecomposition of `feature_start` in tests/oracles.py, and the
features it reads them from (`kernel._features`)."""

import tracemalloc

import numpy as np
import pytest

from intact import Hyperparams, KernelSpec, kernel_fit, optimizer, validate_dataset
from intact.kernel import _feature_start, _features
from oracles import feature_start
from test_acceleration import outer_iterations
from test_kernel_reference import README_HP, readme_s_curve


def fit_with_start(ds, hp):
    """kernel_fit's result and the latents it handed to the driver."""
    starts, alternate = [], optimizer.alternate

    def recording(W, X, *args):
        starts.append(X.copy())
        return alternate(W, X, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "alternate", recording)
        result = kernel_fit(ds, hp, KernelSpec("rbf"))
    return result, starts[0]


@pytest.mark.parametrize("seed", range(3))
def test_rbf_readme_fits_stop_within_15_outer_iterations(seed):
    hist = kernel_fit(readme_s_curve(300, seed), README_HP, KernelSpec("rbf"))[2]
    assert hist.stop_reason == "objective_tol"
    assert outer_iterations(hist) <= 15


def test_rbf_fit_view_permutation_invariance():
    ds = readme_s_curve(100, 1000)
    _, e1, h1 = kernel_fit(ds, README_HP, KernelSpec("rbf"))
    _, e2, h2 = kernel_fit(validate_dataset(ds.views[::-1]), README_HP, KernelSpec("rbf"))
    assert outer_iterations(h1) == outer_iterations(h2)
    assert np.max(np.abs(e1.X - e2.X)) < 1e-10


@pytest.mark.parametrize("seed", [1000, 1003])
def test_rbf_start_is_the_top_eigenpairs_of_the_summed_grams(seed):
    (model, _, _), X0 = fit_with_start(readme_s_curve(100, seed), README_HP)
    expected = feature_start(model.kernel_part.gram, README_HP.d)
    assert np.max(np.abs(X0 - expected)) < 1e-10


def test_rbf_fit_on_two_rows_fills_the_missing_rank():
    ds = validate_dataset([[[0.0, 1.0], [1.0, 0.5]], [[2.0], [-1.0]]])
    hp = Hyperparams(d=3, C1=1e-3, C2=1e-3, seed=7)
    (model, _, hist), X0 = fit_with_start(ds, hp)
    assert hist.stop_reason == "objective_tol"
    # two distinct rows give a rank-2 Gram sum: one seeded fill column,
    # drawn as default_init draws its fill
    fill = np.random.default_rng(7).normal(size=(2, 1)) / np.sqrt(3)
    assert np.array_equal(X0[:, 2:], fill)
    assert np.max(np.abs(X0[:, :2] - feature_start(model.kernel_part.gram, 2))) < 1e-12


def test_features_hold_no_gram_after_they_return():
    # four values, and no n x n matrix beside the feature stack
    ds = readme_s_curve(300, 0)
    tracemalloc.start()
    try:
        gammas, Phi, znorm, lams = _features(ds.views, KernelSpec("rbf"))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(gammas) == len(lams) == ds.m and znorm.shape == (ds.m, ds.n)
    assert held <= Phi.nbytes + 0.5 * ds.n * ds.n * 8


@pytest.mark.parametrize("seed", [1000, 1003])
def test_feature_start_is_the_top_eigenpairs_of_the_feature_products(seed):
    Phi = _features(readme_s_curve(100, seed).views, KernelSpec("rbf"))[1]
    expected = feature_start([F @ F.T for F in Phi], README_HP.d)
    assert np.max(np.abs(_feature_start(Phi, README_HP) - expected)) < 1e-12
