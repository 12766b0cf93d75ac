"""The closed-form L2 baseline (`optimizer.l2_fit`): its optimum, its
gauge and its edge cases, and the Cauchy fit against it in the large-c
limit, where log(1 + s/c^2) ~ s/c^2 and c^2 times the Cauchy objective
at (C1, C2) / c^2 tends to the L2 objective at (C1, C2)."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intact import Hyperparams, fit, gen_planted_linear, validate_dataset
from intact.optimizer import l2_fit
from oracles import l2_objective, svt_objective

instances = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 8),
    "dims": st.lists(st.integers(1, 5), min_size=1, max_size=3),
    "d": st.integers(1, 4),
    "C1": st.floats(1e-2, 10.0),
    "C2": st.floats(1e-2, 10.0),
})


def _draw(inst):
    rng = np.random.default_rng(inst["seed"])
    ds = validate_dataset([rng.normal(size=(inst["n"], D)) for D in inst["dims"]])
    return ds, Hyperparams(d=inst["d"], C1=inst["C1"], C2=inst["C2"])


def products(model, emb):
    """The stacked products [W_1; ...; W_m] X^T."""
    return np.vstack(model.W) @ emb.X.T


def rel(A, B):
    return np.linalg.norm(A - B) / max(np.linalg.norm(B), np.finfo(float).tiny)


@given(instances)
def test_l2_fit_attains_the_svt_objective_on_random_views(inst):
    ds, hp = _draw(inst)
    model, emb = l2_fit(ds, hp)
    J = l2_objective(ds.views, model.W, emb.X, hp.C1, hp.C2)
    J_svt = svt_objective(ds.views, hp.d, hp.C1, hp.C2)
    assert abs(J - J_svt) <= 1e-12 * J_svt


@given(instances)
def test_l2_fit_is_balanced(inst):
    ds, hp = _draw(inst)
    model, emb = l2_fit(ds, hp)
    m, n = len(ds.views), ds.n
    latent = hp.C2 / n * emb.X.T @ emb.X
    maps = hp.C1 / m * sum(W.T @ W for W in model.W)
    assert np.linalg.norm(latent - maps) <= 1e-10 * np.linalg.norm(maps)


@given(instances, st.floats(0.1, 10.0))
def test_l2_fit_products_depend_on_C1_C2_only_through_their_product(inst, t):
    ds, hp = _draw(inst)
    model, emb = l2_fit(ds, hp)
    scaled = Hyperparams(d=hp.d, C1=hp.C1 * t * t, C2=hp.C2 / (t * t))
    model_t, emb_t = l2_fit(ds, scaled)
    assert rel(products(model_t, emb_t), products(model, emb)) <= 1e-12
    assert rel(emb_t.X, t * emb.X) <= 1e-12


@given(instances)
def test_l2_fit_penalties_are_the_scaled_nuclear_norm(inst):
    ds, hp = _draw(inst)
    model, emb = l2_fit(ds, hp)
    a, b = hp.C1 / len(ds.views), hp.C2 / ds.n
    penalties = a * sum(float(np.sum(W * W)) for W in model.W) + b * float(
        np.sum(emb.X * emb.X)
    )
    nuclear = np.linalg.norm(products(model, emb), "nuc")
    assert abs(penalties - 2.0 * np.sqrt(a * b) * nuclear) <= 1e-10 * max(penalties, 1e-300)


@pytest.mark.parametrize("C1, C2", [(0.0, 1e-2), (1e-2, 0.0), (0.0, 0.0)])
def test_l2_fit_without_a_penalty_is_the_truncated_svd(C1, C2):
    rng = np.random.default_rng(0)
    ds = validate_dataset([rng.normal(size=(20, D)) for D in (3, 4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, emb = l2_fit(ds, Hyperparams(d=2, C1=C1, C2=C2))
    assert np.all(np.isfinite(emb.X)) and all(np.all(np.isfinite(W)) for W in model.W)
    U, S, Vt = np.linalg.svd(np.hstack(ds.views), full_matrices=False)
    assert np.allclose(emb.X, U[:, :2] * np.sqrt(S[:2]), rtol=0, atol=1e-12)
    assert rel(products(model, emb), Vt[:2].T @ (U[:, :2] * S[:2]).T) <= 1e-12


def test_l2_fit_zeroes_columns_beyond_the_rank():
    rng = np.random.default_rng(1)
    ds = validate_dataset([rng.normal(size=(10, D)) for D in (2, 1)])
    model, emb = l2_fit(ds, Hyperparams(d=5, C1=1e-3, C2=1e-3))
    W = np.vstack(model.W)
    assert np.all(emb.X[:, 3:] == 0.0) and np.all(W[:, 3:] == 0.0)
    assert np.all(np.abs(emb.X[:, :3]).sum(axis=0) > 0.0)


def test_l2_fit_zeroes_columns_shrunk_to_zero():
    # tau between the third and fourth singular values of planted rank-3 views
    _, _, Zs = gen_planted_linear(60, [4, 4], 3, seed=0, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    S = np.linalg.svd(np.hstack(ds.views), compute_uv=False)
    m, n = len(ds.views), ds.n
    C = 0.5 * (S[2] + S[3]) / np.sqrt(m * n)
    model, emb = l2_fit(ds, Hyperparams(d=5, C1=C, C2=C))
    W = np.vstack(model.W)
    assert np.all(emb.X[:, 3:] == 0.0) and np.all(W[:, 3:] == 0.0)
    assert np.all(np.abs(emb.X[:, :3]).sum(axis=0) > 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_cauchy_fit_tends_to_l2_fit_as_c_grows(seed):
    _, _, Zs = gen_planted_linear(150, [6, 6, 6], 3, seed=seed, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    c = 100.0
    hp = Hyperparams(
        d=3, c=c, C1=1e-3 / c**2, C2=1e-3 / c**2,
        tol_obj=1e-14, tol_x=1e-12, max_outer=500, seed=seed,
    )
    model, emb, history = fit(ds, hp)
    assert history.stop_reason == "objective_tol"
    model_l2, emb_l2 = l2_fit(ds, Hyperparams(d=3, C1=1e-3, C2=1e-3))
    # measured 1.3-1.4e-8, falling as 1/c^2
    assert rel(products(model, emb), products(model_l2, emb_l2)) <= 1e-6
