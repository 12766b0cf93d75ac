"""The gauge step: closed-form minimization of the two penalties over the
transformation X -> X T, W_v -> W_v T^-1 that leaves every residual alone."""

import numpy as np
import pytest
import scipy.linalg

import intact
from intact import Hyperparams
from intact.optimizer import (
    _view_stacks,
    balance_gauge,
    data_term,
    residual_sq_from_stacks,
)


def _instance(seed, n=12, dims=(3, 4, 2), d=3, C1=1e-2, C2=1e-3):
    rng = np.random.default_rng(seed)
    hp = Hyperparams(d=d, c=0.7, C1=C1, C2=C2)
    views = [rng.normal(size=(n, D)) for D in dims]
    W = [rng.normal(size=(D, d)) for D in dims]
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
    return hp, views, W, X


def _penalties(G, X, hp):
    m, n = G.shape[0], X.shape[0]
    return hp.C1 / m * float(np.trace(G, axis1=1, axis2=2).sum()) + (
        hp.C2 / n * float(np.sum(X * X))
    )


@pytest.mark.parametrize("seed", range(8))
def test_gauge_step_minimizes_penalties_and_keeps_residuals(seed):
    hp, views, W, X = _instance(seed, d=1 + seed % 3)
    G, P, znorm = _view_stacks(views, W)
    W2, X2, G2, P2 = balance_gauge(W, X, G, P, hp)

    # the data term sees only the products W_v x_i
    before = data_term(residual_sq_from_stacks(G, P, znorm, X), hp.c)
    after = data_term(residual_sq_from_stacks(G2, P2, znorm, X2), hp.c)
    assert abs(after - before) <= 1e-12 * abs(before)

    # the transformed stacks are the stacks of the transformed maps
    G3, P3, _ = _view_stacks(views, W2)
    assert np.allclose(G2, G3, rtol=1e-10, atol=1e-12)
    assert np.allclose(P2, P3, rtol=1e-10, atol=1e-12)

    # minimum of a tr(A M^-1) + b tr(B M) over SPD M = T T^T, by hand:
    # M B M = (a/b) A, value 2 sqrt(ab) tr((B^1/2 A B^1/2)^1/2)
    a, b = hp.C1 / len(W), hp.C2 / X.shape[0]
    B_half = scipy.linalg.sqrtm(X.T @ X).real
    C_half = scipy.linalg.sqrtm(B_half @ G.sum(axis=0) @ B_half).real
    want = 2.0 * np.sqrt(a * b) * np.trace(C_half)
    got = _penalties(G2, X2, hp)
    assert abs(got - want) <= 1e-10 * want
    assert got <= _penalties(G, X, hp) * (1 + 1e-12)

    # a balanced pair is already the minimizer: a second step keeps it
    _, X4, G4, _ = balance_gauge(W2, X2, G2, P2, hp)
    assert _penalties(G4, X4, hp) <= got * (1 + 1e-12)
    assert np.allclose(X4, X2, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("case", ["C1=0", "C2=0", "rank-deficient X", "zero maps"])
def test_gauge_step_skips(case):
    hp, views, W, X = _instance(0)
    if case == "C1=0":
        hp = Hyperparams(d=hp.d, C1=0.0, C2=hp.C2)
    elif case == "C2=0":
        hp = Hyperparams(d=hp.d, C1=hp.C1, C2=0.0)
    elif case == "rank-deficient X":
        X[:, 2] = X[:, 0] - 2.0 * X[:, 1]
    else:
        W = [np.zeros_like(Wv) for Wv in W]
    G, P, _ = _view_stacks(views, W)
    out = balance_gauge(W, X, G, P, hp)
    assert all(new is old for new, old in zip(out, (W, X, G, P)))


def test_readme_fit_converges_balanced():
    # the README S-curve config; without the gauge step this fit runs out
    # at max_iter and the two penalty Grams differ by a factor of ~28
    points = intact.gen_s_curve(500, seed=0)
    views = intact.make_noisy_views(
        intact.project_to_planes(points),
        intact.NoiseSpec(snr_db=20.0, window_fraction=0.3, copies_per_base=3, seed=0),
    )
    ds, _ = intact.standardize_views(intact.validate_dataset(views))
    hp = Hyperparams(d=3, C1=1e-4, C2=1e-4, seed=0)
    model, emb, hist = intact.fit(ds, hp)

    assert hist.stop_reason == "objective_tol"
    assert len(hist.inner_iterations) - 1 <= 20  # outer iterations + refresh
    X = emb.X
    A = hp.C1 / ds.m * sum(Wv.T @ Wv for Wv in model.W)
    B = hp.C2 / ds.n * (X.T @ X)
    assert np.linalg.norm(B - A) / np.linalg.norm(A) <= 1e-4
