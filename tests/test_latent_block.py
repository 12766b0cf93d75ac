"""The latent block of the alternation: one reweighted step per row while
such a step still lowers the objective by more than ONE_STEP_DECREASE
(relative), a sweep to tol_x from then on and after the outer loop.

A single majorize-minimize step per block keeps the block descent
monotone, and block successive minimization with one majorizer step per
block still converges to stationary points (Razaviyayn, Hong & Luo 2013).
The tests pin that a fit stops where the gradients of the full objective
vanish, as closely as the driver that solved every latent block to tol_x
did, and that fits whose first step already gains less than the
threshold (the README linear and rbf fits) are that driver's, bit for
bit: their maps, latents and trace, and so X W_v^T and every residual
computed from them.
"""

import dataclasses

import numpy as np
import pytest

from intact import KernelSpec, fit, kernel_fit, optimizer
from oracles import fd_gradient, objective_gradients, objective_terms_bruteforce
from test_acceleration import PLANTED, RBF_SEEDS, contaminated, outer_iterations
from test_kernel_reference import README_HP, planted, readme_s_curve


def gradient_norms(ds, model, X, hp):
    """Frobenius norms of the full objective's gradients in the maps and in
    the latents."""
    grad_W, grad_X = objective_gradients(ds.views, model.W, X, hp.c, hp.C1, hp.C2)
    return np.sqrt(sum(np.sum(g * g) for g in grad_W)), np.linalg.norm(grad_X)


def test_objective_gradients_match_finite_differences():
    ds = planted(12, 0)
    hp = dataclasses.replace(README_HP, d=2, C1=1e-2, C2=1e-2)
    model, emb, _ = fit(ds, dataclasses.replace(hp, max_outer=1))
    W, X = [np.array(M) for M in model.W], np.array(emb.X)
    grad_W, grad_X = objective_gradients(ds.views, W, X, hp.c, hp.C1, hp.C2)

    def objective(W, X):
        return objective_terms_bruteforce(ds.views, W, X, hp.c, hp.C1, hp.C2)

    fd_X = fd_gradient(lambda x: objective(W, x.reshape(X.shape)), X.ravel())
    assert np.allclose(grad_X.ravel(), fd_X, rtol=1e-5, atol=1e-9)
    for v in range(ds.m):
        def at(w, v=v):
            return objective(W[:v] + [w.reshape(W[v].shape)] + W[v + 1:], X)
        assert np.allclose(grad_W[v].ravel(), fd_gradient(at, W[v].ravel()), rtol=1e-5, atol=1e-9)


# Four times the largest gradient norms the exact-inner driver stops at:
# (||grad_W F||, ||grad_X F||) 4.9e-11, 1.0e-12 at C = 1e-4 and 2.5e-9,
# 4.9e-12 at C = 1e-2 over n = 500 and 5000.
STATIONARITY = {1e-4: (2e-10, 4e-12), 1e-2: (1e-8, 2e-11)}


@pytest.mark.parametrize("C", [1e-4, 1e-2])
@pytest.mark.parametrize("n", [500, 5000])
def test_readme_linear_fits_stop_at_a_stationary_point(n, C):
    ds = readme_s_curve(n, 0)
    hp = dataclasses.replace(README_HP, C1=C, C2=C)
    model, emb, hist = fit(ds, hp)
    assert hist.stop_reason == "objective_tol"
    norm_W, norm_X = gradient_norms(ds, model, emb.X, hp)
    bound_W, bound_X = STATIONARITY[C]
    assert norm_W <= bound_W and norm_X <= bound_X


def exact_inner(fitter, ds, hp, *args):
    """`fitter` with every latent block solved to tol_x, the in-loop ones
    included: the alternation that ran max_inner inner steps per sweep."""
    sweep = optimizer.sweep_latents

    def to_tol(G, P, znorm, X, c, C2, tol_x, max_inner):
        return sweep(G, P, znorm, X, c, C2, tol_x, hp.max_inner)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "sweep_latents", to_tol)
        return fitter(ds, hp, *args)


def maps_of(model):
    return model.W if model.mode == "linear" else model.kernel_part.A


def in_loop_latent_counts(history):
    return [x for x, _ in history.inner_iterations[:-1]]


NEAR = [pytest.param(fit, readme_s_curve, (500, s), (), id=f"linear-{s}") for s in range(3)] + [
    pytest.param(kernel_fit, readme_s_curve, (100, s), (KernelSpec("rbf"),), id=f"rbf-{s}")
    for s in RBF_SEEDS
]


@pytest.mark.parametrize("fitter, make, key, extra", NEAR)
def test_fits_that_start_near_are_the_exact_inner_fits(fitter, make, key, extra):
    ds = make(*key)
    model_ref, emb_ref, ref = exact_inner(fitter, ds, README_HP, *extra)
    model, emb, hist = fitter(ds, README_HP, *extra)
    assert hist.objective_trace == ref.objective_trace
    assert hist.inner_iterations == ref.inner_iterations
    assert np.array_equal(emb.X, emb_ref.X)
    assert all(np.array_equal(M, R) for M, R in zip(maps_of(model), maps_of(model_ref)))


@pytest.mark.parametrize("seed, rate", PLANTED)
def test_contaminated_fits_take_one_step_blocks_first(seed, rate):
    ds, hp = contaminated(seed, rate)
    ref = exact_inner(fit, ds, hp)[2]
    hist = fit(ds, hp)[2]
    J, J_ref = hist.values()[-1], ref.values()[-1]
    assert abs(J - J_ref) <= hp.tol_obj * abs(J_ref)
    assert hist.stop_reason == ref.stop_reason == "objective_tol"
    assert abs(outer_iterations(hist) - outer_iterations(ref)) <= 2
    counts = in_loop_latent_counts(hist)
    k = next(i for i, x in enumerate(counts) if x > 1)
    assert k >= 1 and all(x == 1 for x in counts[:k]) and all(x > 1 for x in counts[k:])
    assert sum(counts) < sum(in_loop_latent_counts(ref))
