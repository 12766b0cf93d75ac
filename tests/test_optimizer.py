import math

import numpy as np
import pytest

from intact import (
    Hyperparams,
    KernelSpec,
    embed_example,
    fit,
    gen_planted_linear,
    grad_x,
    kernel_fit,
    majorant_curvature,
    majorant_value,
    objective_full,
    objective_x,
    update_x_once,
    validate_dataset,
)
from intact.core import IntactModel, freeze_array
from intact.errors import DivergenceDetected, ShapeMismatch, SingularSystem
from intact.optimizer import (
    _audit_descent,
    _example_stacks,
    _solve_rows,
    fit_view_map,
    sweep_latents,
)
from oracles import (
    fd_gradient,
    grid_min_scalar,
    objective_terms_bruteforce,
    objective_w_bruteforce,
    objective_x_bruteforce,
)


def make_model(W_list, hp):
    return IntactModel(
        mode="linear",
        W=tuple(freeze_array(W) for W in W_list),
        kernel_part=None,
        hyperparams=hp,
    )


def random_instance(seed, n=1, m=3, dims=(5, 5, 5), d=3, c=1.0, C1=0.0, C2=0.1):
    rng = np.random.default_rng(seed)
    hp = Hyperparams(d=d, c=c, C1=C1, C2=C2, seed=seed)
    W = [rng.normal(size=(D, d)) for D in dims[:m]]
    model = make_model(W, hp)
    zs = [rng.normal(size=D) for D in dims[:m]]
    x = rng.normal(size=d)
    return model, zs, x, hp


def sweep_one_row(zs, model, x0, hp, max_inner=None):
    """One example's latent solve, the batched sweep on one row: the
    solution and the row's iteration count."""
    G, P, znorm = _example_stacks(zs, model)
    X0 = np.reshape(np.asarray(x0, dtype=float), (1, -1))
    steps = hp.max_inner if max_inner is None else max_inner
    X, iters, _ = sweep_latents(G, P, znorm, X0, hp.c, hp.C2, hp.tol_x, steps)
    return X[0], iters


def sweep_one_view(Z, X, W0, hp, max_inner=None):
    """One view's map solve, the batched map sweep at m = 1: the map and
    its iteration count."""
    Z = np.asarray(Z, dtype=float)
    znorm = np.einsum("ij,ij->i", Z, Z)[None]
    W0 = np.asarray(W0, dtype=float)[None]
    steps = hp.max_inner if max_inner is None else max_inner
    W, iters = fit_view_map(Z[None], znorm, X, W0, hp.c, hp.C1, hp.tol_x, steps)
    return W[0], int(iters[0])


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def test_objective_full_all_zero():
    hp = Hyperparams(d=1, C1=0.0, C2=0.0)
    model = make_model([np.zeros((1, 1))], hp)
    ds = validate_dataset([np.zeros((2, 1))])
    assert objective_full(ds, model, np.zeros((2, 1))) == 0.0


def test_objective_full_single_cauchy_term():
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.0)
    model = make_model([np.array([[1.0]])], hp)
    ds = validate_dataset([np.array([[1.0]])])
    val = objective_full(ds, model, np.array([[0.0]]))
    assert math.isclose(val, math.log(2.0), rel_tol=1e-15)


def test_objective_full_matches_bruteforce():
    rng = np.random.default_rng(42)
    n, m, d = 5, 2, 2
    dims = (3, 4)
    hp = Hyperparams(d=d, c=0.7, C1=0.3, C2=0.2)
    W = [rng.normal(size=(D, d)) for D in dims]
    views = [rng.normal(size=(n, D)) for D in dims]
    X = rng.normal(size=(n, d))
    model = make_model(W, hp)
    got = objective_full(validate_dataset(views), model, X)
    want = objective_terms_bruteforce(views, W, X, hp.c, hp.C1, hp.C2)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_objective_x_zero():
    hp = Hyperparams(d=1, C1=0.0, C2=0.0)
    model = make_model([np.array([[1.0]]), np.array([[2.0]])], hp)
    assert objective_x([np.zeros(1), np.zeros(1)], model, np.zeros(1)) == 0.0


def test_objective_x_zero_residual_term():
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.1)
    model = make_model([np.array([[1.0]])], hp)
    val = objective_x([np.array([2.0])], model, np.array([2.0]))
    assert math.isclose(val, 0.4, rel_tol=1e-15)


def test_objective_x_consistent_with_full_n1():
    model, zs, x, hp = random_instance(7, C1=0.25)
    per_example = objective_x(zs, model, x)
    ds = validate_dataset([z.reshape(1, -1) for z in zs])
    full = objective_full(ds, model, x.reshape(1, -1))
    reg_w = hp.C1 * sum(float(np.sum(W * W)) for W in model.W) / len(zs)
    assert abs(full - (per_example + reg_w)) < 1e-12


def test_objective_x_matches_bruteforce():
    model, zs, x, hp = random_instance(11)
    want = objective_x_bruteforce(zs, list(model.W), x, hp.c, hp.C2)
    assert abs(objective_x(zs, model, x) - want) < 1e-12


def test_objective_shape_mismatch():
    hp = Hyperparams(d=1)
    model = make_model([np.array([[1.0]])], hp)
    with pytest.raises(ShapeMismatch):
        objective_x([np.array([1.0, 2.0])], model, np.zeros(1))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_grad_zero_at_exact_fit():
    hp = Hyperparams(d=2, C1=0.0, C2=0.0)
    rng = np.random.default_rng(0)
    W = [rng.normal(size=(4, 2))]
    x = rng.normal(size=2)
    model = make_model(W, hp)
    g = grad_x([W[0] @ x], model, x)
    assert np.max(np.abs(g)) < 1e-14


def test_grad_scalar_example():
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.0)
    model = make_model([np.array([[1.0]])], hp)
    g = grad_x([np.array([0.0])], model, np.array([1.0]))
    assert np.allclose(g, [1.0])


def test_grad_matches_finite_differences():
    for seed in range(5):
        model, zs, x, hp = random_instance(seed)
        g = grad_x(zs, model, x)
        g_fd = fd_gradient(lambda t: objective_x(zs, model, t), x)
        rel = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))
        assert rel < 1e-6


# ---------------------------------------------------------------------------
# latent updates and solves
# ---------------------------------------------------------------------------

def test_update_x_exact_interpolation():
    # unregularized square system interpolates exactly
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.0)
    model = make_model([np.array([[1.0]])], hp)
    for x0 in (-3.0, 0.0, 7.5):
        x_new = update_x_once([np.array([2.0])], model, np.array([x0]))
        assert np.allclose(x_new, [2.0])


def test_update_x_scalar_value():
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.5)
    model = make_model([np.array([[1.0]])], hp)
    x_new = update_x_once([np.array([1.0])], model, np.array([1.0]))
    assert math.isclose(x_new[0], 2.0 / 3.0, rel_tol=1e-15)


def test_update_x_fixed_point_matches_grid_min():
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.1)
    model = make_model([np.array([[0.8]])], hp)
    z = [np.array([1.7])]
    x = np.zeros(1)
    for _ in range(200):
        x = update_x_once(z, model, x)
    star = grid_min_scalar(
        lambda t: objective_x(z, model, np.array([t])), -5.0, 5.0
    )
    assert abs(x[0] - star) < 1e-4


def test_solve_x_fixed_point_one_iteration():
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.5)
    model = make_model([np.array([[1.0]])], hp)
    x = np.array([1.0])
    for _ in range(300):
        x = update_x_once([np.array([1.0])], model, x)
    sol, iters = sweep_one_row([np.array([1.0])], model, x, hp)
    assert iters.tolist() == [1]
    assert np.allclose(sol, x)


def test_solve_x_scalar_trace_decreasing():
    # first update from x=1 is the 2/3 step; the iteration then descends
    # to the fixed point of the reweighted map
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.5)
    model = make_model([np.array([[1.0]])], hp)
    z, x0 = [np.array([1.0])], np.array([1.0])
    sol, iters = sweep_one_row(z, model, x0, hp)
    # a sweep capped at k steps stops at the k-th iterate of the full solve
    steps = [sweep_one_row(z, model, x0, hp, k)[0] for k in range(iters[0] + 1)]
    assert math.isclose(steps[1][0], 2.0 / 3.0, rel_tol=1e-12)
    assert np.array_equal(steps[-1], sol)
    g = grad_x(z, model, sol)
    assert abs(g[0]) < 1e-7
    trace = np.array([objective_x(z, model, x) for x in steps])
    assert np.all(np.diff(trace) <= 1e-15)
    assert trace[-1] < trace[0]


def test_solve_x_reaches_stationarity():
    for seed in range(5):
        model, zs, x0, hp = random_instance(seed, C2=0.1)
        g = grad_x(zs, model, embed_example(zs, model))
        assert np.linalg.norm(g) < 1e-6


def test_solve_x_descent_bound_per_step():
    # each inner step decreases the objective by at least C2 * ||delta||^2
    for seed in range(5):
        model, zs, _, hp = random_instance(seed, C2=0.2)
        x = np.zeros(hp.d)
        for _ in range(30):
            x_new = update_x_once(zs, model, x)
            drop = objective_x(zs, model, x) - objective_x(zs, model, x_new)
            need = hp.C2 * float(np.sum((x_new - x) ** 2))
            assert drop >= need - 1e-9
            x = x_new


def test_singular_system_when_unregularized_and_rank_deficient():
    hp = Hyperparams(d=2, c=1.0, C1=0.0, C2=0.0)
    model = make_model([np.array([[1.0, 0.0], [0.0, 0.0]])], hp)
    with pytest.raises(SingularSystem):
        update_x_once([np.array([1.0, 0.0])], model, np.zeros(2))


def test_singular_system_in_a_batch():
    hp = Hyperparams(d=2, c=1.0, C1=0.0, C2=0.0)
    model = make_model([np.array([[1.0, 0.0], [0.0, 0.0]])], hp)
    zs = [np.random.default_rng(0).normal(size=(5, 2))]
    G, P, znorm = _example_stacks(zs, model)
    with pytest.raises(SingularSystem):
        sweep_latents(G, P, znorm, np.zeros((5, 2)), hp.c, hp.C2, hp.tol_x, hp.max_inner)


@pytest.mark.parametrize("seed", range(4))
def test_update_x_once_is_one_sweep_step(seed):
    model, zs, x, hp = random_instance(seed)
    x_new = update_x_once(zs, model, x)
    assert np.array_equal(x_new, sweep_one_row(zs, model, x, hp, max_inner=1)[0])


def test_sweep_latents_does_not_depend_on_stack_layout():
    # the ridge reaches every pivot whatever memory order the stacks have
    model, _, _, hp = random_instance(0, C2=1.0)
    zs = [np.random.default_rng(1).normal(size=(6, D)) for D in model.view_dims]
    G, P, znorm = _example_stacks(zs, model)
    args = (np.zeros((6, hp.d)), hp.c, hp.C2, hp.tol_x, 1)
    X = sweep_latents(G, P, znorm, *args)[0]
    X_f = sweep_latents(*(np.asfortranarray(a) for a in (G, P, znorm)), *args)[0]
    assert np.allclose(X_f, X, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", range(1, 7))
def test_solve_rows_matches_dense_solve(d):
    rng = np.random.default_rng(d)
    A = rng.normal(size=(30, d, d + 2))
    H = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(d)
    b = rng.normal(size=(30, d))
    x = _solve_rows(H.transpose(1, 2, 0).copy(), b.T.copy()).T
    assert np.allclose(x, np.linalg.solve(H, b[..., None])[..., 0], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_solve_rows_rejects_one_bad_system(bad):
    H = np.tile(np.eye(3)[:, :, None], (1, 1, 6))
    H[2, 2, 4] = bad
    with pytest.raises(SingularSystem):
        _solve_rows(H, np.ones((3, 6)))


# ---------------------------------------------------------------------------
# view-map updates and solves
# ---------------------------------------------------------------------------

def test_update_w_zero_residual_fixed_point():
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.0)
    W, _ = sweep_one_view(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), hp, 1)
    assert np.allclose(W, [[1.0]])


def test_update_w_scalar_value():
    hp = Hyperparams(d=1, c=1.0, C1=0.5, C2=0.0)
    W, _ = sweep_one_view(np.array([[2.0]]), np.array([[1.0]]), np.array([[0.0]]), hp, 1)
    assert math.isclose(W[0, 0], 0.4 / 0.7, rel_tol=1e-15)


def test_solve_w_fixed_point_unchanged():
    hp = Hyperparams(d=1, c=1.0, C1=0.5, C2=0.0)
    Z = np.array([[2.0]])
    X = np.array([[1.0]])
    w = np.array([[0.0]])
    for _ in range(300):
        w, _ = sweep_one_view(Z, X, w, hp, 1)
    sol, iters = sweep_one_view(Z, X, w, hp)
    assert iters == 1
    assert np.allclose(sol, w)


def test_solve_w_trace_non_increasing():
    rng = np.random.default_rng(5)
    hp = Hyperparams(d=2, c=1.0, C1=0.05, C2=0.0)
    Z = rng.normal(size=(20, 4))
    X = rng.normal(size=(20, 2))
    W0 = rng.normal(size=(4, 2))
    _, iters = sweep_one_view(Z, X, W0, hp)
    # a sweep capped at k steps stops at the k-th iterate of the full solve
    trace = np.array([
        objective_w_bruteforce(Z, X, sweep_one_view(Z, X, W0, hp, k)[0], hp.c, hp.C1)
        for k in range(iters + 1)
    ])
    assert iters > 1
    assert np.all(np.diff(trace) <= 1e-12)


def test_solve_w_matches_grid_min_scalar():
    rng = np.random.default_rng(9)
    hp = Hyperparams(d=1, c=1.0, C1=0.1, C2=0.0)
    Z = rng.normal(size=(4, 1))
    X = rng.normal(size=(4, 1))
    W, _ = sweep_one_view(Z, X, np.zeros((1, 1)), hp)
    star = grid_min_scalar(
        lambda t: objective_w_bruteforce(Z, X, np.array([[t]]), hp.c, hp.C1), -5.0, 5.0
    )
    assert abs(W[0, 0] - star) < 1e-4


def test_solve_w_solve_x_symmetry():
    # the per-view problem over n examples is the per-example problem over
    # n views once roles are swapped (scalar case)
    rng = np.random.default_rng(31)
    n = 6
    xs = rng.normal(size=n)
    zs = rng.normal(size=n)
    gamma = 0.2
    hp_w = Hyperparams(d=1, c=1.0, C1=gamma, C2=0.0)
    W, _ = sweep_one_view(zs.reshape(-1, 1), xs.reshape(-1, 1), np.zeros((1, 1)), hp_w)

    hp_x = Hyperparams(d=1, c=1.0, C1=0.0, C2=gamma)
    model = make_model([np.array([[x]]) for x in xs], hp_x)
    x = embed_example([np.array([z]) for z in zs], model)
    assert abs(W[0, 0] - x[0]) < 1e-10


# ---------------------------------------------------------------------------
# majorant diagnostics
# ---------------------------------------------------------------------------

def test_majorant_tangent_value():
    model, zs, x_k, hp = random_instance(3)
    v = majorant_value(x_k, x_k, zs, model)
    assert math.isclose(v, objective_x(zs, model, x_k), rel_tol=1e-15)


def test_majorant_tangent_gradient():
    model, zs, x_k, hp = random_instance(4)
    g_psi = fd_gradient(lambda t: majorant_value(t, x_k, zs, model), x_k, h=1e-7)
    g = grad_x(zs, model, x_k)
    assert np.max(np.abs(g_psi - g)) < 1e-8 * max(1.0, np.max(np.abs(g)))


def test_majorant_dominates_objective():
    rng = np.random.default_rng(12)
    for seed in range(5):
        model, zs, x_k, hp = random_instance(seed)
        for _ in range(20):
            x = x_k + 0.5 * rng.normal(size=hp.d)
            assert majorant_value(x, x_k, zs, model) >= objective_x(
                zs, model, x
            ) - 1e-12


def test_majorant_minimizer_is_update_x():
    for seed in range(10):
        model, zs, x_k, hp = random_instance(seed)
        g = grad_x(zs, model, x_k)
        C = majorant_curvature(zs, model, x_k)
        x_star = x_k - 0.5 * np.linalg.solve(C, g)
        x_upd = update_x_once(zs, model, x_k)
        assert np.max(np.abs(x_star - x_upd)) < 1e-10


# ---------------------------------------------------------------------------
# full fit
# ---------------------------------------------------------------------------

def test_fit_planted_exact():
    X_true, Ws, Zs = gen_planted_linear(30, [5, 4, 6], 3, seed=2)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=3, C1=0.0, C2=0.0, seed=2)
    model, emb, hist = fit(ds, hp)
    assert hist.objective_trace[-1][1] <= 1e-6
    assert hist.monotone_within(1e-9)


def test_fit_stationary_embeddings():
    _, _, Zs = gen_planted_linear(20, [4, 4], 2, seed=5, noise_sigma=0.1)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=2, C1=1e-3, C2=0.1, seed=5)
    model, emb, hist = fit(ds, hp)
    for i in range(ds.n):
        g = grad_x([Z[i] for Z in ds.views], model, emb.X[i])
        assert np.linalg.norm(g) <= 1e-5


def test_fit_view_permutation_invariance():
    _, _, Zs = gen_planted_linear(25, [4, 5, 3], 2, seed=13, noise_sigma=0.05)
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-2, seed=13, max_outer=60)
    perm = [2, 0, 1]
    m1, e1, _ = fit(validate_dataset(Zs), hp)
    m2, e2, _ = fit(validate_dataset([Zs[p] for p in perm]), hp)
    assert np.max(np.abs(e1.X - e2.X)) < 1e-10
    for v, p in enumerate(perm):
        assert np.max(np.abs(m2.W[v] - m1.W[p])) < 1e-10


def test_fit_deterministic_and_thread_invariant():
    _, _, Zs = gen_planted_linear(30, [4, 4, 4], 2, seed=21, noise_sigma=0.1)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-2, seed=21, max_outer=40)
    m1, e1, h1 = fit(ds, hp)
    m2, e2, h2 = fit(ds, hp)
    assert np.array_equal(e1.X, e2.X)
    assert all(np.array_equal(a, b) for a, b in zip(m1.W, m2.W))
    assert h1.values()[-1] == h2.values()[-1]


def test_fit_records_half_steps():
    _, _, Zs = gen_planted_linear(15, [3, 3], 2, seed=1, noise_sigma=0.1)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=2, seed=1, max_outer=5)
    _, _, hist = fit(ds, hp)
    kinds = [k for k, _ in hist.objective_trace]
    assert kinds[0] == "x-update"
    assert kinds[1] == "W-update"
    assert kinds[-1] == "x-update"  # final latent refresh
    assert hist.stop_reason in ("objective_tol", "max_iter")


def test_divergence_audit_raises():
    with pytest.raises(DivergenceDetected):
        _audit_descent(1.0, 1.0 + 1e-3)
    _audit_descent(1.0, 1.0 + 1e-9)  # round-off slack passes


@pytest.mark.parametrize("seed", range(3))
def test_majorant_uses_its_hyperparams(seed):
    from dataclasses import replace

    model, zs, x_k, hp = random_instance(seed)
    probe_model = replace(model, hyperparams=replace(hp, c=0.3, C2=1.0))
    v = majorant_value(x_k, x_k, zs, probe_model)
    assert math.isclose(v, objective_x(zs, probe_model, x_k), rel_tol=1e-15)
    x = x_k + 0.1
    psi = majorant_value(x, x_k, zs, probe_model)
    assert psi >= objective_x(zs, probe_model, x) - 1e-12
    assert psi != majorant_value(x, x_k, zs, model)


@pytest.mark.parametrize(
    "mode, d",
    [("linear", 2), ("rbf", 2), ("linear", 3), ("rbf", 3)],
    ids=["linear", "rbf", "linear-d3", "rbf-d3"],
)
def test_sweep_latents_rows_independent(mode, d):
    # any row range swept alone gives bit for bit the rows of the full sweep
    # (at d <= 3; see sweep_latents)
    _, _, Zs = gen_planted_linear(40, [4, 4, 4], d, seed=13, noise_sigma=0.2)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=d, C1=1e-3, C2=1e-2, seed=13, max_outer=10)
    if mode == "linear":
        model = fit(ds, hp)[0]
    else:
        model = kernel_fit(ds, hp, KernelSpec("rbf"))[0]
    G, P, znorm = _example_stacks(ds.views, model)
    X0 = np.random.default_rng(13).normal(size=(ds.n, hp.d))
    args = (hp.c, hp.C2, hp.tol_x, hp.max_inner)
    X, iters, s = sweep_latents(G, P, znorm, X0, *args)
    assert len(set(iters.tolist())) > 1
    for a, b in [(17, 18), (5, 23), (ds.n - 9, ds.n)]:
        Xs, iters_s, s_s = sweep_latents(G, P[:, a:b], znorm[:, a:b], X0[a:b], *args)
        assert np.array_equal(Xs, X[a:b])
        assert np.array_equal(iters_s, iters[a:b])
        assert np.array_equal(s_s, s[:, a:b])
