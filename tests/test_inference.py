import math

import numpy as np
import pytest

from intact import (
    Hyperparams,
    embed_example,
    embed_examples,
    fit,
    gen_planted_linear,
    local_convexity_check,
    map_spectral_norms,
    stability_bound,
    stability_probe,
    validate_dataset,
    view_losses,
)
from intact.core import IntactModel, freeze_array
from intact.errors import ShapeMismatch, ZeroRegularizer


def make_model(W_list, hp):
    return IntactModel(
        mode="linear",
        W=tuple(freeze_array(W) for W in W_list),
        kernel_part=None,
        hyperparams=hp,
    )


def trained_model(seed=0, n=40, dims=(5, 4, 6), d=3, C2=0.1):
    _, _, Zs = gen_planted_linear(n, list(dims), d, seed=seed, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=d, C1=1e-3, C2=C2, seed=seed)
    model, emb, _ = fit(ds, hp)
    return ds, hp, model, emb


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embed_recovers_planted_point():
    rng = np.random.default_rng(0)
    hp = Hyperparams(d=3, C1=0.0, C2=0.0)
    W = [rng.normal(size=(D, 3)) for D in (4, 5)]
    model = make_model(W, hp)
    x_true = rng.normal(size=3)
    x = embed_example([Wv @ x_true for Wv in W], model)
    assert np.max(np.abs(x - x_true)) < 1e-6


def test_embed_zero_views_is_exactly_zero():
    rng = np.random.default_rng(1)
    hp = Hyperparams(d=2, C1=0.0, C2=0.1)
    W = [rng.normal(size=(3, 2))]
    model = make_model(W, hp)
    x = embed_example([np.zeros(3)], model)
    assert np.array_equal(x, np.zeros(2))


def test_embed_training_examples_reproduce_coordinates():
    ds, hp, model, emb = trained_model(seed=2)
    rows = [Z for Z in ds.views]
    X = embed_examples(rows, model)
    assert np.max(np.abs(X - emb.X)) < 1e-6


def test_embed_idempotent_on_reconstructions():
    rng = np.random.default_rng(3)
    hp = Hyperparams(d=2, C1=0.0, C2=0.0)
    W = [rng.normal(size=(4, 2)), rng.normal(size=(3, 2))]
    model = make_model(W, hp)
    x_hat = rng.normal(size=2)
    targets = [Wv @ x_hat for Wv in W]
    x_again = embed_example(targets, model)
    assert np.max(np.abs(x_again - x_hat)) < 1e-8


def test_embed_examples_checks_shapes():
    ds, hp, model, _ = trained_model(seed=4)
    with pytest.raises(ShapeMismatch):
        embed_examples([Z[:, :-1] for Z in ds.views], model)
    with pytest.raises(ShapeMismatch):
        embed_examples([ds.views[0]], model)


# ---------------------------------------------------------------------------
# stability bound
# ---------------------------------------------------------------------------

def test_bound_zero_at_zero_tau():
    _, hp, model, _ = trained_model(seed=5)
    assert stability_bound(0.0, model) == 0.0


def test_bound_reference_value():
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=1.0)
    model = make_model([np.array([[1.0]])], hp)
    beta = stability_bound(1.0, model)
    want = math.sqrt(2.0) + 128.0**0.25
    assert math.isclose(beta, want, rel_tol=1e-12)
    assert math.isclose(want, 4.77780, rel_tol=1e-5)


def test_bound_sqrt_tau_scaling():
    _, hp, model, _ = trained_model(seed=6)
    for tau in np.logspace(-6, -1, 8):
        ratio = stability_bound(tau, model) / stability_bound(4 * tau, model)
        assert ratio >= 0.25


def test_bound_requires_regularizer():
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.0)
    model = make_model([np.array([[1.0]])], hp)
    with pytest.raises(ZeroRegularizer):
        stability_bound(1.0, model)


def test_spectral_norms():
    hp = Hyperparams(d=2, C1=0.0, C2=0.1)
    W = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    model = make_model([W], hp)
    assert np.allclose(map_spectral_norms(model), [3.0])


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def test_probe_zero_tau():
    ds, hp, model, _ = trained_model(seed=7)
    z = [Z[0] for Z in ds.views]
    rep = stability_probe(z, model, tau=0.0, view_index=0, coord_index=0)
    assert rep.measured_deviation == 0.0
    assert rep.holds


def test_probe_small_tau_holds():
    ds, hp, model, _ = trained_model(seed=8)
    for i, v, j in [(0, 0, 1), (3, 1, 0), (9, 2, 2)]:
        z = [Z[i] for Z in ds.views]
        rep = stability_probe(z, model, tau=1e-3, view_index=v, coord_index=j)
        assert rep.holds
        assert rep.local_convex


def test_probe_deviation_continuity_in_tau():
    ds, hp, model, _ = trained_model(seed=9)
    z = [Z[2] for Z in ds.views]
    d_small = stability_probe(z, model, tau=5e-4, view_index=0,
                              coord_index=0).measured_deviation
    d_big = stability_probe(z, model, tau=1e-3, view_index=0,
                            coord_index=0).measured_deviation
    assert d_small <= d_big + 1e-6


def test_probe_sign_symmetry_on_symmetric_instance():
    # the probed coordinate is outside the map's range (zero row), and the
    # unperturbed value there is 0, so +tau and -tau are mirror images
    hp = Hyperparams(d=1, c=1.0, C1=0.0, C2=0.5)
    W = np.array([[1.0], [0.0]])
    model = make_model([W], hp)
    z = [np.array([0.7, 0.0])]
    d_plus = stability_probe(z, model, tau=0.1, view_index=0,
                             coord_index=1).measured_deviation
    d_minus = stability_probe(z, model, tau=-0.1, view_index=0,
                              coord_index=1).measured_deviation
    assert abs(d_plus - d_minus) < 1e-8


def test_probe_kernel_model():
    from intact import KernelSpec, kernel_fit

    _, _, Zs = gen_planted_linear(12, [3, 3], 2, seed=10, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=2, C1=1e-3, C2=0.1, seed=10)
    model, _, _ = kernel_fit(ds, hp, KernelSpec("rbf"))
    z = [Z[0] for Z in Zs]
    rep = stability_probe(z, model, tau=1e-3, view_index=0, coord_index=0)
    assert np.isfinite(rep.measured_deviation)
    assert rep.beta_bound > 0


def test_view_losses_and_convexity_helper():
    ds, hp, model, emb = trained_model(seed=11)
    z = [Z[0] for Z in ds.views]
    losses = view_losses(z, model, emb.X[0])
    assert losses.shape == (ds.m,)
    assert np.all(losses >= 0)
    assert local_convexity_check(z, model, emb.X[0], radius=1e-3)


def test_probe_linear_kernel_model_matches_linear_model():
    # a linear-kernel model is the linear model in atom coordinates, so the
    # probe must warm-start and check convexity the same way in both modes
    from intact import KernelSpec, kernel_fit

    _, _, Zs = gen_planted_linear(20, [3, 3], 2, seed=10, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=2, C1=1e-3, C2=0.1, seed=10)
    m_lin, _, _ = fit(ds, hp)
    m_ker, _, _ = kernel_fit(ds, hp, KernelSpec("linear"))
    z = [Z[0] for Z in Zs]
    r_lin, r_ker = (
        stability_probe(z, model, tau=1.0, view_index=0, coord_index=0)
        for model in (m_lin, m_ker)
    )
    assert r_ker.local_convex == r_lin.local_convex
    assert abs(r_ker.measured_deviation - r_lin.measured_deviation) < 1e-6


@pytest.mark.parametrize("kind", ["linear", "rbf"])
def test_embed_example_and_batch_share_hyperparams(kind):
    # both paths must solve with the c and C2 of the model's hyperparameters
    from dataclasses import replace

    from intact import KernelSpec, kernel_fit

    _, _, Zs = gen_planted_linear(20, [3, 4], 2, seed=4, noise_sigma=0.1)
    ds = validate_dataset(Zs)
    hp0 = Hyperparams(d=2, C1=1e-3, C2=1e-3, seed=4)
    if kind == "linear":
        model, _, _ = fit(ds, hp0)
    else:
        model, _, _ = kernel_fit(ds, hp0, KernelSpec("rbf"))
    model = replace(model, hyperparams=replace(model.hyperparams, C2=1.0))
    X = embed_examples(list(ds.views), model)
    for i in range(5):
        x = embed_example([Z[i] for Z in ds.views], model)
        assert np.max(np.abs(x - X[i])) < 1e-8


def test_convexity_check_matches_pointwise_objective():
    # the batched audit draws a, b per sample exactly as one-at-a-time
    # objective_x evaluations would and reaches the same verdict
    from intact import objective_x

    def reference(z, model, center, radius, seed):
        rng = np.random.default_rng(seed)
        for _ in range(16):
            a = center + radius * rng.normal(size=center.shape[0])
            b = center + radius * rng.normal(size=center.shape[0])
            ja, jb = objective_x(z, model, a), objective_x(z, model, b)
            bound = 0.5 * (ja + jb)
            if objective_x(z, model, 0.5 * (a + b)) > bound + 1e-10 * max(1.0, abs(bound)):
                return False
        return True

    ds, hp, model, emb = trained_model(seed=3)
    verdicts = set()
    for i in range(6):
        z = [Z[i] for Z in ds.views]
        for radius in (1e-3, 3.0, 30.0):
            got = local_convexity_check(z, model, emb.X[i], radius, seed=i)
            assert got == reference(z, model, emb.X[i], radius, seed=i)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_probe_measures_with_its_own_hyperparams():
    # the model was fitted at c = 1; a probe of the same maps at c = 0.1
    # must measure the per-view losses and check convexity at c = 0.1, as
    # its bound does
    from dataclasses import replace

    ds, hp, model, _ = trained_model(seed=5)
    probe_hp = replace(hp, c=0.1)
    probe_model = replace(model, hyperparams=probe_hp)
    tau = 0.05
    z = [Z[0] for Z in ds.views]
    rep = stability_probe(z, probe_model, tau=tau, view_index=1, coord_index=2)

    x = embed_example(z, probe_model)
    z_hat = [zv.copy() for zv in z]
    z_hat[1][2] += tau
    x_hat = embed_example(z_hat, probe_model, x0=x)

    def losses(zs, x):
        return np.array([
            math.log1p(float(np.sum((zv - Wv @ x) ** 2)) / probe_hp.c**2)
            for zv, Wv in zip(zs, model.W)
        ])

    want = float(np.sum(np.abs(losses(z, x) - losses(z_hat, x_hat))))
    assert rep.measured_deviation == pytest.approx(want, rel=1e-9, abs=1e-15)
    assert rep.beta_bound == stability_bound(tau, probe_model)

    radius = max(float(np.linalg.norm(x_hat - x)), tau)
    assert rep.local_convex == local_convexity_check(z, probe_model, x, radius)
    verdicts = []
    for radius in (1e-3, 0.1, 1.0, 30.0):
        got = local_convexity_check(z, probe_model, x, radius)
        verdicts.append((got, local_convexity_check(z, model, x, radius)))
    assert any(mine != default for mine, default in verdicts)


@pytest.mark.parametrize("tau", [1e-3, 0.1])
def test_bound_ratio_is_measured_over_bound(tau):
    ds, _, model, _ = trained_model(seed=11)
    z = [Z[0] for Z in ds.views]
    rep = stability_probe(z, model, tau=tau, view_index=0, coord_index=1)
    assert rep.measured_deviation > 0
    assert rep.bound_ratio == rep.measured_deviation / rep.beta_bound


def test_bound_ratio_of_a_zero_tau_probe_is_zero():
    ds, _, model, _ = trained_model(seed=11)
    rep = stability_probe([Z[0] for Z in ds.views], model, tau=0.0)
    assert rep.beta_bound == 0.0 and rep.bound_ratio == 0.0
