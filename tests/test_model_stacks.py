"""Model-level quantities read through the stacks, in both modes:
reconstruction error, the full objective, map norms, and the guards on
example rows and latent points."""

import numpy as np
import pytest

from intact import (
    Hyperparams,
    KernelSpec,
    NoiseSpec,
    embed_example,
    embed_examples,
    fit,
    gen_s_curve,
    grad_x,
    kernel_fit,
    local_convexity_check,
    majorant_value,
    make_noisy_views,
    map_spectral_norms,
    objective_full,
    objective_x,
    project_to_planes,
    reconstruction_error,
    standardize_views,
    validate_dataset,
    view_losses,
)
from intact.core import IntactModel, freeze_array
from intact.errors import NonFiniteInput, ShapeMismatch
from intact.kernel import KernelModel


def s_curve_dataset(n, seed):
    views = make_noisy_views(
        project_to_planes(gen_s_curve(n, seed=seed)),
        NoiseSpec(snr_db=20.0, window_fraction=0.3, copies_per_base=3, seed=seed),
    )
    return standardize_views(validate_dataset(views))[0]


def twin_models(seed, dims=(3, 4), n_train=8, d=2):
    """A linear-kernel model and the linear model with W_v = Z_v^T A_v."""
    rng = np.random.default_rng(seed)
    hp = Hyperparams(d=d, c=0.9, C1=0.3, C2=0.2)
    Zs = [rng.normal(size=(n_train, D)) for D in dims]
    As = [rng.normal(size=(n_train, d)) for _ in dims]
    km = KernelModel(
        A=tuple(freeze_array(A) for A in As),
        training_views=tuple(freeze_array(Z) for Z in Zs),
        kernel=KernelSpec("linear"),
        gammas=(None,) * len(dims),
    )
    kernel = IntactModel(mode="kernel", W=None, kernel_part=km, hyperparams=hp)
    linear = IntactModel(
        mode="linear",
        W=tuple(freeze_array(Z.T @ A) for Z, A in zip(Zs, As)),
        kernel_part=None,
        hyperparams=hp,
    )
    return kernel, linear, rng


@pytest.mark.parametrize(
    "kind, n, seed", [("rbf", 100, 1000), ("rbf", 300, 0), ("linear", 100, 3)]
)
def test_kernel_reconstruction_is_final_objective_minus_penalties(kind, n, seed):
    ds = s_curve_dataset(n, seed)
    hp = Hyperparams(d=3, C1=1e-4, C2=1e-4, seed=seed)
    model, emb, hist = kernel_fit(ds, hp, KernelSpec(kind))
    km = model.kernel_part
    m = model.m
    penalty = hp.C1 / m * sum(np.trace(km.G[v]) for v in range(m))
    penalty += hp.C2 / n * float(np.sum(emb.X * emb.X))
    want = hist.objective_trace[-1][1] - penalty
    got = reconstruction_error(ds, model, emb.X)
    assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("seed", range(4))
def test_linear_kernel_model_matches_linear_twin(seed):
    kernel, linear, rng = twin_models(seed)
    views = [rng.normal(size=(7, D)) for D in linear.view_dims]
    X = rng.normal(size=(7, 2))
    for f in (objective_full, reconstruction_error):
        a, b = f(views, kernel, X), f(views, linear, X)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    np.testing.assert_allclose(
        map_spectral_norms(kernel), map_spectral_norms(linear), rtol=1e-9
    )
    # the norms are the largest singular values of the explicit maps
    np.testing.assert_allclose(
        map_spectral_norms(linear), [np.linalg.norm(W, 2) for W in linear.W], rtol=1e-12
    )


@pytest.mark.parametrize("mode", ["linear", "kernel"])
def test_model_metrics_reject_row_count_mismatch(mode):
    kernel, linear, rng = twin_models(5)
    model = kernel if mode == "kernel" else linear
    views = [rng.normal(size=(1, D)) for D in model.view_dims]
    X = rng.normal(size=(5, 2))
    for f in (objective_full, reconstruction_error):
        with pytest.raises(ShapeMismatch, match="view 0 has 1 rows, expected 5"):
            f(views, model, X)


LATENT_DEFECTS = {
    "nan": (NonFiniteInput, "latents contain NaN or infinite entries"),
    "inf": (NonFiniteInput, "latents contain NaN or infinite entries"),
    "width": (ShapeMismatch, "latents have 3 columns, model has d = 2"),
    "vector": (ShapeMismatch, r"latents have shape \(5,\), expected rows of d = 2"),
}


@pytest.mark.parametrize("defect", sorted(LATENT_DEFECTS))
@pytest.mark.parametrize("mode", ["linear", "kernel"])
def test_model_metrics_reject_malformed_latents(mode, defect):
    error, message = LATENT_DEFECTS[defect]
    kernel, linear, rng = twin_models(7)
    model = kernel if mode == "kernel" else linear
    views = [rng.normal(size=(5, D)) for D in model.view_dims]
    X = rng.normal(size=(5, 2))
    if defect == "nan":
        X[2, 1] = np.nan
    elif defect == "inf":
        X[4, 0] = -np.inf
    elif defect == "width":
        X = rng.normal(size=(5, 3))
    else:
        X = X[:, 0]
    for f in (objective_full, reconstruction_error):
        with pytest.raises(error, match=message):
            f(views, model, X)


def test_kernel_model_builds_g_once():
    kernel, _, rng = twin_models(6)
    km = kernel.kernel_part
    G = km.G
    assert km.G is G
    assert not G.flags.writeable
    for A, K, Gv in zip(km.A, km.gram, G):
        np.testing.assert_allclose(Gv, A.T @ K @ A, rtol=1e-12, atol=1e-12)
    rows = [rng.normal(size=(3, D)) for D in kernel.view_dims]
    assert km.stacks(rows)[0] is G


@pytest.fixture(scope="module")
def fitted_models():
    ds = s_curve_dataset(40, 0)
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-3, seed=0, max_outer=5)
    models = {"linear": fit(ds, hp)[0], "rbf": kernel_fit(ds, hp, KernelSpec("rbf"))[0]}
    return models, ds


def zero_latents(rows, model):
    return np.zeros((len(rows[0]), model.hyperparams.d))


EXAMPLE_CALLS = {
    "embed_examples": lambda rows, model: embed_examples(rows, model),
    "embed_example": lambda rows, model: embed_example(rows, model),
    "reconstruction_error": lambda rows, model: reconstruction_error(
        rows, model, zero_latents(rows, model)
    ),
    "objective_full": lambda rows, model: objective_full(
        rows, model, zero_latents(rows, model)
    ),
}


@pytest.mark.parametrize("defect, error", [
    ("nan", NonFiniteInput), ("inf", NonFiniteInput), ("row_count", ShapeMismatch),
])
@pytest.mark.parametrize("call", sorted(EXAMPLE_CALLS))
@pytest.mark.parametrize("mode", ["linear", "rbf"])
def test_malformed_example_rows_raise_typed_errors(fitted_models, mode, call, defect, error):
    models, ds = fitted_models
    n = 1 if call == "embed_example" else 3
    rows = [Z[:n].copy() for Z in ds.views]
    if defect == "nan":
        rows[1][0, 0] = np.nan
    elif defect == "inf":
        rows[0][n - 1, 1] = np.inf
    else:
        rows[2] = rows[2][:-1]
    with pytest.raises(error):
        EXAMPLE_CALLS[call](rows, models[mode])


LATENT_CALLS = {
    "embed_example": lambda z, model, x: embed_example(z, model, x0=x),
    "view_losses": lambda z, model, x: view_losses(z, model, x),
    "objective_x": lambda z, model, x: objective_x(z, model, x),
    "grad_x": lambda z, model, x: grad_x(z, model, x),
    "local_convexity_check": lambda z, model, x: local_convexity_check(z, model, x, 0.1),
    "majorant_value": lambda z, model, x: majorant_value(x, x, z, model),
}


@pytest.mark.parametrize("call", sorted(LATENT_CALLS))
@pytest.mark.parametrize("mode", ["linear", "rbf"])
def test_latent_of_wrong_length_raises_shape_mismatch(fitted_models, mode, call):
    models, ds = fitted_models
    z = [Z[0] for Z in ds.views]
    with pytest.raises(ShapeMismatch, match="latent point has 3 coordinates, model has d = 2"):
        LATENT_CALLS[call](z, models[mode], np.zeros(3))
