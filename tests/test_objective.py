"""Properties of the one alternation objective, in both of its forms, and
`objective_full`, which values it for a fitted model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intact import (
    Hyperparams,
    IntactModel,
    NoiseSpec,
    fit,
    gen_s_curve,
    kernel_fit,
    make_noisy_views,
    objective_full,
    project_to_planes,
    reconstruction_error,
    standardize_views,
    validate_dataset,
)
from intact import modelio
from intact.core import freeze_array
from intact.kernel import KernelSpec, kernel_alternation_objective
from intact.optimizer import alternation_objective

instances = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 8),
    "dims": st.lists(st.integers(1, 5), min_size=1, max_size=3),
    "d": st.integers(1, 3),
    "c": st.floats(0.1, 10.0),
})


def _draw(inst):
    rng = np.random.default_rng(inst["seed"])
    views = [rng.normal(size=(inst["n"], D)) for D in inst["dims"]]
    X = rng.normal(size=(inst["n"], inst["d"]))
    return rng, views, X


@given(instances)
def test_data_term_is_gauge_invariant(inst):
    # X -> X T, W_v -> W_v T^-T leaves every reconstruction W_v x_i alone
    rng, views, X = _draw(inst)
    d = inst["d"]
    W = [rng.normal(size=(D, d)) for D in inst["dims"]]
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    T = Q * rng.uniform(0.5, 2.0, size=d)  # condition number at most 4
    W_T = [Wv @ np.linalg.inv(T).T for Wv in W]
    hp = Hyperparams(d=d, c=inst["c"], C1=0.0, C2=0.0)

    before = alternation_objective(views, W, X, hp)
    after = alternation_objective(views, W_T, X @ T, hp)
    assert abs(after - before) <= 1e-9 * before

    def model(maps):
        return IntactModel("linear", tuple(freeze_array(Wv) for Wv in maps), None, hp)

    direct = reconstruction_error(views, model(W), X)
    assert abs(direct - before) <= 1e-9 * before
    assert abs(reconstruction_error(views, model(W_T), X @ T) - direct) <= 1e-9 * direct


@given(instances)
def test_linear_and_gram_stacks_give_one_objective(inst):
    # with W_v = Z_v^T A_v the explicit map and the atoms over K_v = Z_v Z_v^T
    # are the same map, residuals and penalty
    rng, views, X = _draw(inst)
    A = [rng.normal(size=(inst["n"], inst["d"])) for _ in views]
    hp = Hyperparams(d=inst["d"], c=inst["c"], C1=0.3, C2=0.2)

    W = [Z.T @ Av for Z, Av in zip(views, A)]
    linear = alternation_objective(views, W, X, hp)
    kernel = kernel_alternation_objective(A, [Z @ Z.T for Z in views], X, hp)
    assert abs(kernel - linear) <= 1e-9 * linear


@pytest.mark.parametrize("kernel", [None, KernelSpec("rbf"), KernelSpec("linear")],
                         ids=["fit", "rbf-kernel", "linear-kernel"])
def test_objective_full_is_the_fits_last_objective(tmp_path, kernel):
    # README S-curve views: 3 planes x 3 windowed copies at 20 dB
    raw = make_noisy_views(project_to_planes(gen_s_curve(80, seed=3)),
                           NoiseSpec(snr_db=20.0, copies_per_base=3, seed=3))
    ds, record = standardize_views(validate_dataset(raw))
    hp = Hyperparams(d=3, C1=1e-3, C2=1e-3, seed=3)
    if kernel is None:
        model, emb, hist = fit(ds, hp)
    else:
        model, emb, hist = kernel_fit(ds, hp, kernel)
    last = hist.objective_trace[-1][1]
    assert abs(objective_full(ds, model, emb.X) - last) <= 1e-12 * last

    path = tmp_path / "model.txt"
    modelio.save_model(path, model, record)
    loaded, loaded_record = modelio.load_model(path)
    again = objective_full(loaded_record.apply(raw), loaded, emb.X)
    assert abs(again - last) <= 1e-12 * last
