"""Properties of the one alternation objective, in both of its forms."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from intact import Hyperparams, IntactModel, reconstruction_error
from intact.core import freeze_array
from intact.kernel import kernel_alternation_objective
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
