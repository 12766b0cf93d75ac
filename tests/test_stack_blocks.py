"""Embedding and scoring walk their rows in fixed-size blocks
(`optimizer._stack_blocks`): results equal a one-row-at-a-time reference
bit for bit at d <= 3, memory stays bounded as the row count grows, and
the rows are checked whole before any block is built."""

import tracemalloc

import numpy as np
import pytest

from intact import (
    Hyperparams,
    KernelSpec,
    NoiseSpec,
    embed_examples,
    fit,
    gen_planted_linear,
    gen_s_curve,
    kernel_fit,
    make_noisy_views,
    objective_full,
    project_to_planes,
    reconstruction_error,
    validate_dataset,
)
from intact import optimizer
from intact.errors import EmptyView, NonFiniteInput, ShapeMismatch
from intact.optimizer import (
    _BLOCK_ROWS,
    _example_stacks,
    _model_residual_sq,
    _objective,
    data_term,
    residual_sq_from_stacks,
    sweep_latents,
)

DIMS = (5, 4, 6)


@pytest.fixture(scope="module", params=[("linear", 2), ("linear", 3), ("rbf", 2), ("rbf", 3)],
                ids=lambda p: f"{p[0]}-d{p[1]}")
def model(request):
    kind, d = request.param
    _, _, Zs = gen_planted_linear(40, list(DIMS), d, seed=d, noise_sigma=0.05)
    hp = Hyperparams(d=d, C1=1e-3, C2=1e-3, seed=0, max_outer=20)
    ds = validate_dataset(Zs)
    if kind == "linear":
        return fit(ds, hp)[0]
    return kernel_fit(ds, hp, KernelSpec("rbf"))[0]


def heldout(n, d):
    return gen_planted_linear(n, list(DIMS), d, seed=10 + d, noise_sigma=0.1)[2]


@pytest.fixture
def block_calls(monkeypatch, model):
    """Blocks of _BLOCK_ROWS rows, the smallest layout; the list records
    the row count of every block built."""
    monkeypatch.setattr(optimizer, "_STACK_BLOCK_CELLS", _BLOCK_ROWS * len(DIMS) * model.hyperparams.d)
    calls = []
    build = optimizer._row_stacks

    def spy(rows, model):
        calls.append(len(rows[0]))
        return build(rows, model)

    monkeypatch.setattr(optimizer, "_row_stacks", spy)
    return calls


def reference_latents(rows, model):
    """Each row swept alone from the stacks of all rows built at once."""
    hp = model.hyperparams
    G, P, znorm = _example_stacks(rows, model)
    out = [
        sweep_latents(G, P[:, i:i + 1], znorm[:, i:i + 1], np.zeros((1, hp.d)),
                      hp.c, hp.C2, hp.tol_x, hp.max_inner)[0]
        for i in range(znorm.shape[1])
    ]
    return np.concatenate(out) if out else np.zeros((0, hp.d))


def reference_residuals(rows, model, X):
    """Each row's squared residuals alone, from the stacks of all rows."""
    G, P, znorm = _example_stacks(rows, model)
    cols = [residual_sq_from_stacks(G, P[:, i:i + 1], znorm[:, i:i + 1], X[i:i + 1])
            for i in range(len(X))]
    return (np.concatenate(cols, axis=1) if cols else np.zeros((len(rows), 0))), G


@pytest.mark.parametrize("n, blocks", [
    (2 * _BLOCK_ROWS + 37, [_BLOCK_ROWS, _BLOCK_ROWS, 37]),
    (1, [1]),
    (0, [0]),
])
def test_blocked_embed_and_scores_equal_one_row_reference(model, block_calls, n, blocks):
    hp = model.hyperparams
    rows = [Z[:n] for Z in heldout(2 * _BLOCK_ROWS + 37, hp.d)]
    X = embed_examples(rows, model)
    assert block_calls == blocks
    assert X.shape == (n, hp.d)
    assert np.array_equal(X, reference_latents(rows, model))
    s, G = _model_residual_sq(rows, model, X)
    s_ref, G_ref = reference_residuals(rows, model, X)
    assert np.array_equal(s, s_ref) and np.array_equal(G, G_ref)
    if n:
        assert reconstruction_error(rows, model, X) == data_term(s_ref, hp.c)
        assert objective_full(rows, model, X) == _objective(s_ref, G_ref, X, hp)


def test_scores_of_zero_rows_raise_empty_view(model):
    rows = [Z[:0] for Z in heldout(4, model.hyperparams.d)]
    X = np.zeros((0, model.hyperparams.d))
    assert _model_residual_sq(rows, model, X)[0].shape == (len(DIMS), 0)
    for score in (reconstruction_error, objective_full):
        with pytest.raises(EmptyView, match="zero rows"):
            score(rows, model, X)


def test_mismatched_view_rows_raise_before_any_block(model, block_calls):
    n = 2 * _BLOCK_ROWS + 37
    full = heldout(n, model.hyperparams.d)
    rows = [*full[:2], full[2][:-1]]
    X = np.zeros((n, model.hyperparams.d))
    with pytest.raises(ShapeMismatch, match=f"view 2 has {n - 1} rows, view 0 has {n}"):
        embed_examples(rows, model)
    with pytest.raises(ShapeMismatch, match=f"view 2 has {n - 1} rows, view 0 has {n}"):
        reconstruction_error(rows, model, X)
    with pytest.raises(ShapeMismatch, match=f"view 0 has {n - 1} rows, expected {n}"):
        objective_full([Z[:-1] for Z in full], model, X)
    assert block_calls == []


def test_non_finite_last_block_raises_before_any_block(model, block_calls):
    rows = heldout(2 * _BLOCK_ROWS + 37, model.hyperparams.d)
    rows[1][-1, 0] = np.nan
    with pytest.raises(NonFiniteInput, match="view 1 contains NaN"):
        embed_examples(rows, model)
    assert block_calls == []


def test_embed_memory_stays_bounded_at_20k_rows():
    """The README S-curve views (9 views, d = 3): stacks over all 20k rows
    held about 20 MB at once; blocks of 2368 rows keep the peak near 3 MB,
    most of it the 0.5 MB result and one block's stacks and temporaries."""
    def views(n, seed):
        return validate_dataset(make_noisy_views(
            project_to_planes(gen_s_curve(n, seed=seed)), NoiseSpec(20.0, 0.3, 3, seed)))

    model = fit(views(200, 0), Hyperparams(d=3, C1=1e-4, C2=1e-4))[0]
    rows = views(20000, 1).views
    tracemalloc.start()
    try:
        X = embed_examples(rows, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (20000, 3) and np.isfinite(X).all()
    assert peak < 6e6
