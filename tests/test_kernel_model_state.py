"""A kernel model holds what its model file holds (atoms, training views,
kernel kind, gammas); its Grams and G stack are derived on first use, so
loading a model evaluates no kernel and keeps no n x n matrix. A kernel
fit, too, drops its Grams before the alternation starts."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from intact import Hyperparams, embed_examples, kernel, kernel_fit
from intact import modelio
from intact.cli import main
from intact.kernel import KernelModel, KernelSpec
from test_kernel_reference import README_HP, readme_s_curve


@pytest.fixture()
def gram_calls(monkeypatch):
    """Counts the calls to `kernel.gram` made through any module that binds it."""
    calls = []
    real = kernel.gram

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, "gram", counting)
    monkeypatch.setattr(modelio, "gram", counting, raising=False)
    return calls


def saved_rbf_model(tmp_path, n=60, seed=1000):
    """A fitted rbf model at gamma 0.5, its file, and the rows it was fitted on."""
    ds = readme_s_curve(n, seed)
    hp = Hyperparams(d=3, C1=1e-3, C2=1e-3, seed=0, max_outer=5)
    model = kernel_fit(ds, hp, KernelSpec("rbf", 0.5))[0]
    path = tmp_path / "model.txt"
    modelio.save_model(path, model)
    return model, path, ds


def test_kernel_model_fields_are_the_model_file_contents():
    assert [f.name for f in dataclasses.fields(KernelModel)] == [
        "A", "training_views", "kernel", "gammas"]


def test_fitted_and_loaded_kernel_models_are_equal(tmp_path):
    fitted, path, _ = saved_rbf_model(tmp_path)
    loaded = modelio.load_model(path)[0]
    a, b = fitted.kernel_part, loaded.kernel_part
    assert a.kernel == b.kernel == KernelSpec("rbf")
    assert a.gammas == b.gammas == (0.5,) * len(a.A)
    for x, y in [*zip(a.A, b.A), *zip(a.training_views, b.training_views), (a.G, b.G)]:
        assert np.array_equal(x, y)


def test_load_and_eval_build_no_gram_and_embed_builds_each_once(tmp_path, gram_calls):
    _, path, ds = saved_rbf_model(tmp_path)
    model = modelio.load_model(path)[0]
    assert gram_calls == []

    data = tmp_path / "data"
    data.mkdir()
    names = []
    for v, Z in enumerate(ds.views):
        names.append(f"view_{v}.csv")
        modelio.save_view_csv(data / names[-1], Z, v)
    modelio.save_matrix_csv(data / "emb.csv", np.random.default_rng(0).normal(size=(ds.n, 3)))
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({
        "embedding": str(data / "emb.csv"), "truth": str(data / "emb.csv"),
        "model": str(path), "views": [str(data / name) for name in names]}))
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert gram_calls == []

    rows = [Z[:2] for Z in ds.views]
    embed_examples(rows, model)
    assert len(gram_calls) == model.m
    embed_examples(rows, model)
    assert len(gram_calls) == model.m


def test_a_loaded_kernel_model_keeps_no_gram(tmp_path):
    n = 300
    _, path, ds = saved_rbf_model(tmp_path, n=n, seed=0)
    tracemalloc.start()
    try:
        model = modelio.load_model(path)[0]
        embed_examples([Z[:1] for Z in ds.views], model)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert model.kernel_part.n_train == n
    assert held < n * n * 8  # one view's Gram, 0.72 MB


def test_a_kernel_fit_holds_no_gram_through_the_alternation(monkeypatch):
    n = 300
    ds = readme_s_curve(n, 0)
    entries, fit_stack = [], kernel._fit_stack

    def measuring(Phi, *args):
        entries.append((tracemalloc.get_traced_memory()[0], Phi.nbytes))
        return fit_stack(Phi, *args)

    monkeypatch.setattr(kernel, "_fit_stack", measuring)
    hp = dataclasses.replace(README_HP, max_outer=1)
    kernel_fit(readme_s_curve(20, 1), hp, KernelSpec("rbf"))  # first-call imports
    tracemalloc.start()
    try:
        kernel_fit(ds, hp, KernelSpec("rbf"))
    finally:
        tracemalloc.stop()
    held, phi_bytes = entries[-1]
    assert held < phi_bytes + n * n * 8  # the features and one view's Gram
