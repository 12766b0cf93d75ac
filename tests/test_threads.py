"""Results do not depend on the number of latent-sweep threads."""

import numpy as np

from intact import KernelSpec, embed_examples, fit, kernel_fit
from test_kernel_reference import README_HP, readme_s_curve


def _assert_same_fit(a, b):
    (model_a, emb_a, hist_a), (model_b, emb_b, hist_b) = a, b
    assert hist_a == hist_b
    assert np.array_equal(emb_a.X, emb_b.X)
    if model_a.mode == "linear":
        maps_a, maps_b = model_a.W, model_b.W
    else:
        maps_a, maps_b = model_a.kernel_part.A, model_b.kernel_part.A
    assert all(np.array_equal(Ma, Mb) for Ma, Mb in zip(maps_a, maps_b))


def test_linear_fit_and_embedding_bit_identical_across_threads():
    ds = readme_s_curve(20_000, 0)
    one, two = (fit(ds, README_HP, threads=t) for t in (1, 2))
    _assert_same_fit(one, two)
    model = one[0]
    X1, X2 = (embed_examples(ds.views, model, threads=t) for t in (1, 2))
    assert np.array_equal(X1, X2)


def test_kernel_fit_bit_identical_across_threads():
    ds = readme_s_curve(300, 0)
    one, two = (kernel_fit(ds, README_HP, KernelSpec("rbf"), threads=t) for t in (1, 2))
    _assert_same_fit(one, two)
