"""The batched map sweep (`optimizer.fit_view_map`) against the per-view
reference solver (tests/oracles.py), and the independence of its views."""

import numpy as np
import pytest

from intact import (
    Hyperparams,
    KernelSpec,
    NoiseSpec,
    gen_planted_linear,
    gen_s_curve,
    make_noisy_views,
    project_to_planes,
    standardize_views,
    validate_dataset,
)
from intact.kernel import _features
from intact.optimizer import _pad_views, _ridge_maps, default_init, fit_view_map
from oracles import fit_view_map as fit_view_map_oracle

HP = Hyperparams(d=3, C1=1e-4, C2=1e-4, seed=0)


def s_curve_views(n=100, seed=0):
    """README S-curve views: 9 views of width 2 at 20 dB, standardized."""
    base = project_to_planes(gen_s_curve(n, seed=seed))
    views = make_noisy_views(base, NoiseSpec(20.0, 0.3, 3, seed))
    return standardize_views(validate_dataset(views))[0].views


def planted_views(dims, n=150, seed=3):
    return gen_planted_linear(n, dims, 3, seed=seed, noise_sigma=0.2)[2]


def linear_case(views):
    """Padded stack, row norms, per-view matrices and zero offsets."""
    znorm = np.stack([np.einsum("ij,ij->i", Z, Z) for Z in views])
    return _pad_views(views), znorm, list(views), [0.0] * len(views)


def rbf_case(views):
    """Padded rbf features, diag K as row norms, the unpadded features and
    the per-row offsets diag K - ||phi_i||^2 their explicit residuals miss."""
    _, Phi, znorm, lams, _ = _features(views, KernelSpec("rbf"))
    feats = [F[:, : len(lam)] for F, lam in zip(Phi, lams)]
    offsets = [k - np.einsum("ij,ij->i", F, F) for k, F in zip(znorm, feats)]
    return Phi, znorm, feats, offsets


CASES = {
    "s-curve-9x2": lambda: linear_case(s_curve_views()),
    "planted-3x6": lambda: linear_case(planted_views([6, 6, 6])),
    "mixed-2-5-3": lambda: linear_case(planted_views([2, 5, 3])),
    "rbf-features": lambda: rbf_case(s_curve_views()),
}


def start(feats, seed=0):
    """Perturbed initial latents, and padded starting maps: the ridge maps
    against them, perturbed more the later the view, so that the views
    take different numbers of iterations."""
    rng = np.random.default_rng(seed)
    X = default_init(feats, HP)[0]
    X = X + 0.3 * rng.normal(size=X.shape)
    m = len(feats)
    W0 = np.zeros((m, max(F.shape[1] for F in feats), HP.d))
    for v, M in enumerate(_ridge_maps(X, feats, HP.C1)):
        W0[v, : len(M)] = M + v / (m - 1) * rng.normal(size=M.shape)
    return X, W0


def sweep(Z, znorm, X, W0):
    return fit_view_map(Z, znorm, X, W0, HP.c, HP.C1, HP.tol_x, HP.max_inner)


@pytest.mark.parametrize("case", sorted(CASES))
def test_map_sweep_matches_per_view_oracle(case):
    Z, znorm, feats, offsets = CASES[case]()
    X, W0 = start(feats)
    W, iters = sweep(Z, znorm, X, W0)
    for v, (F, off) in enumerate(zip(feats, offsets)):
        D = F.shape[1]
        W_ref, k = fit_view_map_oracle(
            F, X, W0[v, :D], HP.c, HP.C1, HP.tol_x, HP.max_inner, off
        )
        assert iters[v] == k
        assert np.linalg.norm(W[v, :D] - W_ref) <= 1e-12 * np.linalg.norm(W_ref)
        assert np.all(W[v, D:] == 0.0)


@pytest.mark.parametrize("case", ["s-curve-9x2", "planted-3x6", "rbf-features"])
def test_map_sweep_views_independent(case):
    # any view range swept alone gives bit for bit the maps of the full sweep
    Z, znorm, feats, _ = CASES[case]()
    X, W0 = start(feats)
    W, iters = sweep(Z, znorm, X, W0)
    assert len(set(iters.tolist())) > 1
    m = len(feats)
    for a, b in [(0, 1), (1, 3), (m - 1, m)]:
        W_s, iters_s = sweep(Z[a:b], znorm[a:b], X, W0[a:b])
        assert np.array_equal(W_s, W[a:b])
        assert np.array_equal(iters_s, iters[a:b])
