import math
import tracemalloc
import warnings

import numpy as np
import pytest

from intact import (
    Hyperparams,
    KernelSpec,
    align_to_truth,
    embed_example,
    fit,
    gen_planted_linear,
    gen_s_curve,
    gram,
    kernel_fit,
    median_heuristic_gamma,
    project_to_planes,
    validate_dataset,
)
from intact.core import freeze_array
from intact.errors import GramNotPSD
from intact.kernel import KernelModel, cross_gram, ensure_psd
from intact.optimizer import residual_sq_from_stacks


def make_kernel_model(Zs, As, kind="linear", gammas=None):
    if gammas is None:
        gammas = [None] * len(Zs)
    return KernelModel(
        A=tuple(freeze_array(A) for A in As),
        training_views=tuple(freeze_array(Z) for Z in Zs),
        kernel=KernelSpec(kind, None),
        gammas=tuple(gammas),
    )


def residual_sq(i, x, km):
    """Feature-space squared residual of training example i on each view
    at latent point x, read from the model's stacks."""
    rows = [Z[i:i + 1] for Z in km.training_views]
    return residual_sq_from_stacks(*km.stacks(rows), np.reshape(x, (1, -1)))[:, 0]


# ---------------------------------------------------------------------------
# gram
# ---------------------------------------------------------------------------

def test_gram_linear_orthonormal_rows():
    Z = np.eye(2)
    K = gram(Z, KernelSpec("linear"))
    assert np.allclose(K, np.eye(2))


def test_gram_rbf_diagonal_is_one():
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(6, 3))
    K = gram(Z, KernelSpec("rbf", 0.7))
    assert np.allclose(np.diag(K), 1.0)


def test_gram_rbf_unit_distance():
    Z = np.array([[0.0], [1.0]])
    K = gram(Z, KernelSpec("rbf", 1.0))
    assert math.isclose(K[0, 1], math.exp(-1.0), rel_tol=1e-12)
    assert math.isclose(K[1, 0], math.exp(-1.0), rel_tol=1e-12)


def test_gram_symmetric_and_cached_read_only():
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(10, 4))
    K = gram(Z, KernelSpec("rbf", 0.3))
    assert np.max(np.abs(K - K.T)) < 1e-10
    km = make_kernel_model([Z], [np.zeros((10, 2))], kind="rbf", gammas=[0.3])
    with pytest.raises(ValueError):
        km.gram[0][0, 0] = 5.0


def test_gram_requires_concrete_rbf_gamma():
    with pytest.raises(ValueError):
        gram(np.eye(2), KernelSpec("rbf", None))


def test_ensure_psd_branches():
    ok = ensure_psd(np.eye(3))
    assert np.allclose(ok, np.eye(3))
    jittered = ensure_psd(np.diag([1.0, -1e-6]))  # absorbed
    assert jittered.shape == (2, 2)
    with pytest.raises(GramNotPSD):
        ensure_psd(np.diag([1.0, -1e-3]))


def _eigvalsh_rule(K):
    """ensure_psd's rule read off the full spectrum, its thresholds
    relative to max(1, largest diagonal entry)."""
    K = 0.5 * (K + K.T)
    scale = max(1.0, float(np.max(np.diag(K))))
    lam_min = np.linalg.eigvalsh(K)[0]
    if lam_min < -1e-4 * scale:
        raise GramNotPSD(f"smallest Gram eigenvalue {lam_min:.3e}")
    if lam_min < -1e-8 * scale:
        K = K + 1e-10 * float(np.mean(np.diag(K))) * np.eye(K.shape[0])
    return K


@pytest.mark.parametrize("n", [4, 60])
@pytest.mark.parametrize("lam_min", [1e-3, 0.0, -1e-9, -1e-7, -1e-5, -1e-3])
def test_ensure_psd_matches_the_eigenvalue_rule(n, lam_min):
    rng = np.random.default_rng(n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    K = (Q * np.r_[lam_min, rng.uniform(0.1, 2.0, n - 1)]) @ Q.T
    try:
        want = _eigvalsh_rule(K)
    except GramNotPSD:
        with pytest.raises(GramNotPSD):
            ensure_psd(K)
        return
    got = ensure_psd(K)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("scale", [1e4, 1e10])
@pytest.mark.parametrize("lam_min", [-1e-9, -1e-7, -1e-5, -1e-3])
def test_ensure_psd_thresholds_scale_with_the_diagonal(scale, lam_min):
    # round-off in the eigenvalues of a Gram with large entries grows with
    # them; the rule reads each eigenvalue relative to the largest diagonal
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    K = scale * ((Q * np.r_[lam_min, rng.uniform(0.1, 2.0, 29)]) @ Q.T)
    if lam_min < -1e-4:
        with pytest.raises(GramNotPSD):
            ensure_psd(K)
        return
    want = _eigvalsh_rule(K)
    assert np.array_equal(ensure_psd(K).view(np.uint64), want.view(np.uint64))


def test_ensure_psd_certifies_an_rbf_gram_without_eigenvalues(monkeypatch):
    Z = project_to_planes(gen_s_curve(80, seed=2))[0]
    K = gram(Z, KernelSpec("rbf", median_heuristic_gamma(Z)))

    def no_eigenvalues(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
    assert np.array_equal(ensure_psd(K), K)


def _non_finite_grams():
    off_nan, first_inf = np.eye(3), np.eye(3)
    off_nan[0, 1] = off_nan[1, 0] = np.nan
    first_inf[0, 0] = np.inf
    return [np.full((3, 3), np.nan), off_nan, first_inf]


@pytest.mark.parametrize("K", _non_finite_grams())
def test_ensure_psd_gives_non_finite_grams_to_the_eigenvalue_rule(K):
    try:
        want = _eigvalsh_rule(K)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            ensure_psd(K)
        return
    assert np.array_equal(ensure_psd(K), want, equal_nan=True)


def test_median_heuristic_positive():
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(20, 4))
    g = median_heuristic_gamma(Z)
    assert g > 0
    assert median_heuristic_gamma(np.zeros((5, 2))) == 1.0


def test_median_heuristic_is_the_median_of_explicit_distances():
    rng = np.random.default_rng(14)
    Z = rng.normal(size=(25, 3))
    d2 = [float(np.sum((Z[i] - Z[j]) ** 2)) for i in range(25) for j in range(i + 1, 25)]
    assert math.isclose(median_heuristic_gamma(Z), 1.0 / float(np.median(d2)), rel_tol=1e-12)


def test_median_heuristic_gathers_no_index_arrays():
    # the triangle of a 1000-row view: an 8 MB buffer and a 4 MB copy, where
    # triu_indices added two 4 MB index arrays (20 MB peak)
    from intact.kernel import _sq_distances

    rng = np.random.default_rng(17)
    for n in (2, 3, 40, 1000):
        Z = rng.normal(size=(n, 2))
        Z[n // 2] = Z[0]  # a zero distance, and a tie at n = 2
        D = _sq_distances(Z, Z)
        want = float(np.median(D[np.triu_indices(n, k=1)]))
        assert median_heuristic_gamma(Z) == (1.0 / want if want > 0 else 1.0)
    tracemalloc.start()
    try:
        median_heuristic_gamma(Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14e6


def test_rbf_cross_gram_matches_pairwise_exponentials():
    # non-square; Zb[2] duplicates Za[4], and Za[6] lies 40 from Zb[0], so
    # its kernel value exp(-1600) underflows to 0
    rng = np.random.default_rng(15)
    Za = rng.normal(size=(7, 3))
    Zb = rng.normal(size=(5, 3))
    Zb[2] = Za[4]
    Za[6] = Zb[0] + np.array([40.0, 0.0, 0.0])
    g = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = cross_gram(Za, Zb, "rbf", g)
    want = np.array([[math.exp(-g * float(np.sum((a - b) ** 2))) for b in Zb] for a in Za])
    assert K.shape == (7, 5)
    assert np.max(np.abs(K - want)) <= 1e-15
    assert abs(K[4, 2] - 1.0) <= 1e-15
    assert K[6, 0] == 0.0


@pytest.mark.parametrize("kind, gamma", [("rbf", 0.5), ("linear", None)])
def test_cross_gram_of_zero_rows_is_empty(kind, gamma):
    Zb = np.ones((4, 3))
    assert cross_gram(np.zeros((0, 3)), Zb, kind, gamma).shape == (0, 4)


def test_rbf_cross_gram_peak_memory_is_one_block():
    rng = np.random.default_rng(16)
    Za, Zb = rng.normal(size=(1000, 2)), rng.normal(size=(100, 2))
    cross_gram(Za, Zb, "rbf", 0.5)
    tracemalloc.start()
    try:
        K = cross_gram(Za, Zb, "rbf", 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * K.nbytes


# ---------------------------------------------------------------------------
# residuals and norms in feature space
# ---------------------------------------------------------------------------

def test_kernel_residual_x_zero_gives_self_kernel():
    rng = np.random.default_rng(4)
    Z = rng.normal(size=(8, 3))
    A = rng.normal(size=(8, 2))
    km = make_kernel_model([Z], [A], kind="rbf", gammas=[0.5])
    for i in range(4):
        assert math.isclose(
            residual_sq(i, np.zeros(2), km)[0], 1.0, rel_tol=1e-12
        )


def test_kernel_residual_matches_explicit_features():
    # under the linear kernel with map = Z^T A, the feature-space residual
    # is the ordinary one
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(10, 4))
    A = rng.normal(size=(10, 3))
    W = Z.T @ A
    km = make_kernel_model([Z], [A])
    for i in range(10):
        x = rng.normal(size=3)
        want = float(np.sum((Z[i] - W @ x) ** 2))
        got = residual_sq(i, x, km)[0]
        assert abs(got - want) < 1e-8 * max(1.0, want)


def test_kernel_residual_zero_atoms_linear():
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(5, 3))
    km = make_kernel_model([Z], [np.zeros((5, 2))])
    for i in range(5):
        assert math.isclose(
            residual_sq(i, np.ones(2), km)[0],
            float(Z[i] @ Z[i]),
            rel_tol=1e-12,
        )


def test_kernel_residual_clamp_bound():
    # pre-clamp negativity stays within round-off of the self-kernel scale
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(12, 3))
    A = rng.normal(size=(12, 2))
    km = make_kernel_model([Z], [A])
    K = km.gram[0]
    for i in range(12):
        x = np.linalg.lstsq(K @ A, K[i], rcond=None)[0]  # near-zero residual
        Ax = A @ x
        raw = float(K[i, i] - 2.0 * (K[i] @ Ax) + Ax @ (K @ Ax))
        assert raw >= -1e-9 * K[i, i]
        assert residual_sq(i, x, km)[0] >= 0.0


def test_kernel_w_norm():
    rng = np.random.default_rng(8)
    Z = rng.normal(size=(9, 4))
    A = rng.normal(size=(9, 2))
    km = make_kernel_model([Z], [A])
    assert np.trace(make_kernel_model([Z], [np.zeros((9, 2))]).G[0]) == 0.0
    W = Z.T @ A
    want = float(np.sum(W * W))
    assert abs(np.trace(km.G[0]) - want) < 1e-8 * max(1.0, want)
    km2 = make_kernel_model([Z], [2.0 * A])
    assert math.isclose(np.trace(km2.G[0]), 4.0 * np.trace(km.G[0]), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# kernel fitting
# ---------------------------------------------------------------------------

def test_linear_kernel_fit_matches_linear_fit():
    _, _, Zs = gen_planted_linear(20, [4, 5], 2, seed=9, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-3, seed=9, max_outer=80)
    m_lin, e_lin, h_lin = fit(ds, hp)
    m_ker, e_ker, h_ker = kernel_fit(ds, hp, KernelSpec("linear"))
    v1, v2 = h_lin.values(), h_ker.values()
    steps = min(len(v1), len(v2))
    assert np.max(np.abs(v1[:steps] - v2[:steps])) < 1e-6
    score = align_to_truth(e_ker.X, e_lin.X)
    assert score.relative_residual < 1e-4


@pytest.mark.parametrize("scale", [1e5, 1e6])
def test_linear_kernel_fit_of_large_raw_inputs(tmp_path, scale):
    # the linear Grams of unstandardized inputs have entries near scale^2,
    # and eigenvalue round-off of that size once failed the PSD check
    from intact import modelio

    _, _, Zs = gen_planted_linear(200, [4, 5, 6], 2, seed=0)
    ds = validate_dataset([Z * scale for Z in Zs])
    hp = Hyperparams(d=2)
    m_ker, e_ker, h_ker = kernel_fit(ds, hp, KernelSpec("linear"))
    _, _, h_lin = fit(ds, hp)
    assert h_ker.values()[-1] == pytest.approx(h_lin.values()[-1], rel=1e-9)
    path = tmp_path / "model.txt"
    modelio.save_model(path, m_ker)
    loaded, _ = modelio.load_model(path)
    x = embed_example([Z[0] for Z in ds.views], loaded)
    assert np.max(np.abs(x - e_ker.X[0])) <= 1e-6 * np.max(np.abs(e_ker.X))


def test_rbf_fit_trace_non_increasing():
    pts = gen_s_curve(60, seed=10)
    ds = validate_dataset(project_to_planes(pts))
    hp = Hyperparams(d=3, C1=1e-3, C2=1e-3, seed=10, max_outer=40)
    model, emb, hist = kernel_fit(ds, hp, KernelSpec("rbf"))
    assert hist.monotone_within(1e-9)
    assert model.kernel_part.gammas[0] > 0


def test_kernel_fit_degenerate_single_example():
    ds = validate_dataset([np.array([[1.5]]), np.array([[-0.5]])])
    hp = Hyperparams(d=1, C1=0.0, C2=0.0, seed=0, max_outer=20)
    model, emb, hist = kernel_fit(ds, hp, KernelSpec("linear"))
    km = model.kernel_part
    assert np.all(residual_sq(0, emb.X[0], km) < 1e-12)


# ---------------------------------------------------------------------------
# kernel embedding
# ---------------------------------------------------------------------------

def test_kernel_embed_training_self_consistency():
    _, _, Zs = gen_planted_linear(15, [4, 4], 2, seed=11, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-3, seed=11)
    model, emb, _ = kernel_fit(ds, hp, KernelSpec("rbf"))
    for i in (0, 7, 14):
        x = embed_example([Z[i] for Z in Zs], model)
        assert np.max(np.abs(x - emb.X[i])) < 1e-4


def test_kernel_embed_linear_matches_linear_embedding():
    _, _, Zs = gen_planted_linear(15, [4, 4], 2, seed=12, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-3, seed=12)
    m_lin, _, _ = fit(ds, hp)
    m_ker, _, _ = kernel_fit(ds, hp, KernelSpec("linear"))
    z_new = [Z[3] * 1.1 for Z in Zs]
    x_lin = embed_example(z_new, m_lin)
    x_ker = embed_example(z_new, m_ker)
    assert np.max(np.abs(x_lin - x_ker)) < 1e-6


def test_kernel_embed_zeros_is_finite():
    _, _, Zs = gen_planted_linear(10, [3, 3], 2, seed=13, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-2, seed=13)
    model, _, _ = kernel_fit(ds, hp, KernelSpec("rbf"))
    x = embed_example([np.zeros(3), np.zeros(3)], model)
    assert np.all(np.isfinite(x))
