import math

import numpy as np
import pytest

from intact import (
    NoiseSpec,
    add_window_noise,
    gen_planted_linear,
    gen_s_curve,
    load_xyz_point_cloud,
    make_noisy_views,
    project_to_planes,
)
from intact.errors import DegenerateSignal, ParseError


def test_s_curve_deterministic_single_point():
    p1 = gen_s_curve(1, seed=5)
    p2 = gen_s_curve(1, seed=5)
    assert p1.shape == (1, 3)
    assert np.all(np.isfinite(p1))
    assert np.array_equal(p1, p2)


def test_s_curve_on_half_cylinders():
    P = gen_s_curve(500, seed=1)
    # both branches satisfy x^2 + (|z| - 1)^2 = 1
    residual = P[:, 0] ** 2 + (np.abs(P[:, 2]) - 1.0) ** 2 - 1.0
    assert np.max(np.abs(residual)) < 1e-12
    assert np.all(P[:, 1] >= 0.0) and np.all(P[:, 1] <= 2.0)


def test_s_curve_seeds_differ():
    assert not np.array_equal(gen_s_curve(10, seed=0), gen_s_curve(10, seed=1))


def test_project_to_planes_coordinates():
    views = project_to_planes(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(views[0], [[1.0, 2.0]])
    assert np.allclose(views[1], [[1.0, 3.0]])
    assert np.allclose(views[2], [[2.0, 3.0]])


def test_project_to_planes_redundancy():
    P = np.random.default_rng(2).normal(size=(20, 3))
    v_xy, v_xz, v_yz = project_to_planes(P)
    # each coordinate appears twice, consistently
    assert np.array_equal(v_xy[:, 0], v_xz[:, 0])  # x
    assert np.array_equal(v_xy[:, 1], v_yz[:, 0])  # y
    assert np.array_equal(v_xz[:, 1], v_yz[:, 1])  # z


def test_project_to_planes_zeros():
    for V in project_to_planes(np.zeros((4, 3))):
        assert np.array_equal(V, np.zeros((4, 2)))


def test_window_noise_locality():
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(100, 2))
    spec = NoiseSpec(snr_db=10.0, window_fraction=0.3, seed=3)
    out = add_window_noise(Z, spec)
    changed = np.any(out != Z, axis=1)
    w = math.ceil(0.3 * 100)
    assert changed.sum() <= w
    assert (~changed).sum() >= 100 - w
    # untouched rows are bit-identical
    assert np.array_equal(out[~changed], Z[~changed])


def test_window_noise_variance_matches_snr():
    rng = np.random.default_rng(4)
    Z = rng.normal(size=(400, 3))  # unit variance signal
    spec = NoiseSpec(snr_db=10.0, window_fraction=0.5, seed=4)
    out = add_window_noise(Z, spec)
    noise = out - Z
    injected = noise[np.any(noise != 0, axis=1)]
    var = injected.var()
    assert abs(var - 0.1) / 0.1 < 0.2


def test_window_noise_realized_snr_within_1db():
    rng = np.random.default_rng(5)
    Z = 2.5 * rng.normal(size=(300, 2))
    spec = NoiseSpec(snr_db=15.0, window_fraction=0.4, seed=5)
    out = add_window_noise(Z, spec)
    mask = np.any(out != Z, axis=1)
    sig_var = Z[mask].var()
    noise_var = (out - Z)[mask].var()
    realized = 10.0 * math.log10(sig_var / noise_var)
    assert abs(realized - 15.0) <= 1.0


def test_window_noise_deterministic():
    Z = np.random.default_rng(6).normal(size=(50, 2))
    spec = NoiseSpec(snr_db=20.0, seed=123)
    assert np.array_equal(add_window_noise(Z, spec), add_window_noise(Z, spec))


def test_window_noise_infinite_snr_is_identity():
    Z = np.random.default_rng(7).normal(size=(30, 2))
    out = add_window_noise(Z, NoiseSpec(snr_db=math.inf, seed=0))
    assert np.array_equal(out, Z)


def test_window_noise_degenerate_signal():
    with pytest.raises(DegenerateSignal):
        add_window_noise(np.zeros((10, 2)), NoiseSpec(snr_db=10.0, seed=0))


def test_noise_spec_invariants():
    with pytest.raises(ValueError):
        NoiseSpec(snr_db=10.0, window_fraction=0.0)
    with pytest.raises(ValueError):
        NoiseSpec(snr_db=10.0, window_fraction=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(snr_db=10.0, copies_per_base=0)


def test_make_noisy_views_counts():
    base = project_to_planes(gen_s_curve(50, seed=8))
    for copies, total in ((3, 9), (9, 27)):
        out = make_noisy_views(base, NoiseSpec(snr_db=15.0, copies_per_base=copies))
        assert len(out) == total
    # noiseless sentinel: copies equal base views exactly
    out = make_noisy_views(base, NoiseSpec(snr_db=math.inf, copies_per_base=2))
    assert np.array_equal(out[0], base[0])
    assert np.array_equal(out[1], base[0])
    assert np.array_equal(out[2], base[1])


def test_make_noisy_views_independent_windows():
    base = project_to_planes(gen_s_curve(80, seed=9))
    out = make_noisy_views(base, NoiseSpec(snr_db=10.0, copies_per_base=2, seed=9))
    assert not np.array_equal(out[0], out[1])


def test_load_xyz(tmp_path):
    p = tmp_path / "cloud.xyz"
    p.write_text("0 0 0\n1 2 3\n")
    M = load_xyz_point_cloud(p)
    assert M.shape == (2, 3)
    assert np.allclose(M[1], [1.0, 2.0, 3.0])

    p2 = tmp_path / "with_header.xyz"
    p2.write_text("#header\n0,0,0\n4 5 6\n")
    M2 = load_xyz_point_cloud(p2)
    assert M2.shape == (2, 3)

    p3 = tmp_path / "bad.xyz"
    p3.write_text("0 0 0\n1 2\n")
    with pytest.raises(ParseError) as err:
        load_xyz_point_cloud(p3)
    assert err.value.line_number == 2


def test_planted_linear_deterministic():
    X1, W1, Z1 = gen_planted_linear(10, [3, 4], 2, seed=11, noise_sigma=0.1)
    X2, W2, Z2 = gen_planted_linear(10, [3, 4], 2, seed=11, noise_sigma=0.1)
    assert np.array_equal(X1, X2)
    assert all(np.array_equal(a, b) for a, b in zip(Z1, Z2))


def test_load_xyz_rejects_wide_first_row(tmp_path):
    p = tmp_path / "wide.xyz"
    p.write_text("0 0 0 1\n1 2 3\n")
    with pytest.raises(ParseError) as err:
        load_xyz_point_cloud(p)
    assert err.value.line_number == 1


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_load_xyz_rejects_file_without_rows(tmp_path, text):
    p = tmp_path / "empty.xyz"
    p.write_text(text)
    with pytest.raises(ParseError, match="no data rows"):
        load_xyz_point_cloud(p)


@pytest.mark.parametrize("snr", [float("nan"), float("-inf")])
def test_noise_spec_rejects_nan_and_negative_infinite_snr(snr):
    with pytest.raises(ValueError, match="snr_db"):
        NoiseSpec(snr_db=snr)
