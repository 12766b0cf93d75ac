"""Acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line (use `pytest tests/test_acceptance.py -s`).

Observed values from the frozen oracle runs that set the recovery
thresholds are recorded next to each assertion.
"""

import json
import time
from dataclasses import replace

import numpy as np

from intact import (
    Hyperparams,
    KernelSpec,
    NoiseSpec,
    align_to_truth,
    embed_examples,
    fit,
    gen_planted_linear,
    gen_s_curve,
    grad_x,
    kernel_fit,
    knn_classify,
    majorant_curvature,
    make_noisy_views,
    objective_x,
    project_to_planes,
    robustness_benchmark,
    stability_probe,
    standardize_views,
    update_x_once,
    validate_dataset,
)
from intact.cli import main
from intact.core import IntactModel, freeze_array
from oracles import fd_gradient


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"


def _random_instance(seed, d=3, m=3, D=5, C2=0.1):
    rng = np.random.default_rng(seed)
    hp = Hyperparams(d=d, c=1.0, C1=0.0, C2=C2, seed=seed)
    W = [rng.normal(size=(D, d)) for _ in range(m)]
    model = IntactModel(
        mode="linear",
        W=tuple(freeze_array(Wv) for Wv in W),
        kernel_part=None,
        hyperparams=hp,
    )
    zs = [rng.normal(size=D) for _ in range(m)]
    x = rng.normal(size=d)
    return model, zs, x, hp


def test_01_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        model, zs, x, _ = _random_instance(seed)
        g = grad_x(zs, model, x)
        g_fd = fd_gradient(lambda t: objective_x(zs, model, t), x)
        rel = float(np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        1, "gradient-correctness",
        worst < 1e-6 and elapsed < 5.0,
        f"max rel err {worst:.3e}, {elapsed:.2f}s",
    )


def test_02_monotone_descent_s_curve():
    t0 = time.perf_counter()
    pts = gen_s_curve(500, seed=0)
    ds, _ = standardize_views(validate_dataset(project_to_planes(pts)))
    hp = Hyperparams(d=3, C1=1e-4, C2=1e-4, seed=0)
    _, _, hist = fit(ds, hp)  # raises DivergenceDetected on any violation
    elapsed = time.perf_counter() - t0
    ok = hist.monotone_within(1e-9) and elapsed < 30.0
    _report(
        2, "monotone-descent",
        ok,
        f"{len(hist.objective_trace)} half-steps, "
        f"max rel increase {hist.max_relative_increase():.3e}, {elapsed:.2f}s",
    )


def test_03_majorization_identity():
    worst = 0.0
    for seed in range(50):
        model, zs, x_k, _ = _random_instance(seed)
        g = grad_x(zs, model, x_k)
        C = majorant_curvature(zs, model, x_k)
        x_star = x_k - 0.5 * np.linalg.solve(C, g)
        x_upd = update_x_once(zs, model, x_k)
        worst = max(worst, float(np.max(np.abs(x_star - x_upd))))
    _report(3, "majorization-identity", worst < 1e-10, f"max diff {worst:.3e}")


def test_04_s_curve_recovery():
    # frozen oracle-run observations: clean residual ~1e-11, noisy
    # 10-seed median ~0.020; asserted at the stated ceilings
    pts = gen_s_curve(500, seed=0)
    base = project_to_planes(pts)
    hp = Hyperparams(d=3, C1=1e-4, C2=1e-4, seed=0)
    ds, _ = standardize_views(validate_dataset(base))
    _, emb, _ = fit(ds, hp)
    clean = align_to_truth(emb.X, pts).relative_residual

    noisy_res = []
    for seed in range(10):
        pts_s = gen_s_curve(500, seed=seed)
        spec = NoiseSpec(snr_db=20.0, window_fraction=0.3, copies_per_base=3,
                         seed=seed)
        views = make_noisy_views(project_to_planes(pts_s), spec)
        ds_s, _ = standardize_views(validate_dataset(views))
        hp_s = Hyperparams(d=3, C1=1e-4, C2=1e-4, seed=seed)
        _, emb_s, _ = fit(ds_s, hp_s)
        noisy_res.append(align_to_truth(emb_s.X, pts_s).relative_residual)
    med = float(np.median(noisy_res))
    _report(
        4, "s-curve-recovery",
        clean <= 0.05 and med <= 0.15,
        f"clean {clean:.3e} (<=0.05), noisy median {med:.4f} (<=0.15)",
    )


def test_05_robustness_ablation():
    t0 = time.perf_counter()
    ratios = []
    for seed in range(10):
        _, _, Zs = gen_planted_linear(150, [6, 6, 6], 3, seed=seed,
                                      noise_sigma=0.05)
        hp = Hyperparams(d=3, c=1.0, C1=1e-3, C2=1e-3, seed=seed,
                         max_outer=150)
        rep = robustness_benchmark(validate_dataset(Zs), 0.3, 10.0,
                                   replace(hp, seed=seed))
        ratios.append(rep.ratio)
    med = float(np.median(ratios))
    elapsed = time.perf_counter() - t0
    _report(
        5, "robustness-ablation",
        med <= 0.5 and elapsed < 60.0,
        f"median ratio {med:.4f} (<=0.5), {elapsed:.1f}s",
    )


def test_06_kernel_linear_equivalence():
    _, _, Zs = gen_planted_linear(20, [4, 5], 2, seed=1, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-3, seed=1)
    _, _, h_lin = fit(ds, hp)
    _, _, h_ker = kernel_fit(ds, hp, KernelSpec("linear"))
    v1, v2 = h_lin.values(), h_ker.values()
    steps = min(len(v1), len(v2))
    worst = float(np.max(np.abs(v1[:steps] - v2[:steps])))
    _report(
        6, "kernel-linear-equivalence",
        worst < 1e-6 and steps > 2,
        f"max per-step diff {worst:.3e} over {steps} steps",
    )


def test_07_stability_probes():
    _, _, Zs = gen_planted_linear(60, [5, 5, 5], 3, seed=2, noise_sigma=0.02)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=3, C1=1e-3, C2=0.1, seed=2)
    model, _, _ = fit(ds, hp)
    rng = np.random.default_rng(0)
    taus = (1e-3, 1e-2)
    violations = 0
    unexplained = 0
    for p in range(100):
        i = int(rng.integers(0, ds.n))
        v = int(rng.integers(0, ds.m))
        j = int(rng.integers(0, ds.view_dims[v]))
        rep = stability_probe(
            [Z[i] for Z in ds.views], model,
            tau=taus[p % 2], view_index=v, coord_index=j, seed=p,
        )
        if not rep.holds:
            violations += 1
            if rep.local_convex:
                unexplained += 1
    _report(
        7, "stability-probes",
        violations == 0 and unexplained == 0,
        f"{violations} violations / 100 probes "
        f"({unexplained} with local convexity holding)",
    )


def test_08_inference_self_consistency():
    _, _, Zs = gen_planted_linear(80, [5, 4, 6], 3, seed=3, noise_sigma=0.05)
    ds = validate_dataset(Zs)
    hp = Hyperparams(d=3, C1=1e-3, C2=1e-2, seed=3)
    model, emb, _ = fit(ds, hp)
    X_again = embed_examples(list(ds.views), model)
    worst = float(np.max(np.abs(X_again - emb.X)))
    _report(8, "inference-self-consistency", worst < 1e-6,
            f"max coordinate diff {worst:.3e}")


def test_09_knn_harness():
    rng = np.random.default_rng(4)
    n_per = 200
    sigma = 1.0
    latent = np.vstack([
        rng.normal(size=(n_per, 2)) * sigma,
        rng.normal(size=(n_per, 2)) * sigma + np.array([6.0 * sigma, 0.0]),
    ])
    labels = np.array([0] * n_per + [1] * n_per)
    maps = [rng.normal(size=(4, 2)) for _ in range(2)]
    views = [latent @ M.T + 0.1 * rng.normal(size=(2 * n_per, 4)) for M in maps]
    ds, _ = standardize_views(validate_dataset(views))
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-3, seed=4)
    _, emb, _ = fit(ds, hp)
    perm = rng.permutation(2 * n_per)
    tr, te = perm[:n_per], perm[n_per:]
    _, acc = knn_classify(emb.X[tr], labels[tr], emb.X[te], k=3,
                          test_labels=labels[te])
    _report(9, "3nn-harness", acc >= 0.95, f"accuracy {acc:.4f} (>=0.95)")


def test_10_cli_determinism(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps(
        {"generator": "s_curve", "n": 150, "seed": 9,
         "noise": {"snr_db": 20.0, "copies_per_base": 3}}
    ))
    outs = []
    for tag in ("a", "b"):
        data = tmp_path / f"data_{tag}"
        run = tmp_path / f"run_{tag}"
        assert main(["synth", "--config", str(synth_cfg), "--out", str(data)]) == 0
        train_cfg = tmp_path / f"train_{tag}.json"
        train_cfg.write_text(json.dumps(
            {"manifest": str(data / "manifest.json"),
             "hyperparams": {"d": 3, "C1": 1e-4, "C2": 1e-4, "seed": 9,
                              "max_outer": 40}}
        ))
        assert main(["train", "--config", str(train_cfg), "--out", str(run)]) == 0
        outs.append((data, run))
    (data_a, run_a), (data_b, run_b) = outs
    same = all(
        f.read_bytes() == (data_b / f.name).read_bytes()
        for f in data_a.iterdir()
    ) and all(
        f.read_bytes() == (run_b / f.name).read_bytes()
        for f in run_a.iterdir()
    )
    _report(10, "cli-determinism", same, "synth+train outputs byte-identical")
