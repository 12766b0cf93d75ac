import json
import subprocess
import sys

import numpy as np
import pytest

from intact import Hyperparams, fit, gen_planted_linear, kernel_fit, validate_dataset
from intact.cli import main
from intact.kernel import KernelSpec
from intact import modelio


def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def synth_out(tmp_path):
    cfg = write_cfg(
        tmp_path / "synth.json",
        {"generator": "s_curve", "n": 120, "seed": 5,
         "noise": {"snr_db": 20.0, "copies_per_base": 3}},
    )
    out = tmp_path / "data"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    return out


@pytest.fixture()
def trained(tmp_path, synth_out):
    cfg = write_cfg(
        tmp_path / "train.json",
        {"manifest": str(synth_out / "manifest.json"),
         "hyperparams": {"d": 3, "C1": 1e-4, "C2": 1e-4, "seed": 5,
                          "max_outer": 60}},
    )
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_synth_outputs(synth_out):
    names = sorted(p.name for p in synth_out.iterdir())
    views = [n for n in names if n.startswith("view_")]
    assert len(views) == 9
    assert "truth.csv" in names and "manifest.json" in names
    manifest = modelio.load_json(synth_out / "manifest.json")
    assert manifest["seed"] == 5
    assert manifest["noise"]["snr_db"] == 20.0
    first_line = (synth_out / "view_00.csv").read_text().splitlines()[0]
    assert first_line == "# view 0 dims 2"


def test_synth_deterministic(tmp_path):
    cfg = write_cfg(
        tmp_path / "s.json",
        {"generator": "s_curve", "n": 60, "seed": 1,
         "noise": {"snr_db": 15.0, "copies_per_base": 2}},
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", cfg, "--out", str(a)]) == 0
    assert main(["synth", "--config", cfg, "--out", str(b)]) == 0
    for f in a.iterdir():
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_synth_clean_mode(tmp_path):
    cfg = write_cfg(tmp_path / "s.json", {"generator": "s_curve", "n": 40, "seed": 2})
    out = tmp_path / "clean"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    assert len(list(out.glob("view_*.csv"))) == 3


def test_train_outputs_and_monotone_history(trained):
    assert (trained / "model.txt").is_file()
    hist = (trained / "history.csv").read_text().splitlines()
    vals = [float(line.split(",")[2]) for line in hist[1:]]
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(vals[:-1])))
    emb = modelio.load_matrix_csv(trained / "embedding.csv")
    assert emb.shape == (120, 3)


def test_train_rejects_bad_hyperparams(tmp_path, synth_out):
    cfg = write_cfg(
        tmp_path / "bad.json",
        {"manifest": str(synth_out / "manifest.json"),
         "hyperparams": {"d": 3, "C2": -1.0}},
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


def test_train_rejects_unknown_keys(tmp_path, synth_out):
    cfg = write_cfg(
        tmp_path / "bad.json",
        {"manifest": str(synth_out / "manifest.json"), "typo_key": 1,
         "hyperparams": {"d": 3}},
    )
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("mode, standardize, value", [
    ("linear", True, 1e300),
    ("kernel", True, 1e300),
    ("linear", False, 1e300),
    ("kernel", False, 1e160),
])
def test_train_rejects_views_whose_squared_norms_overflow(tmp_path, capsys, mode,
                                                          standardize, value):
    paths = []
    for v in range(9):
        path = tmp_path / f"view_{v}.csv"
        modelio.save_view_csv(path, np.array([[value, value], [-value, 2.0]]), v)
        paths.append(str(path))
    cfg = write_cfg(
        tmp_path / "train.json",
        {"views": paths, "mode": mode, "standardize": standardize,
         "hyperparams": {"d": 1}},
    )
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert "view 0 is too large" in capsys.readouterr().err
    assert not (out / "model.txt").exists()


def test_train_warns_on_max_iter_stop(tmp_path, synth_out, capsys):
    def train(max_outer, name):
        cfg = write_cfg(
            tmp_path / f"{name}.json",
            {"manifest": str(synth_out / "manifest.json"),
             "hyperparams": {"d": 3, "seed": 5, "max_outer": max_outer}},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        return capsys.readouterr()

    cut = train(1, "cut")
    assert "stop=max_iter" in cut.out
    assert "warning" in cut.err and "max_iter (1 outer iterations)" in cut.err
    done = train(60, "done")
    assert "stop=objective_tol" in done.out
    assert done.err == ""


def test_model_round_trip_byte_identical(tmp_path, trained):
    model, rec = modelio.load_model(trained / "model.txt")
    copy = tmp_path / "copy.txt"
    modelio.save_model(copy, model, rec)
    assert copy.read_bytes() == (trained / "model.txt").read_bytes()


def test_kernel_model_round_trip(tmp_path):
    _, _, Zs = gen_planted_linear(15, [3, 4], 2, seed=3, noise_sigma=0.05)
    hp = Hyperparams(d=2, C1=1e-3, C2=1e-3, seed=3, max_outer=20)
    model, emb, _ = kernel_fit(validate_dataset(Zs), hp, KernelSpec("rbf"))
    p1, p2 = tmp_path / "km.txt", tmp_path / "km2.txt"
    modelio.save_model(p1, model, None)
    loaded, rec = modelio.load_model(p1)
    assert rec is None
    assert loaded.mode == "kernel"
    modelio.save_model(p2, loaded, None)
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in zip(loaded.kernel_part.A, model.kernel_part.A):
        assert np.array_equal(a, b)


def test_embed_self_consistency(tmp_path, synth_out, trained):
    cfg = write_cfg(
        tmp_path / "embed.json",
        {"model": str(trained / "model.txt"),
         "manifest": str(synth_out / "manifest.json")},
    )
    out = tmp_path / "emb"
    assert main(["embed", "--config", cfg, "--out", str(out)]) == 0
    X_train = modelio.load_matrix_csv(trained / "embedding.csv")
    X_new = modelio.load_matrix_csv(out / "embedding.csv")
    assert np.max(np.abs(X_train - X_new)) < 1e-6


def test_embed_dimension_mismatch_names_view(tmp_path, trained, synth_out, capsys):
    bad = tmp_path / "bad_view.csv"
    M = modelio.load_matrix_csv(synth_out / "view_01.csv")
    modelio.save_matrix_csv(bad, np.hstack([M, M[:, :1]]))
    views = [str(synth_out / f"view_{v:02d}.csv") for v in range(9)]
    views[1] = str(bad)
    cfg = write_cfg(
        tmp_path / "embed.json",
        {"model": str(trained / "model.txt"), "views": views},
    )
    assert main(["embed", "--config", cfg, "--out", str(tmp_path / "e")]) == 1
    assert "view 1" in capsys.readouterr().err


def test_embed_empty_view_file(tmp_path, trained, synth_out):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    views = [str(synth_out / f"view_{v:02d}.csv") for v in range(9)]
    views[0] = str(empty)
    cfg = write_cfg(
        tmp_path / "embed.json",
        {"model": str(trained / "model.txt"), "views": views},
    )
    assert main(["embed", "--config", cfg, "--out", str(tmp_path / "e")]) == 1


def test_eval_perfect_alignment_and_default_k(tmp_path, trained, synth_out):
    labels = tmp_path / "labels.txt"
    emb = modelio.load_matrix_csv(trained / "embedding.csv")
    labels.write_text("\n".join("ab"[i % 2] for i in range(emb.shape[0])) + "\n")
    cfg = write_cfg(
        tmp_path / "eval.json",
        {"embedding": str(trained / "embedding.csv"),
         "truth": str(trained / "embedding.csv"),
         "labels": str(labels)},
    )
    out = tmp_path / "metrics"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    metrics = modelio.load_json(out / "metrics.json")
    assert metrics["alignment_residual"] < 1e-10
    assert metrics["k"] == 3


def test_eval_requires_truth_or_labels(tmp_path, trained, capsys):
    cfg = write_cfg(
        tmp_path / "eval.json", {"embedding": str(trained / "embedding.csv")}
    )
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "m")]) == 1
    assert "labels" in capsys.readouterr().err


def test_probe_zero_tau_row(tmp_path, trained, synth_out):
    cfg = write_cfg(
        tmp_path / "probe.json",
        {"model": str(trained / "model.txt"),
         "manifest": str(synth_out / "manifest.json"),
         "taus": [0.0], "n_probes": 3, "seed": 0},
    )
    out = tmp_path / "probe"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "probes.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        fields = row.split(",")
        assert float(fields[4]) == 0.0  # measured deviation
        assert fields[6] == "1"  # holds


def test_probe_reports_measured_over_bound(tmp_path, trained, synth_out, capsys):
    cfg = write_cfg(
        tmp_path / "probe.json",
        {"model": str(trained / "model.txt"),
         "manifest": str(synth_out / "manifest.json"),
         "taus": [0.0, 0.1], "n_probes": 4, "seed": 0},
    )
    out = tmp_path / "probe"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "probes.csv").read_text().splitlines()
    assert header.endswith(",local_convex,measured_over_bound")
    fields = [row.split(",") for row in rows]
    ratios = [float(f[-1]) for f in fields]
    for f, ratio in zip(fields, ratios):
        if float(f[3]) == 0.0:
            assert ratio == 0.0
        else:
            assert ratio == float(f[4]) / float(f[5]) and ratio > 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("violations = ")
    assert summary.endswith(f"largest measured/bound = {max(ratios):.6g}")


def test_probe_rejects_zero_regularizer(tmp_path, capsys):
    _, _, Zs = gen_planted_linear(20, [3, 3], 2, seed=4, noise_sigma=0.05)
    hp = Hyperparams(d=2, C1=0.0, C2=0.0, seed=4, max_outer=20)
    model, _, _ = fit(validate_dataset(Zs), hp)
    mp = tmp_path / "m.txt"
    modelio.save_model(mp, model, None)
    for v, Z in enumerate(Zs):
        modelio.save_view_csv(tmp_path / f"v{v}.csv", Z, v)
    cfg = write_cfg(
        tmp_path / "probe.json",
        {"model": str(mp), "views": [str(tmp_path / "v0.csv"),
                                      str(tmp_path / "v1.csv")],
         "n_probes": 1},
    )
    assert main(["probe", "--config", cfg, "--out", str(tmp_path / "p")]) == 1
    assert "C2" in capsys.readouterr().err


def test_bench_table(tmp_path):
    cfg = write_cfg(
        tmp_path / "bench.json",
        {"rates": [0.0, 0.1, 0.2, 0.3], "n": 40, "view_dims": [4, 4],
         "n_seeds": 2,
         "hyperparams": {"d": 2, "C1": 1e-3, "C2": 1e-3, "max_outer": 30}},
    )
    out = tmp_path / "bench"
    assert main(["bench", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "bench.csv").read_text().splitlines()
    assert rows[0] == "rate,cauchy_error,l2_error,ratio"
    assert len(rows) == 5


# file: (header line, integer columns, text columns); every other column is
# a float written with 17 significant digits
_TABLES = {
    "history.csv": ("# step,kind,objective", {"step"}, {"kind"}),
    "probes.csv": ("example,view,coord,tau,measured_deviation,beta_bound,holds,"
                   "local_convex,measured_over_bound",
                   {"example", "view", "coord", "holds", "local_convex"}, set()),
    "bench.csv": ("rate,cauchy_error,l2_error,ratio", set(), set()),
}


def test_cli_tables_keep_their_format(tmp_path, trained, synth_out):
    probe = write_cfg(
        tmp_path / "probe.json",
        {"model": str(trained / "model.txt"), "manifest": str(synth_out / "manifest.json"),
         "taus": [0.0, 0.1], "n_probes": 4},
    )
    bench = write_cfg(
        tmp_path / "bench.json",
        {"rates": [0.0, 0.2], "n": 30, "view_dims": [4, 4], "n_seeds": 1,
         "hyperparams": {"d": 2, "max_outer": 10}},
    )
    assert main(["probe", "--config", probe, "--out", str(trained)]) == 0
    assert main(["bench", "--config", bench, "--out", str(trained)]) == 0
    for name, (header, integers, texts) in _TABLES.items():
        text = (trained / name).read_text(encoding="utf-8")
        assert text.endswith("\n")
        first, *rows = text[:-1].split("\n")
        assert first == header and rows
        columns = header.lstrip("# ").split(",")
        for row in rows:
            fields = row.split(",")
            assert len(fields) == len(columns)
            for column, field in zip(columns, fields):
                if column in integers:
                    assert field == str(int(field))
                elif column in texts:
                    assert field in ("x-update", "W-update")
                else:
                    assert field == format(float(field), ".17g")


def test_bench_rejects_high_rate(tmp_path):
    cfg = write_cfg(
        tmp_path / "bench.json", {"rates": [0.6], "hyperparams": {"d": 2}}
    )
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == 1


def test_end_to_end_clean_s_curve_recovery(tmp_path):
    synth_cfg = write_cfg(
        tmp_path / "synth.json", {"generator": "s_curve", "n": 250, "seed": 7}
    )
    data = tmp_path / "data"
    assert main(["synth", "--config", synth_cfg, "--out", str(data)]) == 0
    train_cfg = write_cfg(
        tmp_path / "train.json",
        {"manifest": str(data / "manifest.json"),
         "hyperparams": {"d": 3, "C1": 1e-4, "C2": 1e-4, "seed": 7}},
    )
    run = tmp_path / "run"
    assert main(["train", "--config", train_cfg, "--out", str(run)]) == 0
    eval_cfg = write_cfg(
        tmp_path / "eval.json",
        {"embedding": str(run / "embedding.csv"),
         "truth": str(data / "truth.csv")},
    )
    out = tmp_path / "metrics"
    assert main(["eval", "--config", eval_cfg, "--out", str(out)]) == 0
    metrics = modelio.load_json(out / "metrics.json")
    assert metrics["alignment_residual"] <= 0.05


def test_missing_config_file(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 1


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path / "s.json", {"generator": "s_curve", "n": 10})
    proc = subprocess.run(
        [sys.executable, "-m", "intact", "synth", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "3 views" in proc.stdout


def test_import_loads_no_scipy():
    # scipy is imported where it is used (k-NN), not by `import intact`
    code = (
        "import sys, intact.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_train_rejects_nan_gamma(tmp_path, synth_out, capsys):
    # json reads the bare token NaN as a float
    cfg = tmp_path / "nan_gamma.json"
    cfg.write_text(
        '{"manifest": "%s", "mode": "kernel", "kernel": {"kind": "rbf", "gamma": NaN},'
        ' "hyperparams": {"d": 3}}' % (synth_out / "manifest.json")
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "gamma" in capsys.readouterr().err


def test_train_rejects_a_linear_kernel_gamma(tmp_path, synth_out, capsys):
    cfg = write_cfg(
        tmp_path / "train.json",
        {"manifest": str(synth_out / "manifest.json"), "mode": "kernel",
         "kernel": {"kind": "linear", "gamma": 0.5}, "hyperparams": {"d": 2}},
    )
    assert_rejected(cfg, "train", tmp_path / "t", "gamma", capsys)


@pytest.mark.parametrize("command", ["embed", "eval", "probe"])
def test_model_views_checked_before_standardizing(tmp_path, trained, synth_out, command, capsys):
    # 3-column views against the 2-column views the model was trained on
    views = []
    for v in range(9):
        M = modelio.load_matrix_csv(synth_out / f"view_{v:02d}.csv")
        views.append(str(tmp_path / f"wide_{v}.csv"))
        modelio.save_matrix_csv(views[-1], np.hstack([M, M[:, :1]]))
    cfg = {"model": str(trained / "model.txt"), "views": views}
    if command == "eval":
        cfg.update(embedding=str(trained / "embedding.csv"),
                   truth=str(trained / "embedding.csv"))
    if command == "probe":
        cfg.update(n_probes=1)
    path = write_cfg(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "view 0 has 3 columns, model expects 2" in capsys.readouterr().err


def test_eval_rejects_wrong_view_count(tmp_path, trained, synth_out, capsys):
    cfg = write_cfg(
        tmp_path / "eval.json",
        {"embedding": str(trained / "embedding.csv"),
         "truth": str(trained / "embedding.csv"),
         "model": str(trained / "model.txt"),
         "views": [str(synth_out / "view_00.csv")]},
    )
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "m")]) == 1
    assert "got 1 view files, model expects 9" in capsys.readouterr().err


def test_synth_rejects_noise_seed(tmp_path, capsys):
    # the noise streams always derive from the synth seed
    cfg = write_cfg(
        tmp_path / "s.json",
        {"generator": "s_curve", "n": 30, "seed": 1,
         "noise": {"snr_db": 15.0, "seed": 2}},
    )
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
    assert "seed" in capsys.readouterr().err


def test_bench_rejects_zero_seeds(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "bench.json",
        {"rates": [0.0], "n": 20, "n_seeds": 0, "hyperparams": {"d": 2}},
    )
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert "n_seeds" in capsys.readouterr().err
    assert not (tmp_path / "b" / "bench.csv").exists()


@pytest.mark.parametrize("frac", [0, -0.5, 1])
def test_eval_rejects_train_fraction_outside_unit_interval(tmp_path, frac, capsys):
    emb = tmp_path / "emb.csv"
    modelio.save_matrix_csv(emb, np.arange(20.0).reshape(10, 2))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{i % 2}\n" for i in range(10)))
    cfg = write_cfg(
        tmp_path / "eval.json",
        {"embedding": str(emb), "labels": str(labels), "k": 1, "train_fraction": frac},
    )
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "e")]) == 1
    assert "train_fraction" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("max_outer", 3.0), ("seed", 1.0)])
def test_train_rejects_float_integer_hyperparams(tmp_path, synth_out, capsys, key, value):
    cfg = write_cfg(
        tmp_path / "bad.json",
        {"manifest": str(synth_out / "manifest.json"),
         "hyperparams": {"d": 3, key: value}},
    )
    out = tmp_path / "x"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not (out / "model.txt").exists()


@pytest.mark.parametrize("snr", [float("nan"), float("-inf")])
def test_synth_rejects_nan_and_negative_infinite_snr(tmp_path, capsys, snr):
    cfg = write_cfg(
        tmp_path / "s.json",
        {"generator": "s_curve", "n": 30, "seed": 1, "noise": {"snr_db": snr}},
    )
    out = tmp_path / "s"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 1
    assert "snr_db" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_probes", [0, -3])
def test_probe_rejects_non_positive_n_probes(tmp_path, trained, synth_out, capsys, n_probes):
    cfg = write_cfg(
        tmp_path / "probe.json",
        {"model": str(trained / "model.txt"),
         "manifest": str(synth_out / "manifest.json"), "n_probes": n_probes},
    )
    out = tmp_path / "probe"
    assert main(["probe", "--config", cfg, "--out", str(out)]) == 1
    assert "n_probes" in capsys.readouterr().err
    assert not (out / "probes.csv").exists()


def assert_rejected(cfg, command, out, key, capsys):
    """The command exits 1 with one `error:` line naming the key, and
    writes nothing."""
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, patch",
    [("n", {"n": 40.7}), ("seed", {"seed": 1.9}), ("n", {"n": True}),
     ("copies_per_base", {"noise": {"snr_db": 20.0, "copies_per_base": 2.6}})],
)
def test_synth_rejects_non_integral_integer_keys(tmp_path, capsys, key, patch):
    cfg = write_cfg(tmp_path / "s.json", {"generator": "s_curve", "n": 40, "seed": 1, **patch})
    assert_rejected(cfg, "synth", tmp_path / "s", key, capsys)


@pytest.mark.parametrize("key, value", [("k", 2.5), ("seed", 1.5)])
def test_eval_rejects_non_integral_integer_keys(tmp_path, capsys, key, value):
    emb = tmp_path / "emb.csv"
    modelio.save_matrix_csv(emb, np.arange(20.0).reshape(10, 2))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{i % 2}\n" for i in range(10)))
    cfg = write_cfg(
        tmp_path / "eval.json",
        {"embedding": str(emb), "labels": str(labels), key: value},
    )
    assert_rejected(cfg, "eval", tmp_path / "e", key, capsys)


@pytest.mark.parametrize("key, value", [("n_probes", 2.5), ("seed", 0.5)])
def test_probe_rejects_non_integral_integer_keys(tmp_path, trained, synth_out, capsys, key, value):
    cfg = write_cfg(
        tmp_path / "probe.json",
        {"model": str(trained / "model.txt"),
         "manifest": str(synth_out / "manifest.json"), "n_probes": 2, key: value},
    )
    assert_rejected(cfg, "probe", tmp_path / "probe", key, capsys)


@pytest.mark.parametrize(
    "key, patch",
    [("n", {"n": 60.5}), ("n_seeds", {"n_seeds": 1.5}),
     ("view_dims[1]", {"view_dims": [4, 4.5]})],
)
def test_bench_rejects_non_integral_integer_keys(tmp_path, capsys, key, patch):
    cfg = write_cfg(
        tmp_path / "bench.json",
        {"rates": [0.0], "n": 40, "view_dims": [4, 4], "n_seeds": 1,
         "hyperparams": {"d": 2}, **patch},
    )
    assert_rejected(cfg, "bench", tmp_path / "b", key, capsys)


def assert_wrong_type_rejected(cfg, command, out, where, key, capsys):
    """The command exits 1 with one `error:` line naming the section and
    the key, no traceback, and writes nothing."""
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {where}: {key} must be a JSON ")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("view_dims", 4), ("rates", 0.3), ("hyperparams", [1]), ("hyperparams", "d=2")],
)
def test_bench_rejects_config_values_of_the_wrong_json_type(tmp_path, capsys, key, value):
    cfg = write_cfg(
        tmp_path / "bench.json",
        {"rates": [0.0], "n": 40, "view_dims": [4, 4], "n_seeds": 1,
         "hyperparams": {"d": 2}, key: value},
    )
    assert_wrong_type_rejected(cfg, "bench", tmp_path / "b", "bench", key, capsys)


@pytest.mark.parametrize("value", [5, [20.0]])
def test_synth_rejects_a_noise_value_that_is_not_an_object(tmp_path, capsys, value):
    cfg = write_cfg(tmp_path / "s.json", {"generator": "s_curve", "n": 40, "noise": value})
    assert_wrong_type_rejected(cfg, "synth", tmp_path / "s", "synth", "noise", capsys)


@pytest.mark.parametrize(
    "key, patch",
    [("hyperparams", {"hyperparams": 3}), ("kernel", {"kernel": 3}),
     ("kernel", {"mode": "kernel", "kernel": "rbf"})],
)
def test_train_rejects_config_values_of_the_wrong_json_type(tmp_path, synth_out, capsys, key, patch):
    cfg = write_cfg(
        tmp_path / "train.json",
        {"manifest": str(synth_out / "manifest.json"), "hyperparams": {"d": 2}, **patch},
    )
    assert_wrong_type_rejected(cfg, "train", tmp_path / "t", "train", key, capsys)


def test_probe_rejects_taus_that_are_not_a_list(tmp_path, trained, synth_out, capsys):
    cfg = write_cfg(
        tmp_path / "probe.json",
        {"model": str(trained / "model.txt"),
         "manifest": str(synth_out / "manifest.json"), "n_probes": 2, "taus": 0.1},
    )
    assert_wrong_type_rejected(cfg, "probe", tmp_path / "p", "probe", "taus", capsys)


def test_train_reports_extrapolations(tmp_path, synth_out, capsys):
    """The summary line counts accepted extrapolations before `stop=`."""
    counts = {}
    for mode in ("linear", "kernel"):
        cfg = write_cfg(
            tmp_path / f"{mode}.json",
            {"manifest": str(synth_out / "manifest.json"), "mode": mode,
             "hyperparams": {"d": 3, "C1": 1e-4, "C2": 1e-4, "seed": 5}},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path / mode)]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.endswith("extrapolations, stop=objective_tol")
        counts[mode] = int(summary.split(", ")[-2].split()[0])
    assert counts["linear"] == 0 and counts["kernel"] >= 1


def assert_non_number_rejected(cfg, command, out, where, key, capsys):
    """The command exits 1 with one `error:` line naming the section and
    the key, no traceback, and writes nothing."""
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {where}: {key} must be a number")
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("magnitude", [1]), ("magnitude", "10"), ("noise_sigma", {"s": 0.1}),
     ("rates", [0.1, [0.2]]), ("rates", [True])],
)
def test_bench_rejects_float_keys_that_are_not_numbers(tmp_path, capsys, key, value):
    cfg = write_cfg(
        tmp_path / "bench.json",
        {"rates": [0.0], "n": 40, "view_dims": [4, 4], "n_seeds": 1,
         "hyperparams": {"d": 2}, key: value},
    )
    where = f"{key}[{len(value) - 1}]" if key == "rates" else key
    assert_non_number_rejected(cfg, "bench", tmp_path / "b", "bench", where, capsys)


@pytest.mark.parametrize(
    "key, noise",
    [("snr_db", {"snr_db": [20.0]}),
     ("window_fraction", {"snr_db": 20.0, "window_fraction": {"w": 0.3}})],
)
def test_synth_rejects_noise_keys_that_are_not_numbers(tmp_path, capsys, key, noise):
    cfg = write_cfg(tmp_path / "s.json", {"generator": "s_curve", "n": 40, "noise": noise})
    assert_non_number_rejected(cfg, "synth", tmp_path / "s", "synth.noise", key, capsys)


def test_eval_rejects_a_train_fraction_that_is_not_a_number(tmp_path, capsys):
    emb = tmp_path / "emb.csv"
    modelio.save_matrix_csv(emb, np.arange(20.0).reshape(10, 2))
    labels = tmp_path / "labels.txt"
    labels.write_text("".join(f"{i % 2}\n" for i in range(10)))
    cfg = write_cfg(
        tmp_path / "eval.json",
        {"embedding": str(emb), "labels": str(labels), "train_fraction": [0.5]},
    )
    assert_non_number_rejected(cfg, "eval", tmp_path / "e", "eval", "train_fraction", capsys)


def test_train_rejects_a_gamma_that_is_not_a_number(tmp_path, synth_out, capsys):
    cfg = write_cfg(
        tmp_path / "train.json",
        {"manifest": str(synth_out / "manifest.json"), "mode": "kernel",
         "kernel": {"kind": "rbf", "gamma": [1.0]}, "hyperparams": {"d": 2}},
    )
    assert_non_number_rejected(cfg, "train", tmp_path / "t", "train.kernel", "gamma", capsys)


def test_probe_rejects_taus_that_are_not_numbers(tmp_path, trained, synth_out, capsys):
    cfg = write_cfg(
        tmp_path / "probe.json",
        {"model": str(trained / "model.txt"),
         "manifest": str(synth_out / "manifest.json"), "n_probes": 2,
         "taus": [0.1, {"t": 0.2}]},
    )
    assert_non_number_rejected(cfg, "probe", tmp_path / "p", "probe", "taus[1]", capsys)


def test_unknown_command_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "s.json", {"generator": "s_curve", "n": 10})
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "invalid choice: 'fit'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_lists_every_command():
    proc = subprocess.run(
        [sys.executable, "-m", "intact", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "{synth,train,embed,eval,probe,bench}" in proc.stdout


@pytest.mark.parametrize("command", ["train", "embed", "eval", "probe"])
@pytest.mark.parametrize("manifest, patch", [
    ({"seed": 5}, {}),
    (["view_00.csv"], {}),
    ({"views": [1, 2]}, {}),
    ({"views": "abc"}, {}),
    (None, {"views": [1, 2]}),
    (None, {"views": "abc"}),
    (None, {"views": {"0": "view_00.csv"}}),
], ids=["manifest-without-views", "manifest-array", "manifest-numbers",
        "manifest-string", "numbers", "string", "object"])
def test_view_lists_that_are_not_file_name_arrays_are_rejected(
        tmp_path, capsys, command, manifest, patch):
    emb = tmp_path / "emb.csv"
    modelio.save_matrix_csv(emb, np.zeros((4, 2)))
    cfg = {
        "train": {"hyperparams": {"d": 2}},
        "embed": {"model": str(tmp_path / "model.txt")},
        "eval": {"embedding": str(emb), "truth": str(emb),
                 "model": str(tmp_path / "model.txt")},
        "probe": {"model": str(tmp_path / "model.txt")},
    }[command]
    if manifest is not None:
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        cfg["manifest"] = str(tmp_path / "manifest.json")
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "cfg.json", {**cfg, **patch})
    assert main([command, "--config", path, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {command}") and "views" in lines[0]
    assert not out.exists()


def test_bench_rejects_an_empty_rate_list(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "bench.json",
        {"rates": [], "n": 20, "n_seeds": 1, "hyperparams": {"d": 2}},
    )
    assert_rejected(cfg, "bench", tmp_path / "b", "rates", capsys)


@pytest.fixture()
def rbf_trained(tmp_path, synth_out):
    cfg = write_cfg(
        tmp_path / "train_rbf.json",
        {"manifest": str(synth_out / "manifest.json"), "mode": "kernel",
         "kernel": {"kind": "rbf"},
         "hyperparams": {"d": 3, "C1": 1e-3, "C2": 1e-3, "seed": 5, "max_outer": 20}},
    )
    out = tmp_path / "rbf"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return out


def _kernel_eval_cfg(tmp_path, model, synth_out):
    return write_cfg(
        tmp_path / "eval_rbf.json",
        {"embedding": str(synth_out / "truth.csv"), "truth": str(synth_out / "truth.csv"),
         "model": str(model), "manifest": str(synth_out / "manifest.json")},
    )


def test_eval_on_a_kernel_model_reports_alignment_only(tmp_path, rbf_trained, synth_out):
    # documented gate: reconstruction_error is computed for linear models only
    out = tmp_path / "m"
    cfg = _kernel_eval_cfg(tmp_path, rbf_trained / "model.txt", synth_out)
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    metrics = modelio.load_json(out / "metrics.json")
    assert "alignment_residual" in metrics and "reconstruction_error" not in metrics


def test_eval_validates_the_kernel_model_it_loads(tmp_path, rbf_trained, synth_out, capsys):
    lines = (rbf_trained / "model.txt").read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("A 1 ")) + 2
    parts = lines[i].split()
    lines[i] = " ".join([parts[0], "abc", *parts[2:]])
    bad = tmp_path / "bad_model.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "m"
    cfg = _kernel_eval_cfg(tmp_path, bad, synth_out)
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"line {i + 1}" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, key", [
    ("synth", "xyz_path"), ("train", "manifest"), ("embed", "model"), ("embed", "manifest"),
    ("eval", "embedding"), ("eval", "truth"), ("eval", "labels"), ("eval", "model"),
    ("eval", "manifest"), ("probe", "model"), ("probe", "manifest"),
])
def test_path_keys_that_are_not_strings_are_rejected(tmp_path, capsys, command, key):
    emb = tmp_path / "emb.csv"
    modelio.save_matrix_csv(emb, np.zeros((4, 2)))
    model, manifest = str(tmp_path / "model.txt"), str(tmp_path / "manifest.json")
    cfg = {
        "synth": {"generator": "xyz"},
        "train": {"hyperparams": {"d": 2}},
        "embed": {"model": model, "manifest": manifest},
        "eval": {"embedding": str(emb), "truth": str(emb), "model": model,
                 "manifest": manifest},
        "probe": {"model": model, "manifest": manifest},
    }[command]
    out = tmp_path / "out"
    path = write_cfg(tmp_path / "cfg.json", {**cfg, key: 5})
    assert main([command, "--config", path, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {command}: {key} must be a ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["no", 0])
def test_train_rejects_a_standardize_that_is_not_a_boolean(tmp_path, synth_out, capsys, value):
    cfg = write_cfg(
        tmp_path / "train.json",
        {"manifest": str(synth_out / "manifest.json"), "standardize": value,
         "hyperparams": {"d": 2}},
    )
    assert_rejected(cfg, "train", tmp_path / "t", "standardize", capsys)


def test_bench_hyperparams_seed_is_the_base_seed_without_a_seed_flag(tmp_path):
    base = {"rates": [0.1], "n": 40, "view_dims": [4, 4], "n_seeds": 2}
    seeded = write_cfg(tmp_path / "seeded.json", {**base, "hyperparams": {"d": 2, "seed": 7}})
    plain = write_cfg(tmp_path / "plain.json", {**base, "hyperparams": {"d": 2}})
    assert main(["bench", "--config", seeded, "--out", str(tmp_path / "a")]) == 0
    assert main(["bench", "--config", plain, "--out", str(tmp_path / "b"), "--seed", "7"]) == 0
    assert main(["bench", "--config", plain, "--out", str(tmp_path / "c")]) == 0
    a, b, c = ((tmp_path / d / "bench.csv").read_bytes() for d in "abc")
    assert a == b and a != c


def test_bench_rejects_hyperparams_without_d(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "bench.json",
        {"rates": [0.0], "n": 20, "n_seeds": 1, "hyperparams": {}},
    )
    assert_rejected(cfg, "bench", tmp_path / "b", "bench.hyperparams: missing required key 'd'",
                    capsys)


def test_probe_rejects_an_empty_tau_list(tmp_path, trained, synth_out, capsys):
    cfg = write_cfg(
        tmp_path / "probe.json",
        {"model": str(trained / "model.txt"),
         "manifest": str(synth_out / "manifest.json"), "n_probes": 2, "taus": []},
    )
    assert_rejected(cfg, "probe", tmp_path / "probe", "taus", capsys)


@pytest.mark.parametrize("command", ["train", "bench"])
def test_hyperparams_errors_name_their_section(tmp_path, synth_out, capsys, command):
    given = {
        "train": {"manifest": str(synth_out / "manifest.json")},
        "bench": {"rates": [0.0], "n": 20, "n_seeds": 1},
    }[command]
    cfg = write_cfg(tmp_path / "cfg.json", {**given, "hyperparams": {"d": 2.0}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {command}.hyperparams: d must be an integer, got 2.0\n"
    assert not (tmp_path / "out").exists()


def test_eval_rejects_a_model_without_views(tmp_path, trained, capsys):
    cfg = write_cfg(
        tmp_path / "eval.json",
        {"embedding": str(trained / "embedding.csv"),
         "truth": str(trained / "embedding.csv"),
         "model": str(tmp_path / "nonexistent" / "model.txt")},
    )
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err == "error: eval: 'model' needs 'views' or 'manifest'\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("key, value", [("views", ["nonexistent.csv"]),
                                        ("manifest", "nonexistent/manifest.json")])
def test_eval_rejects_views_without_a_model(tmp_path, trained, capsys, key, value):
    cfg = write_cfg(
        tmp_path / "eval.json",
        {"embedding": str(trained / "embedding.csv"),
         "truth": str(trained / "embedding.csv"), key: value},
    )
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err == f"error: eval: '{key}' needs 'model'\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("patch", [
    {"kernel": {"kind": "bogus"}},
    {"mode": "linear", "kernel": {"kind": "rbf", "gamma": 0.5}},
    {"mode": "linear", "kernel": {}},
], ids=["bogus-kind", "rbf", "empty"])
def test_train_rejects_a_kernel_section_in_linear_mode(tmp_path, synth_out, capsys, patch):
    cfg = write_cfg(
        tmp_path / "train.json",
        {"manifest": str(synth_out / "manifest.json"), "hyperparams": {"d": 2}, **patch},
    )
    out = tmp_path / "t"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == 'error: train: \'kernel\' needs "mode": "kernel"\n'
    assert not out.exists()


@pytest.mark.parametrize("patch", [{}, {"kernel": None}], ids=["absent", "null"])
def test_train_kernel_mode_without_a_kernel_section_takes_its_defaults(tmp_path, synth_out,
                                                                        patch):
    cfg = write_cfg(
        tmp_path / "train.json",
        {"manifest": str(synth_out / "manifest.json"), "mode": "kernel",
         "hyperparams": {"d": 2, "max_outer": 2}, **patch},
    )
    out = tmp_path / "t"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert "kernel rbf" in (out / "model.txt").read_text().splitlines()


def test_eval_says_when_it_skips_reconstruction_error(tmp_path, rbf_trained, trained,
                                                      synth_out, capsys):
    cfg = _kernel_eval_cfg(tmp_path, rbf_trained / "model.txt", synth_out)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "k")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("note: reconstruction_error is computed for linear models "
                            "only; skipped for this kernel model\n")
    assert captured.out.startswith("alignment_residual = ")
    assert len(captured.out.splitlines()) == 1

    cfg = _kernel_eval_cfg(tmp_path, trained / "model.txt", synth_out)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "l")]) == 0
    assert capsys.readouterr().err == ""
