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
