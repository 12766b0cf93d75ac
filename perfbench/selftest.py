"""Self-tests of the benchmark: every workload at a tiny size, and every
output check failing on a corrupted output.

    python3 -m pytest perfbench/selftest.py -q

Run from the root of a checkout. The file is not named test_*.py so the
repository's own test run does not collect it.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from tracing import LAYER_METRICS
from workloads import WORKLOADS, Layout

SEED = 3
HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_spec_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert PER_LAYER == set(LAYER_METRICS) | {"trace.overhead_pct"}


def test_fixed_training_draws_ignore_the_seed():
    def synth_seeds(name, seed):
        layout = Layout(HERE, WORKLOADS[name], seed, 1)
        return [cfg["seed"] for cfg, _ in layout.synth_configs()]

    (train1, held1), (train2, held2) = synth_seeds("rbf-kernel", 1), synth_seeds("rbf-kernel", 2)
    assert train1 == train2 and held1 != held2
    assert synth_seeds("embed-knn", 1)[0] != synth_seeds("embed-knn", 2)[0]


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_at_tiny_size(workload):
    res, _ = run_tiny(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 4
    assert set(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload,busy", [
    ("scurve-linear", "optimizer.latent_sweep_s"),
    ("rbf-kernel", "kernel.gram_s"),
    ("embed-knn", "evaluate.knn_s"),
    ("robust-ablation", "evaluate.robustness_s"),
])
def test_traced_run_reports_layers(workload, busy):
    res, out = run_tiny(workload, 1)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == PER_LAYER
    assert res["metrics"][busy]["value"] > 0
    assert "absent spans: none" in out


# ---------------------------------------------------------------------------
# corrupted outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["embed-knn", "rbf-kernel"])
def outputs(request):
    run_tiny(request.param, 0)
    work = HERE.parent / ".perfbench_runs" / f"{request.param}-trace0"
    layout = Layout(work, WORKLOADS[request.param], SEED, 0)
    r1 = work / "r0"
    embed_set = layout.embed_set
    return {
        "seed": layout.seed,
        "model": checks.read_model(r1 / "fit" / "model.txt"),
        "train": checks.read_views(layout.train / "manifest.json"),
        "X_fit": checks.read_matrix(r1 / "fit" / "embedding.csv"),
        "hist": checks.read_history(r1 / "fit" / "history.csv"),
        "rows": checks.read_views(embed_set / "manifest.json"),
        "X_emb": checks.read_matrix(r1 / "embed" / "embedding.csv"),
        "truth": checks.read_matrix(embed_set / "truth.csv"),
        "metrics": json.loads((r1 / "eval" / "metrics.json").read_text()),
        "labels_path": embed_set / "labels.txt",
        "bench": checks.read_bench(r1 / "bench" / "bench.csv"),
    }


def test_unchanged_outputs_pass(outputs):
    o = outputs
    checks.check_training_fit(o["model"], o["train"], o["X_fit"], o["hist"])
    checks.check_optimality(o["model"], o["rows"], o["X_emb"])
    checks.check_alignment(o["X_emb"], o["truth"], o["metrics"]["alignment_residual"])


def test_shifted_training_row_fails(outputs):
    o = outputs
    X = o["X_fit"].copy()
    X[5] += 0.05
    with pytest.raises(checks.CheckFailed, match="objective"):
        checks.check_training_fit(o["model"], o["train"], X, o["hist"])
    with pytest.raises(checks.CheckFailed, match="re-embedding"):
        checks.check_reembed(o["X_fit"], X)


def test_shifted_embedded_row_fails(outputs):
    o = outputs
    X = o["X_emb"].copy()
    X[2] += 0.05
    with pytest.raises(checks.CheckFailed, match="gradient"):
        checks.check_optimality(o["model"], o["rows"], X)
    with pytest.raises(checks.CheckFailed, match="alignment"):
        checks.check_alignment(X, o["truth"], o["metrics"]["alignment_residual"])


def test_rescaled_map_fails(outputs):
    o = outputs
    m = o["model"]
    scaled = checks.Model(**{**m.__dict__, "W": [1.1 * W for W in m.W],
                             "A": [1.1 * A for A in m.A]})
    with pytest.raises(checks.CheckFailed, match="objective"):
        checks.check_training_fit(scaled, o["train"], o["X_fit"], o["hist"])
    with pytest.raises(checks.CheckFailed, match="gradient"):
        checks.check_optimality(scaled, o["rows"], o["X_emb"])


def test_flipped_label_fails(outputs):
    o = outputs
    if "knn_accuracy" not in o["metrics"]:
        pytest.skip("workload has no labels")
    labels = checks.read_labels(o["labels_path"])
    checks.check_knn(o["X_emb"], labels, o["seed"], o["metrics"]["knn_accuracy"])
    # flip the first test-split label whose row the 3-NN vote gets right
    test_rows = np.random.default_rng(o["seed"]).permutation(len(labels))[len(labels) // 2:]
    for row in test_rows:
        flipped = labels.copy()
        flipped[row] = "9"
        if checks.knn_accuracy(o["X_emb"], flipped, o["seed"]) != o["metrics"]["knn_accuracy"]:
            labels = flipped
            break
    with pytest.raises(checks.CheckFailed, match="k-NN"):
        checks.check_knn(o["X_emb"], labels, o["seed"], o["metrics"]["knn_accuracy"])


def test_rising_history_fails(outputs):
    hist = outputs["hist"].copy()
    hist[-1] = hist[-2] * (1 + 1e-6)
    with pytest.raises(checks.CheckFailed, match="rises"):
        checks.check_history(hist)


def test_bench_ratio_above_ceiling_fails(outputs):
    table = outputs["bench"].copy()
    checks.check_bench(table, list(table[:, 0]))
    table[-1, 3] = 0.6
    with pytest.raises(checks.CheckFailed, match="ratio"):
        checks.check_bench(table, list(table[:, 0]))
