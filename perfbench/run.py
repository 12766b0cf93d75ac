"""Benchmark of the `intact` CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `intact` is imported from its
`src/`. Set-up runs in child processes (see prepare.py). The timed part
then repeats whole rounds of `intact train`, `embed`, `eval` and `bench`,
each called in-process through `intact.cli.main`, cycling over the run's
input sets, until the next round would overrun --seconds. The first
round on each input set is checked against the benchmark's own
computations (checks.py); every later round must reproduce it byte for
byte. Each timing is the median of its samples.

--trace 0 prints the end-to-end metrics; --trace 1 runs each input set
untraced and then traced (tracing.py) and prints the per-layer metrics,
including the tracing overhead. The last stdout line is the JSON result.
"""

import os

# One compute thread per process: the CLI keeps its default --threads 1
# and BLAS is pinned before numpy loads. Children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import filecmp  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import VARIANTS, WORKLOADS, Layout, write_config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import `intact` from this checkout's src/ and nowhere else."""
    if not (SRC / "intact" / "__init__.py").is_file():
        _die(f"no intact sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import intact
    import intact.cli

    if Path(intact.__file__).resolve().parent != (SRC / "intact").resolve():
        _die(f"imported intact from {intact.__file__}, not from {SRC}")
    return intact.cli


def run_setup(wl_name, seed, work, scale, reference):
    """Start the set-up child SETUP_REPEATS times; returns the medians of its
    timings, raw and normalized by the reference computation run just
    before and just after each child."""
    raw, normalized = [], []
    cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", wl_name,
           "--seed", str(seed), "--work", str(work), "--scale", repr(scale)]
    for _ in range(SETUP_REPEATS):
        before = reference()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        after = reference()
        if proc.returncode != 0:
            _die(f"set-up failed:\n{proc.stderr}")
        raw.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        normalized.append(raw[-1] * hostspeed.NOMINAL_S / (0.5 * (before + after)))
    return statistics.median(raw), statistics.median(normalized)


class Runner:
    """Runs rounds of CLI commands in-process and counts operations."""

    def __init__(self, cli, layouts, reference):
        self.cli = cli
        self.layouts = layouts
        self.attempted = 0
        self.failed = 0
        self.reference = reference
        self.last_reference = reference()

    def command(self, name, cfg, out, extra, cfg_path):
        argv = [name, "--config", write_config(cfg_path, cfg), "--out", str(out), *extra]
        sink = io.StringIO()
        self.attempted += 1
        t = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = self.cli.main(argv)
            except Exception:  # a crash inside the program is a failed operation
                traceback.print_exc(file=sink)
                rc = "an exception"
        dt = time.perf_counter() - t
        if rc != 0:
            self.failed += 1
            print(f"perfbench: intact {name} failed (exit {rc}): {sink.getvalue().strip()}",
                  file=sys.stderr)
        return dt

    def round(self, layout, rdir, with_synth=False):
        """One round on one input set; returns [(command, seconds,
        host-normalized seconds)]. The reference computation runs between
        consecutive commands; a command's time is normalized by the mean
        of the references just before and just after it."""
        cmds = layout.round_commands(rdir)
        if with_synth:
            cmds = [("synth", cfg, rdir / "synth" / out.name, [])
                    for cfg, out in layout.synth_configs()] + cmds
        out = []
        for i, (name, cfg, odir, extra) in enumerate(cmds):
            dt = self.command(name, cfg, odir, extra, rdir / "config" / f"{i}-{name}.json")
            ref = self.reference()
            scale = hostspeed.NOMINAL_S / (0.5 * (self.last_reference + ref))
            self.last_reference = ref
            out.append((name, dt, dt * scale))
        return out


def _same_outputs(a: Path, b: Path) -> bool:
    """Byte-identical command outputs (configs name their own round)."""
    cmp = filecmp.dircmp(a, b, ignore=["config"])
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    if mismatch or errors:
        return False
    return all(_same_outputs(a / d, b / d) for d in cmp.common_dirs)


def timed_rounds(runner, work, seconds, trace):
    """Whole rounds until the next would overrun `seconds`, and at least
    one round per input set. Round r uses input set r % VARIANTS; the
    first round of each set keeps its outputs in r<set> for the checks,
    and every later round on that set must reproduce them byte for byte.

    With a tracer, rounds come in pairs on the same input set, untraced
    then traced (round r uses set (r // 2) % VARIANTS), and every round
    also re-runs synth, so each traced round repeats the work of the
    untraced round before it.
    """
    rounds_per_set = 2 if trace is not None else 1
    rounds = []          # (input set, traced, [(command, seconds, normalized)])
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        k = (len(rounds) // rounds_per_set) % VARIANTS
        traced = trace is not None and len(rounds) % 2 == 1
        first = work / f"r{k}"
        rdir = first if not first.exists() else work / "rn"
        if traced:
            trace.round = len(rounds)
            trace.install()
        try:
            times = runner.round(runner.layouts[k], rdir, with_synth=trace is not None)
        finally:
            if traced:
                trace.uninstall()
        if rdir != first and not _same_outputs(first, rdir):
            raise RuntimeError(f"round {len(rounds) + 1} outputs differ from its set's first round")
        rounds.append((k, traced, times))
        took = time.perf_counter() - t0
        overrun = time.perf_counter() - start + took > seconds
        whole = len(rounds) % rounds_per_set == 0
        if overrun and whole and len(rounds) >= rounds_per_set * VARIANTS:
            return rounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cli = _import_program()
    wl = WORKLOADS[args.workload]
    if args.scale != 1.0:
        wl = wl.scaled(args.scale)
    work = WORK_ROOT / f"{wl.name}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    layouts = [Layout(work, wl, args.seed, k) for k in range(VARIANTS)]

    reference = hostspeed.Reference()
    raw_setup_s, setup_s = run_setup(wl.name, args.seed, work, args.scale, reference)
    runner = Runner(cli, layouts, reference)
    tracer = tracing.Tracer() if args.trace else None
    try:
        rounds = timed_rounds(runner, work, args.seconds, tracer)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        rounds = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = rounds is not None
    quality = {}
    if correct:
        try:
            per_set = [verify(lay, work / f"r{lay.variant}", runner) for lay in layouts]
            quality = {name: statistics.median(q[name] for q in per_set) for name in per_set[0]}
        except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            correct = False

    metrics = {}
    if correct and args.trace:
        metrics = tracing.layer_metrics(tracer, [i for i, (_, tr, _) in enumerate(rounds) if tr])
        metrics["trace.overhead_pct"] = {"value": 100.0 * trace_overhead(rounds), "unit": "%"}
        tracer.dump(work / "trace.json")
        print(f"absent spans: {', '.join(tracer.absent) or 'none'}")
    elif correct:
        raw, normalized = {}, {}
        for _, _, times in rounds:
            for name, dt, norm in times:
                raw.setdefault(name, []).append(dt)
                normalized.setdefault(name, []).append(norm)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for name in ("train", "embed", "eval", "bench"):
            metrics[f"{name}_s"] = {"value": statistics.median(normalized[name]), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        for name, value in quality.items():
            metrics[name] = {"value": value, "unit": "1"}
        print(f"raw setup_s = {raw_setup_s:.6g} s (median of {SETUP_REPEATS})")
        for name, v in raw.items():
            print(f"raw {name}_s = {statistics.median(v):.6g} s (median of {len(v)}): "
                  + " ".join(f"{x:.4g}" for x in v))
    n_rounds = len(rounds) if rounds else 0
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"rounds = {n_rounds}, attempted = {runner.attempted}, failed = {runner.failed}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


def trace_overhead(rounds):
    """Per input set, the median traced round's host-normalized command
    time over the median untraced round's on the same set, minus 1;
    median over sets."""
    ratios = []
    for k in range(VARIANTS):
        base, traced = ([sum(norm for _, _, norm in t) for kk, tr, t in rounds
                         if kk == k and tr == want]
                        for want in (False, True))
        ratios.append(statistics.median(traced) / statistics.median(base) - 1.0)
    return statistics.median(ratios)


def verify(layout, r1, runner):
    """Every output check on one input set's first round; returns the
    quality metrics of that set."""
    wl = layout.wl
    model = checks.read_model(r1 / "fit" / "model.txt")
    train_raw = checks.read_views(layout.train / "manifest.json")
    X_fit = checks.read_matrix(r1 / "fit" / "embedding.csv")
    hist = checks.read_history(r1 / "fit" / "history.csv")
    objective = checks.check_training_fit(model, train_raw, X_fit, hist)

    # embedding the training rows through the saved model reproduces them
    if layout.heldout is None:
        again = r1 / "embed" / "embedding.csv"
    else:
        cfg = {"model": str(r1 / "fit" / "model.txt"),
               "manifest": str(layout.train / "manifest.json")}
        runner.command("embed", cfg, r1 / "reembed", [], r1 / "config" / "reembed.json")
        again = r1 / "reembed" / "embedding.csv"
    checks.check_reembed(X_fit, checks.read_matrix(again))

    emb_raw = checks.read_views(layout.embed_set / "manifest.json")
    X_emb = checks.read_matrix(r1 / "embed" / "embedding.csv")
    checks.check_optimality(model, emb_raw, X_emb)

    reported = json.loads((r1 / "eval" / "metrics.json").read_text(encoding="utf-8"))
    X_eval = X_emb if layout.heldout is not None else X_fit
    truth = checks.read_matrix(layout.embed_set / "truth.csv")
    alignment = checks.check_alignment(X_eval, truth, reported["alignment_residual"],
                                       wl.align_ceiling)
    if wl.labels:
        checks.check_knn(X_eval, checks.read_labels(layout.labels), layout.seed,
                         reported["knn_accuracy"])
    checks.check_bench(checks.read_bench(r1 / "bench" / "bench.csv"), wl.bench["rates"])

    # clean views: the three plane projections of the truth, one per copy
    planes = [truth[:, [0, 1]], truth[:, [0, 2]], truth[:, [1, 2]]]
    copies = model.m // len(planes)
    clean = [planes[v // copies] for v in range(model.m)]
    robust = checks.clean_view_residual(model, clean, X_eval)
    return {"final_objective": objective, "alignment_residual": alignment,
            "robust_residual": robust}


if __name__ == "__main__":
    main()
