#!/usr/bin/env python3
"""North-star fits, timed end to end: writes BENCH_<pr>.json.

    python3 scripts/bench_perf.py --pr N [--repeats 3]

Run from anywhere in a source checkout; `intact` is imported from its
`src/`. Each row fits the README S-curve config (9 views at 20 dB,
d = 3, C1 = C2 = 1e-4, seed 0): linear at n = 500 / 5k / 20k, rbf
(median-heuristic gamma) at n = 300 / 1000. Every row runs in its own
child process at one BLAS thread, so its peak RSS is that row's own.

The child generates and standardizes the views (not timed), then fits
them --repeats times. Each fit is timed between two runs of the
benchmark's host reference (perfbench/hostspeed.py) and scaled by
NOMINAL_S over their mean, as the benchmark scales its commands. A row
records the median of the scaled times, the median raw time, the peak
RSS, and the fit's outer iterations, stop reason, final objective and
affine-alignment residual against the sampled S-curve points. A linear
row also records `embed_s`: `embed_examples` of the training views
through the fitted model, every latent from zero, timed and scaled the
same way.
"""

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import intact  # noqa: E402

ROWS = [("linear", 500), ("linear", 5000), ("linear", 20000), ("rbf", 300), ("rbf", 1000)]
SEED = 0
HP = intact.Hyperparams(d=3, C1=1e-4, C2=1e-4, seed=SEED)
CHILD_TIMEOUT_S = 600


def readme_s_curve(n):
    """The README S-curve's sampled points and its standardized 9 views
    at 20 dB (3 noisy copies of each coordinate-plane projection)."""
    points = intact.gen_s_curve(n, seed=SEED)
    base = intact.project_to_planes(points)
    views = intact.make_noisy_views(base, intact.NoiseSpec(20.0, 0.3, 3, SEED))
    return points, intact.standardize_views(intact.validate_dataset(views))[0]


def timed(call, repeats, reference):
    """Median host-normalized and median raw seconds of `call` over
    `repeats` runs, and its last result."""
    raw, scaled = [], []
    for _ in range(repeats):
        result = None  # free the last run's model before the next run's peak
        before = reference()
        t = time.perf_counter()
        result = call()
        raw.append(time.perf_counter() - t)
        after = reference()
        scaled.append(raw[-1] * hostspeed.NOMINAL_S / (0.5 * (before + after)))
    return statistics.median(scaled), statistics.median(raw), result


def measure(kind, n, repeats):
    """One row, in this process: timings and the fit's result, and for a
    linear row the time to embed the training views through the model."""
    points, ds = readme_s_curve(n)
    reference = hostspeed.Reference()
    if kind == "linear":
        run = functools.partial(intact.fit, ds, HP)
    else:
        run = functools.partial(intact.kernel_fit, ds, HP, intact.KernelSpec(kind))
    wall_s, raw_wall_s, (model, emb, hist) = timed(run, repeats, reference)
    row = {
        "kind": kind,
        "n": n,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outer_iterations": len(hist.inner_iterations) - 1,
        "stop_reason": hist.stop_reason,
        "final_objective": float(hist.values()[-1]),
        "alignment_residual": float(intact.align_to_truth(emb.X, points).relative_residual),
    }
    if kind == "linear":
        run = functools.partial(intact.embed_examples, ds.views, model)
        row["embed_s"] = timed(run, repeats, reference)[0]
    return row


def run_row(kind, n, repeats):
    """One row, measured in a child process of its own, with BLAS pinned
    to one thread before the child loads numpy."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, "--row", kind, str(n), "--repeats", str(repeats)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, env=env,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, help="write BENCH_<pr>.json at the checkout's root")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--row", nargs=2, metavar=("KIND", "N"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.row:
        print(json.dumps(measure(args.row[0], int(args.row[1]), args.repeats)))
        return 0
    if args.pr is None:
        ap.error("--pr is required")
    rows = []
    for kind, n in ROWS:
        rows.append(run_row(kind, n, args.repeats))
        print(json.dumps(rows[-1]), flush=True)
    result = {
        "config": "README S-curve: 9 views at 20 dB, d = 3, C1 = C2 = 1e-4, seed 0",
        "repeats": args.repeats,
        "blas_threads": 1,
        "numpy": np.__version__,
        "host_reference_nominal_s": hostspeed.NOMINAL_S,
        "rows": rows,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
