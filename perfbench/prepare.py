"""Set-up child: one timed preparation of a workload's inputs.

    python3 perfbench/prepare.py --workload NAME --seed N --work DIR [--scale F]

Times, from inside a fresh interpreter (so interpreter start-up is not
counted), the `intact`/numpy/scipy imports plus every `intact synth`
command and label file of every input set of the workload. Prints
{"setup_s": ...} as its last line; `run.py` starts it several times and
reports the median.
"""

import sys
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from intact.cli import main as intact_main  # noqa: E402

from workloads import VARIANTS, WORKLOADS, Layout, label_rule, write_config  # noqa: E402


def prepare(layout: Layout) -> None:
    for i, (cfg, out) in enumerate(layout.synth_configs()):
        path = write_config(layout.work / "config" / f"synth-v{layout.variant}-{i}.json", cfg)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = intact_main(["synth", "--config", path, "--out", str(out)])
        if rc != 0:
            raise SystemExit(f"intact synth failed for {out}")
    if layout.wl.labels:
        truth = np.loadtxt(layout.embed_set / "truth.csv", delimiter=",", comments="#")
        layout.labels.write_text("\n".join(label_rule(truth)) + "\n", encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    if args.scale != 1.0:
        wl = wl.scaled(args.scale)
    for variant in range(VARIANTS):
        prepare(Layout(Path(args.work), wl, args.seed, variant))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
