"""Workload definitions: inputs, command configs and sizes.

Every workload runs the documented pipeline. Set-up synthesizes the
inputs with `intact synth` (and writes labels); each timed round then runs
`intact train`, `intact embed`, `intact eval` and `intact bench`, so every
workload reports every end-to-end metric. The sizes decide which layer
dominates a workload.

A run draws VARIANTS input sets from its seed and round r uses set
r % VARIANTS, so that timings and quality figures are medians over several
draws rather than one. A workload with fixed_train keeps the same training
draws whatever the seed; its held-out rows still come from the seed. This module imports nothing heavy, so the set-up
child times the `intact`/numpy/scipy imports itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

VARIANTS = 4
HELDOUT_SEED_OFFSET = 7919   # held-out S-curve seed = input-set seed + this
FIXED_TRAIN_SEED = 1000      # training seed of set k is this + k where the draw is fixed
NOISE = {"snr_db": 20.0, "window_fraction": 0.3, "copies_per_base": 3}
HYPERPARAMS = {"d": 3, "C1": 1e-4, "C2": 1e-4, "seed": 0}
RBF = {"kind": "rbf", "gamma": None}
BENCH_SMALL = {"rates": [0.3], "n_seeds": 1}
BENCH_FULL = {"rates": [0.0, 0.1, 0.2, 0.3], "n_seeds": 1}
KNN = {"k": 3, "train_fraction": 0.5}
ALIGN_CEILING = 0.15         # S-curve recovery ceiling of acceptance test 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str                 # "linear" or "kernel"
    n_train: int
    n_heldout: int            # 0: embed and evaluate the training rows
    labels: bool              # eval also scores 3-NN on the embedded rows
    bench: dict
    align_ceiling: Optional[float] = None
    repeats: int = 1          # samples of embed and eval per round (short commands)
    # The training draws do not depend on --seed; held-out rows still do.
    # rbf-kernel: the affine alignment of a kernel embedding to the truth
    # varies with the 100-row training draw by a CV of about 0.2, which no
    # affordable number of draws per run averages out.
    fixed_train: bool = False

    def scaled(self, factor: float) -> "Workload":
        """The same workload at a fraction of its size (self-tests)."""
        return replace(
            self,
            n_train=max(60, int(self.n_train * factor)),
            n_heldout=max(60, int(self.n_heldout * factor)) if self.n_heldout else 0,
            bench={**self.bench, "n": 60,
                   "hyperparams": {**HYPERPARAMS, "C1": 1e-3, "C2": 1e-3, "max_outer": 20}},
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scurve-linear",
            "README S-curve config (9 views, 20 dB), linear train on 1000 rows: "
            "the latent sweep dominates; kernel and k-NN code stay idle",
            "linear", 1000, 0, False, BENCH_SMALL, align_ceiling=ALIGN_CEILING, repeats=3,
        ),
        Workload(
            "rbf-kernel",
            "same generator, rbf median-heuristic kernel train on fixed 100-row "
            "draws, embed of 1000 held-out rows: atom sweep, stacks and kernel "
            "objective take over half of a round; Grams stay small",
            "kernel", 100, 1000, False, BENCH_SMALL, repeats=3, fixed_train=True,
        ),
        Workload(
            "embed-knn",
            "a 200-row model embeds 6000 held-out rows cold from zero, then 3-NN "
            "eval: dense k-NN and CSV I/O take nearly half of a round, the 200-row "
            "train and bench fits the rest",
            "linear", 200, 6000, True, BENCH_SMALL, align_ceiling=ALIGN_CEILING,
        ),
        Workload(
            "robust-ablation",
            "intact bench, Cauchy vs L2 on planted 3x6-dim data at contamination "
            "0 to 0.3: many small fits where per-call overhead sets the time",
            "linear", 500, 0, False, BENCH_FULL, repeats=3,
        ),
    )
}


class Layout:
    """Where one run keeps the inputs of one input set (variant)."""

    def __init__(self, work: Path, wl: Workload, seed: int, variant: int):
        self.work = work
        self.wl = wl
        self.variant = variant
        self.seed = seed * VARIANTS + variant      # distinct for every (seed, variant)
        data = work / "data" / f"v{variant}"
        self.train = data / "train"
        self.heldout = data / "heldout" if wl.n_heldout else None

    @property
    def embed_set(self) -> Path:
        return self.heldout or self.train

    @property
    def labels(self) -> Path:
        return self.embed_set / "labels.txt"

    def synth_configs(self):
        """(config, out dir) of each `intact synth` set-up command."""
        train_seed = FIXED_TRAIN_SEED + self.variant if self.wl.fixed_train else self.seed
        out = [({"generator": "s_curve", "n": self.wl.n_train, "seed": train_seed,
                 "noise": NOISE}, self.train)]
        if self.heldout:
            out.append(({"generator": "s_curve", "n": self.wl.n_heldout,
                         "seed": self.seed + HELDOUT_SEED_OFFSET, "noise": NOISE},
                        self.heldout))
        return out

    def round_commands(self, rdir: Path):
        """(command, config, extra args) of one timed round, outputs in rdir."""
        wl = self.wl
        train = {"manifest": str(self.train / "manifest.json"), "mode": wl.mode,
                 "standardize": True, "hyperparams": HYPERPARAMS}
        if wl.mode == "kernel":
            train["kernel"] = RBF
        model = str(rdir / "fit" / "model.txt")
        embed = {"model": model, "manifest": str(self.embed_set / "manifest.json")}
        evaluated = rdir / "embed" / "embedding.csv" if self.heldout else rdir / "fit" / "embedding.csv"
        ev = {"embedding": str(evaluated), "truth": str(self.embed_set / "truth.csv"),
              "model": model, "manifest": str(self.embed_set / "manifest.json")}
        if wl.labels:
            ev.update(KNN, labels=str(self.labels), seed=self.seed)
        return [
            ("train", train, rdir / "fit", []),
            *[("embed", embed, rdir / "embed", [])] * wl.repeats,
            *[("eval", ev, rdir / "eval", [])] * wl.repeats,
            ("bench", wl.bench, rdir / "bench", ["--seed", str(self.seed)]),
        ]


def write_config(path: Path, cfg: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True), encoding="utf-8")
    return str(path)


def label_rule(truth):
    """Fixed labels of S-curve points (x, y, z): 2*[x >= 0] + [y >= 1]."""
    return [str(2 * int(p[0] >= 0.0) + int(p[1] >= 1.0)) for p in truth]
