"""Spans around the public functions of the `intact` modules.

The tracer wraps a function in every `intact` module namespace that binds
it, so a call is recorded whichever module makes it. Spans (name, start,
end, parent) stay in memory; `layer_metrics` turns one round's spans into
the per-layer metrics and `Tracer.dump` writes them out at the end of a
run. A target whose function no longer exists is reported as absent.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One public function to time.

    `label` names the span as "<module>.<label>". With `per_binding` the
    module part is the namespace that makes the call (so `sweep_latents`
    reached through `kernel` is "kernel.latent_sweep"); otherwise it is
    the defining module. `note` records per-call attributes from the
    arguments and the result.
    """

    module: str
    func: str
    label: str
    per_binding: bool = False
    note: Optional[Callable] = None


def _rows_swept(attrs, args, kwargs, out):
    attrs["rows"] = int(args[3].shape[0])


def _rows_embedded(attrs, args, kwargs, out):
    attrs["rows"] = int(len(args[0][0]))


def _fit_history(attrs, args, kwargs, out):
    hist = out[2]
    attrs["outer"] = sum(1 for kind, _ in hist.objective_trace if kind == "W-update")
    attrs["inner"] = [int(x) for x, _ in hist.inner_iterations]
    attrs["max_iter"] = int(hist.stop_reason == "max_iter")


def _kernel_fit(attrs, args, kwargs, out):
    _fit_history(attrs, args, kwargs, out)
    dataset = args[0]
    attrs["gram_bytes"] = dataset.m * dataset.n * dataset.n * 8


def _knn(attrs, args, kwargs, out):
    attrs["pairs"] = int(len(args[0])) * int(len(args[2]))


def _file_bytes(attrs, args, kwargs, out):
    attrs["bytes"] = os.path.getsize(args[0])


TARGETS = (
    Target("optimizer", "default_init", "init"),
    Target("optimizer", "sweep_latents", "latent_sweep", per_binding=True, note=_rows_swept),
    Target("optimizer", "fit_view_map", "map_sweep"),
    Target("optimizer", "alternation_objective", "objective"),
    Target("optimizer", "fit", "fit", note=_fit_history),
    Target("kernel", "kernel_fit", "fit", note=_kernel_fit),
    Target("kernel", "median_heuristic_gamma", "gamma"),
    Target("kernel", "gram", "gram"),
    Target("kernel", "ensure_psd", "psd_check"),
    Target("kernel", "kernel_alternation_objective", "objective"),
    Target("kernel", "cross_gram", "cross_gram"),
    Target("kernel", "kernel_embed_many", "embed"),
    Target("inference", "embed_examples", "embed", note=_rows_embedded),
    Target("evaluate", "knn_classify", "knn", note=_knn),
    Target("evaluate", "align_to_truth", "align"),
    Target("evaluate", "robustness_benchmark", "robustness"),
    Target("modelio", "load_matrix_csv", "csv_load", note=_file_bytes),
    Target("modelio", "save_matrix_csv", "csv_save"),
    Target("modelio", "save_view_csv", "csv_save"),
    Target("modelio", "save_model", "model_save", note=_file_bytes),
    Target("modelio", "load_model", "model_load", note=_file_bytes),
    Target("core", "validate_dataset", "validate"),
    Target("core", "standardize_views", "standardize"),
    Target("synth", "gen_s_curve", "generate"),
    Target("synth", "make_noisy_views", "generate"),
    Target("synth", "gen_planted_linear", "generate"),
    Target("cli", "cmd_synth", "synth"),
    Target("cli", "cmd_train", "train"),
    Target("cli", "cmd_embed", "embed"),
    Target("cli", "cmd_eval", "eval"),
    Target("cli", "cmd_bench", "bench"),
)


class Tracer:
    """Installs span wrappers while active; spans are kept per round."""

    def __init__(self, package: str = "intact"):
        self.package = package
        self.spans = []
        self._stack = []
        self._patches = []
        self.absent = []
        self.round = 0

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = {"name": name, "round": self.round, "idx": idx,
                    "parent": stack[-1] if stack else -1,
                    "start": time.perf_counter(), "end": None, "attrs": {}}
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = time.perf_counter()
            if note is not None:
                try:
                    note(span["attrs"], args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    span["attrs"]["note_failed"] = True
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target in every loaded namespace of the package."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None
                and (name == self.package or name.startswith(self.package + "."))}
        self.absent = []
        for t in TARGETS:
            home = mods.get(f"{self.package}.{t.module}")
            original = getattr(home, t.func, None) if home is not None else None
            if original is None:
                self.absent.append(f"{t.module}.{t.func}")
                continue
            for mod_name, mod in mods.items():
                short = mod_name.rsplit(".", 1)[-1]
                prefix = short if t.per_binding and mod_name != self.package else t.module
                name = f"{prefix}.{t.label}"
                if getattr(mod, t.func, None) is original:
                    self._patch(vars(mod), t.func, self._wrap(original, name, t.note))
                # dispatch tables such as the CLI's command map bind it too
                for table in [v for v in vars(mod).values() if isinstance(v, dict)]:
                    for key in [k for k, v in table.items() if v is original]:
                        self._patch(table, key, self._wrap(original, name, t.note))

    def _patch(self, table, key, wrapper):
        self._patches.append((table, key, table[key]))
        table[key] = wrapper

    def uninstall(self):
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches = []

    def round_spans(self, rnd):
        return [s for s in self.spans if s["round"] == rnd]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from one round's spans
# ---------------------------------------------------------------------------

class RoundView:
    """Totals, self times, counts and attributes of one round's spans."""

    def __init__(self, spans, all_spans):
        self.spans = spans
        self.all = all_spans

    def _parent(self, s):
        return self.all[s["parent"]] if s["parent"] >= 0 else None

    def _outermost(self, name):
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            p = self._parent(s)
            while p is not None and p["name"] != name:
                p = self._parent(p)
            if p is None:
                out.append(s)
        return out

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self._outermost(name))

    def calls(self, name):
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time(self, name):
        """Duration of the named spans not covered by their child spans."""
        child = {s["idx"]: 0.0 for s in self.spans if s["name"] == name}
        for s in self.spans:
            if s["parent"] in child:
                child[s["parent"]] += s["end"] - s["start"]
        return sum(s["end"] - s["start"] - child[s["idx"]]
                   for s in self.spans if s["name"] == name)

    def attr(self, name, key):
        return [s["attrs"][key] for s in self.spans
                if s["name"] == name and key in s["attrs"]]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


# name -> (unit, better, source span names); the metric is left out when
# every one of its source functions is absent from the package.
LAYER_METRICS = {
    "optimizer.init_s": ("s", "lower", ["optimizer.default_init"]),
    "optimizer.latent_sweep_s": ("s", "lower", ["optimizer.sweep_latents"]),
    "optimizer.latent_sweep_calls": ("count", "lower", ["optimizer.sweep_latents"]),
    "optimizer.latent_rows_per_s": ("rows/s", "higher", ["optimizer.sweep_latents"]),
    "optimizer.map_sweep_s": ("s", "lower", ["optimizer.fit_view_map"]),
    "optimizer.map_sweep_calls": ("count", "lower", ["optimizer.fit_view_map"]),
    "optimizer.objective_s": ("s", "lower", ["optimizer.alternation_objective"]),
    "optimizer.objective_calls": ("count", "lower", ["optimizer.alternation_objective"]),
    "optimizer.outer_iters": ("count", "lower", ["optimizer.fit", "kernel.kernel_fit"]),
    "optimizer.inner_iters_mean": ("count", "lower", ["optimizer.fit", "kernel.kernel_fit"]),
    "optimizer.max_iter_stops": ("count", "lower", ["optimizer.fit", "kernel.kernel_fit"]),
    "kernel.gamma_s": ("s", "lower", ["kernel.median_heuristic_gamma"]),
    "kernel.gram_s": ("s", "lower", ["kernel.gram"]),
    "kernel.psd_check_s": ("s", "lower", ["kernel.ensure_psd"]),
    "kernel.gram_bytes": ("B", "lower", ["kernel.kernel_fit"]),
    "kernel.objective_s": ("s", "lower", ["kernel.kernel_alternation_objective"]),
    "kernel.objective_calls": ("count", "lower", ["kernel.kernel_alternation_objective"]),
    "kernel.latent_sweep_s": ("s", "lower", ["optimizer.sweep_latents"]),
    "kernel.fit_self_s": ("s", "lower", ["kernel.kernel_fit"]),
    "kernel.cross_gram_s": ("s", "lower", ["kernel.cross_gram"]),
    "kernel.embed_s": ("s", "lower", ["kernel.kernel_embed_many"]),
    "inference.embed_s": ("s", "lower", ["inference.embed_examples"]),
    "inference.embed_rows_per_s": ("rows/s", "higher", ["inference.embed_examples"]),
    "evaluate.knn_s": ("s", "lower", ["evaluate.knn_classify"]),
    "evaluate.knn_pairs_per_s": ("pairs/s", "higher", ["evaluate.knn_classify"]),
    "evaluate.knn_dist_bytes": ("B", "lower", ["evaluate.knn_classify"]),
    "evaluate.align_s": ("s", "lower", ["evaluate.align_to_truth"]),
    "evaluate.robustness_s": ("s", "lower", ["evaluate.robustness_benchmark"]),
    "evaluate.robustness_calls": ("count", "lower", ["evaluate.robustness_benchmark"]),
    "modelio.csv_load_s": ("s", "lower", ["modelio.load_matrix_csv"]),
    "modelio.csv_load_mb": ("MB", "lower", ["modelio.load_matrix_csv"]),
    "modelio.csv_save_s": ("s", "lower", ["modelio.save_matrix_csv", "modelio.save_view_csv"]),
    "modelio.model_save_s": ("s", "lower", ["modelio.save_model"]),
    "modelio.model_load_s": ("s", "lower", ["modelio.load_model"]),
    "modelio.model_file_mb": ("MB", "lower", ["modelio.save_model"]),
    "core.validate_s": ("s", "lower", ["core.validate_dataset"]),
    "core.standardize_s": ("s", "lower", ["core.standardize_views"]),
    "synth.generate_s": ("s", "lower",
                         ["synth.gen_s_curve", "synth.make_noisy_views", "synth.gen_planted_linear"]),
    "cli.synth_self_s": ("s", "lower", ["cli.cmd_synth"]),
    "cli.train_self_s": ("s", "lower", ["cli.cmd_train"]),
    "cli.embed_self_s": ("s", "lower", ["cli.cmd_embed"]),
    "cli.eval_self_s": ("s", "lower", ["cli.cmd_eval"]),
    "cli.bench_self_s": ("s", "lower", ["cli.cmd_bench"]),
}


def round_layer_values(view: RoundView) -> dict:
    """Every per-layer value of one round (absent sources still give 0)."""
    outer = sum(view.attr("optimizer.fit", "outer") + view.attr("kernel.fit", "outer"))
    inner = [x for lst in view.attr("optimizer.fit", "inner") + view.attr("kernel.fit", "inner")
             for x in lst]
    max_iter = sum(view.attr("optimizer.fit", "max_iter") + view.attr("kernel.fit", "max_iter"))
    lat_s = view.total("optimizer.latent_sweep")
    emb_s = view.total("inference.embed")
    knn_s = view.total("evaluate.knn")
    pairs = sum(view.attr("evaluate.knn", "pairs"))
    model_bytes = view.attr("modelio.model_save", "bytes")
    return {
        "optimizer.init_s": view.total("optimizer.init"),
        "optimizer.latent_sweep_s": lat_s,
        "optimizer.latent_sweep_calls": view.calls("optimizer.latent_sweep"),
        "optimizer.latent_rows_per_s": _rate(sum(view.attr("optimizer.latent_sweep", "rows")), lat_s),
        "optimizer.map_sweep_s": view.total("optimizer.map_sweep"),
        "optimizer.map_sweep_calls": view.calls("optimizer.map_sweep"),
        "optimizer.objective_s": view.total("optimizer.objective"),
        "optimizer.objective_calls": view.calls("optimizer.objective"),
        "optimizer.outer_iters": outer,
        "optimizer.inner_iters_mean": statistics.fmean(inner) if inner else 0.0,
        "optimizer.max_iter_stops": max_iter,
        "kernel.gamma_s": view.total("kernel.gamma"),
        "kernel.gram_s": view.total("kernel.gram"),
        "kernel.psd_check_s": view.total("kernel.psd_check"),
        "kernel.gram_bytes": max(view.attr("kernel.fit", "gram_bytes"), default=0),
        "kernel.objective_s": view.total("kernel.objective"),
        "kernel.objective_calls": view.calls("kernel.objective"),
        "kernel.latent_sweep_s": view.total("kernel.latent_sweep"),
        "kernel.fit_self_s": view.self_time("kernel.fit"),
        "kernel.cross_gram_s": view.total("kernel.cross_gram"),
        "kernel.embed_s": view.total("kernel.embed"),
        "inference.embed_s": emb_s,
        "inference.embed_rows_per_s": _rate(sum(view.attr("inference.embed", "rows")), emb_s),
        "evaluate.knn_s": knn_s,
        "evaluate.knn_pairs_per_s": _rate(pairs, knn_s),
        "evaluate.knn_dist_bytes": 8 * max(view.attr("evaluate.knn", "pairs"), default=0),
        "evaluate.align_s": view.total("evaluate.align"),
        "evaluate.robustness_s": view.total("evaluate.robustness"),
        "evaluate.robustness_calls": view.calls("evaluate.robustness"),
        "modelio.csv_load_s": view.total("modelio.csv_load"),
        "modelio.csv_load_mb": sum(view.attr("modelio.csv_load", "bytes")) / 1e6,
        "modelio.csv_save_s": view.total("modelio.csv_save"),
        "modelio.model_save_s": view.total("modelio.model_save"),
        "modelio.model_load_s": view.total("modelio.model_load"),
        "modelio.model_file_mb": max(model_bytes, default=0) / 1e6,
        "core.validate_s": view.total("core.validate"),
        "core.standardize_s": view.total("core.standardize"),
        "synth.generate_s": view.total("synth.generate"),
        "cli.synth_self_s": view.self_time("cli.synth"),
        "cli.train_self_s": view.self_time("cli.train"),
        "cli.embed_self_s": view.self_time("cli.embed"),
        "cli.eval_self_s": view.self_time("cli.eval"),
        "cli.bench_self_s": view.self_time("cli.bench"),
    }


def layer_metrics(tracer: Tracer, rounds) -> dict:
    """Median over traced rounds of each per-layer value, with units.

    A metric whose source functions are all absent is left out.
    """
    per_round = [round_layer_values(RoundView(tracer.round_spans(r), tracer.spans))
                 for r in rounds]
    absent = set(tracer.absent)
    out = {}
    for name, (unit, _better, sources) in LAYER_METRICS.items():
        if all(src in absent for src in sources):
            continue
        out[name] = {"value": statistics.median(v[name] for v in per_round),
                     "unit": unit}
    return out
