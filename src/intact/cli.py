"""Command-line surface: synth | train | embed | eval | probe | bench.

Every command takes a JSON config (--config), an output directory
(--out), and an optional --seed override. Outputs are deterministic
functions of (config, seed); manifests record the seed. Exit code is 0
only when the command completed and all validations passed. INTACT_LOG
controls log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import numbers
import os
import sys
from pathlib import Path

import numpy as np

from . import modelio
from .core import HYPERPARAM_KINDS, Hyperparams, standardize_views, validate_dataset
from .errors import DimensionMismatch, IntactError, MissingInput
from .evaluate import (
    align_to_truth,
    knn_classify,
    reconstruction_error,
    robustness_benchmark,
)
from .inference import embed_examples, stability_probe
from .kernel import KernelSpec, kernel_fit
from .optimizer import fit
from .synth import (
    NoiseSpec,
    gen_planted_linear,
    gen_s_curve,
    make_noisy_views,
    project_to_planes,
)

log = logging.getLogger("intact")


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_REQUIRED = object()   # the default of a key a section must name


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# kind: (what a value must be, test, conversion). A bool is neither an
# integer nor a number, the rule `Hyperparams` applies to its fields.
_KINDS = {
    "integer": ("an integer", _is_integer, int),
    "number": ("a number", _is_number, float),
    "snr": ('a number or "inf"', lambda v: _is_number(v) or v in ("inf", "Infinity"), float),
    "boolean": ("a JSON boolean", lambda v: isinstance(v, bool), bool),
    "string": ("a JSON string", lambda v: isinstance(v, str), str),
    "path": ("a non-empty JSON string", lambda v: isinstance(v, str) and v != "", Path),
    "object": ("a JSON object", lambda v: isinstance(v, dict), None),
    "array": ("a JSON array", lambda v: isinstance(v, list), None),
}

# Hyperparams validates its own values; the sections name its fields.
_HYPERPARAMS = {name: (None, _REQUIRED if name == "d" else None) for name, _ in HYPERPARAM_KINDS}

# section: {key: (kind, default)}. A kind is a _KINDS name, "<kind>[]" for a
# JSON array of that kind, a section name for a JSON object read against
# that section, or None for a value checked where it is used (`views` by
# _resolve_view_paths, hyperparams by Hyperparams).
_SCHEMA = {
    "synth": {"generator": ("string", "s_curve"), "n": ("integer", None),
              "xyz_path": ("path", None), "seed": ("integer", 0),
              "noise": ("synth.noise", None)},
    "synth.noise": {"snr_db": ("snr", _REQUIRED), "window_fraction": ("number", 0.3),
                    "copies_per_base": ("integer", 3)},
    "train": {"views": (None, None), "manifest": ("path", None), "mode": ("string", "linear"),
              "kernel": ("train.kernel", None), "standardize": ("boolean", True),
              "hyperparams": ("train.hyperparams", _REQUIRED)},
    "train.kernel": {"kind": ("string", "rbf"), "gamma": ("number", None)},
    "train.hyperparams": _HYPERPARAMS,
    "embed": {"model": ("path", _REQUIRED), "views": (None, None), "manifest": ("path", None)},
    "eval": {"embedding": ("path", _REQUIRED), "truth": ("path", None), "labels": ("path", None),
             "k": ("integer", 3), "train_fraction": ("number", 0.5), "seed": ("integer", 0),
             "model": ("path", None), "views": (None, None), "manifest": ("path", None)},
    "probe": {"model": ("path", _REQUIRED), "views": (None, None), "manifest": ("path", None),
              "taus": ("number[]", [1e-3, 1e-2]), "n_probes": ("integer", 100),
              "seed": ("integer", 0)},
    "bench": {"rates": ("number[]", [0.0, 0.1, 0.2, 0.3]), "magnitude": ("number", 10.0),
              "n": ("integer", 150), "view_dims": ("integer[]", [6, 6, 6]),
              "noise_sigma": ("number", 0.05), "n_seeds": ("integer", 10),
              "hyperparams": ("bench.hyperparams", {"d": 3, "C1": 1e-3, "C2": 1e-3})},
    "bench.hyperparams": _HYPERPARAMS,
}


def _read(cfg: dict, section: str) -> dict:
    """Every key of the section's table, read from cfg: unknown keys,
    missing required keys and values of the wrong JSON kind are rejected
    naming the section and the key; absent or null keys take their
    default."""
    table = _SCHEMA[section]
    unknown = set(cfg) - set(table)
    if unknown:
        raise ValueError(f"{section}: unknown config keys {sorted(unknown)}")
    out = {}
    for key, (kind, default) in table.items():
        value = default if cfg.get(key) is None else cfg[key]
        if value is _REQUIRED:
            raise ValueError(f"{section}: missing required key {key!r}")
        out[key] = value if value is None else _value(value, kind, section, key)
    return out


def _value(value, kind, section: str, key: str):
    """value read as a key of the given kind (see _SCHEMA)."""
    if kind is None:
        return value
    base = "object" if kind in _SCHEMA else "array" if kind.endswith("[]") else kind
    what, test, convert = _KINDS[base]
    if not test(value):
        raise ValueError(f"{section}: {key} must be {what}, got {value!r}")
    if base == "object":
        return _read(value, kind)
    if base == "array":
        return [_value(v, kind[:-2], section, f"{key}[{i}]") for i, v in enumerate(value)]
    return convert(value)


def _seed(cfg: dict, args) -> int:
    """The --seed override, else the section's seed."""
    return cfg["seed"] if args.seed is None else args.seed


def _hyperparams(cfg: dict, where: str, seed=None) -> Hyperparams:
    """A read hyperparams section as Hyperparams, its null keys at the field
    defaults; seed, when given, overrides the section's. A rejected value's
    error names the section, `where`."""
    kwargs = {key: value for key, value in cfg.items() if value is not None}
    if seed is not None:
        kwargs["seed"] = seed
    try:
        return Hyperparams(**kwargs)
    except ValueError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _resolve_view_paths(cfg: dict, where: str) -> list:
    """Views come either as an explicit path list or via a synth manifest,
    a JSON object; either list must be a non-empty array of file names."""
    if cfg["views"] and cfg["manifest"]:
        raise ValueError(f"{where}: give either 'views' or 'manifest', not both")
    holder, root = cfg, Path()
    if cfg["manifest"]:
        mpath = cfg["manifest"]
        if not mpath.is_file():
            raise MissingInput(f"{where}: manifest {mpath} does not exist")
        holder, root, where = modelio.load_json(mpath), mpath.parent, f"{where}: manifest {mpath}"
    names = holder.get("views") if isinstance(holder, dict) else None
    if not (isinstance(names, list) and names and all(isinstance(p, str) for p in names)):
        raise ValueError(f"{where}: views must be a non-empty array of file names, got {names!r}")
    return [root / name for name in names]


def _check_paths_exist(paths, where: str):
    for p in paths:
        if not Path(p).is_file():
            raise MissingInput(f"{where}: input file {p} does not exist")


def _load_views(paths):
    return [modelio.load_matrix_csv(p) for p in paths]


def _load_model(cfg: dict, where: str):
    """(model, record, view paths) of a section naming a model and its
    views, the model file and every view file checked to exist."""
    view_paths = _resolve_view_paths(cfg, where)
    _check_paths_exist([cfg["model"], *view_paths], where)
    return (*modelio.load_model(cfg["model"]), view_paths)


def _load_model_views(model, record, paths) -> list:
    """The view files at `paths`, checked against the model's view count
    and widths, then standardized with the model's record if it has one."""
    raw = _load_views(paths)
    if len(raw) != model.m:
        raise DimensionMismatch(f"got {len(raw)} view files, model expects {model.m}")
    dataset = validate_dataset(raw)
    for v, (got, want) in enumerate(zip(dataset.view_dims, model.view_dims)):
        if got != want:
            raise DimensionMismatch(f"view {v} has {got} columns, model expects {want}")
    return record.apply(dataset.views) if record is not None else list(dataset.views)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: dict, args) -> int:
    generator = cfg["generator"]
    if generator not in ("s_curve", "xyz"):
        raise ValueError(f"synth: unknown generator {generator!r}")
    source = "n" if generator == "s_curve" else "xyz_path"
    if cfg[source] is None:
        raise ValueError(f"synth: missing required key {source!r}")
    seed = _seed(cfg, args)

    if generator == "s_curve":
        points = gen_s_curve(cfg["n"], seed=seed)
    else:
        _check_paths_exist([cfg["xyz_path"]], "synth")
        points = modelio.load_xyz_point_cloud(cfg["xyz_path"])
    base_views = project_to_planes(points)

    if cfg["noise"] is not None:
        spec = NoiseSpec(**cfg["noise"], seed=seed)
        views = make_noisy_views(base_views, spec)
        noise_payload = {
            "snr_db": "inf" if math.isinf(spec.snr_db) else spec.snr_db,
            "window_fraction": spec.window_fraction,
            "copies_per_base": spec.copies_per_base,
        }
    else:
        views = base_views
        noise_payload = None

    out = _out_dir(args)
    modelio.save_matrix_csv(out / "truth.csv", points, header="truth dims 3")
    view_files = []
    for v, Z in enumerate(views):
        name = f"view_{v:02d}.csv"
        modelio.save_view_csv(out / name, Z, v)
        view_files.append(name)
    manifest = {
        "command": "synth",
        "generator": generator,
        "n": int(points.shape[0]),
        "seed": seed,
        "noise": noise_payload,
        "truth": "truth.csv",
        "views": view_files,
    }
    modelio.save_json(out / "manifest.json", manifest)
    print(f"wrote {len(view_files)} views + truth + manifest to {out}")
    return 0


def cmd_train(cfg: dict, args) -> int:
    mode = cfg["mode"]
    if mode not in ("linear", "kernel"):
        raise ValueError(f"train: unknown mode {mode!r}")
    if mode == "linear" and cfg["kernel"] is not None:
        raise ValueError("train: 'kernel' needs \"mode\": \"kernel\"")
    hp = _hyperparams(cfg["hyperparams"], "train.hyperparams", args.seed)
    view_paths = _resolve_view_paths(cfg, "train")
    _check_paths_exist(view_paths, "train")

    dataset = validate_dataset(_load_views(view_paths))
    record = None
    if cfg["standardize"]:
        dataset, record = standardize_views(dataset)

    if mode == "kernel":
        kernel = KernelSpec(**(cfg["kernel"] or _read({}, "train.kernel")))
        model, emb, hist = kernel_fit(dataset, hp, kernel)
    else:
        model, emb, hist = fit(dataset, hp)

    out = _out_dir(args)
    modelio.save_model(out / "model.txt", model, record)
    modelio.save_matrix_csv(out / "embedding.csv", emb.X)
    modelio.save_table(out / "history.csv", "# step,kind,objective",
                       [(i, *step) for i, step in enumerate(hist.objective_trace)])
    final = hist.objective_trace[-1][1]
    print(
        f"trained {mode} model: objective {final:.6g}, "
        f"{len(hist.objective_trace)} half-steps, "
        f"{hist.extrapolations} extrapolations, stop={hist.stop_reason}"
    )
    if hist.stop_reason == "max_iter":
        print(
            f"warning: fit stopped at max_iter ({hp.max_outer} outer "
            "iterations) before the objective met tol_obj",
            file=sys.stderr,
        )
    if not hist.monotone_within(1e-9):
        raise IntactError("history is not monotone within tolerance")
    return 0


def cmd_embed(cfg: dict, args) -> int:
    model, record, view_paths = _load_model(cfg, "embed")
    rows = _load_model_views(model, record, view_paths)
    X = embed_examples(rows, model)
    out = _out_dir(args)
    modelio.save_matrix_csv(out / "embedding.csv", X)
    print(f"embedded {X.shape[0]} examples into {X.shape[1]} dims")
    return 0


def cmd_eval(cfg: dict, args) -> int:
    truth_path, labels_path = cfg["truth"], cfg["labels"]
    if truth_path is None and labels_path is None:
        raise MissingInput("eval: need ground-truth latents and/or labels")
    if cfg["model"] and not (cfg["views"] or cfg["manifest"]):
        raise ValueError("eval: 'model' needs 'views' or 'manifest'")
    for key in ("views", "manifest"):
        if cfg[key] is not None and cfg["model"] is None:
            raise ValueError(f"eval: {key!r} needs 'model'")
    _check_paths_exist(
        [p for p in (cfg["embedding"], truth_path, labels_path) if p is not None], "eval"
    )

    X_est = modelio.load_matrix_csv(cfg["embedding"])
    metrics = {}

    if cfg["model"]:
        model, record, view_paths = _load_model(cfg, "eval")
        # not for kernel models: their views, Grams and cross-kernels would
        # make an eval about 3 times as long
        if model.mode == "linear":
            views = _load_model_views(model, record, view_paths)
            metrics["reconstruction_error"] = reconstruction_error(views, model, X_est)
        else:
            print("note: reconstruction_error is computed for linear models only; "
                  "skipped for this kernel model", file=sys.stderr)

    if truth_path is not None:
        X_true = modelio.load_matrix_csv(truth_path)
        metrics["alignment_residual"] = align_to_truth(X_est, X_true).relative_residual

    if labels_path is not None:
        labels = np.asarray(modelio.load_labels(labels_path))
        if labels.shape[0] != X_est.shape[0]:
            raise DimensionMismatch(
                f"{labels.shape[0]} labels for {X_est.shape[0]} embedded rows"
            )
        k, frac = cfg["k"], cfg["train_fraction"]
        if not 0.0 < frac < 1.0:
            raise ValueError(f"eval: train_fraction must lie in (0, 1), got {frac}")
        rng = np.random.default_rng(_seed(cfg, args))
        perm = rng.permutation(X_est.shape[0])
        n_train = max(1, int(frac * X_est.shape[0]))
        tr, te = perm[:n_train], perm[n_train:]
        if te.size == 0:
            raise ValueError("eval: train_fraction leaves no test rows")
        _, acc = knn_classify(X_est[tr], labels[tr], X_est[te], k, labels[te])
        metrics["knn_accuracy"] = acc
        metrics["k"] = k

    for key in sorted(metrics):
        print(f"{key} = {metrics[key]}")
    modelio.save_json(_out_dir(args) / "metrics.json", metrics)
    return 0


def cmd_probe(cfg: dict, args) -> int:
    model, record, view_paths = _load_model(cfg, "probe")
    rows = _load_model_views(model, record, view_paths)

    taus, n_probes = cfg["taus"], cfg["n_probes"]
    if not taus:
        raise ValueError("probe: taus must name at least one perturbation size")
    if n_probes < 1:
        raise ValueError(f"probe: n_probes must be >= 1, got {n_probes}")
    seed = _seed(cfg, args)
    rng = np.random.default_rng(seed)

    reports, table = [], []
    print(f"{'example':>7} {'view':>4} {'coord':>5} {'tau':>10} "
          f"{'measured':>13} {'bound':>13} holds convex")
    for p in range(n_probes):
        i = int(rng.integers(0, len(rows[0])))
        v = int(rng.integers(0, len(rows)))
        j = int(rng.integers(0, rows[v].shape[1]))
        tau = taus[p % len(taus)]
        z = [np.asarray(Z[i], dtype=np.float64) for Z in rows]
        rep = stability_probe(
            z, model, tau=tau, view_index=v, coord_index=j, seed=seed + p
        )
        reports.append(rep)
        table.append((i, v, j, rep.tau, rep.measured_deviation, rep.beta_bound,
                      int(rep.holds), int(rep.local_convex), rep.bound_ratio))
        print(f"{i:>7} {v:>4} {j:>5} {rep.tau:>10.3g} "
              f"{rep.measured_deviation:>13.6g} {rep.beta_bound:>13.6g} "
              f"{str(rep.holds):>5} {rep.local_convex}")
    violations = sum(1 for r in reports if not r.holds)
    print(f"violations = {violations} / {len(reports)}, largest measured/bound = "
          f"{max(r.bound_ratio for r in reports):.6g}")
    modelio.save_table(
        _out_dir(args) / "probes.csv",
        "example,view,coord,tau,measured_deviation,beta_bound,holds,local_convex,"
        "measured_over_bound", table)
    return 0


def cmd_bench(cfg: dict, args) -> int:
    rates, n_seeds = cfg["rates"], cfg["n_seeds"]
    if not rates:
        raise ValueError("bench: rates must name at least one contamination rate")
    for r in rates:
        if not 0.0 <= r < 0.5:
            raise ValueError(f"bench: contamination rate {r} must lie in [0, 0.5)")
    if n_seeds < 1:
        raise ValueError(f"bench: n_seeds must be >= 1, got {n_seeds}")
    # run s of each rate fits at the base seed + s: --seed, else the config's
    base_hp = _hyperparams(cfg["hyperparams"], "bench.hyperparams", args.seed)

    table = []
    print(f"{'rate':>5} {'cauchy_error':>13} {'l2_error':>13} {'ratio':>9}")
    for rate in rates:
        ce, le, rr = [], [], []
        for s in range(n_seeds):
            seed = base_hp.seed + s
            hp = dataclasses.replace(base_hp, seed=seed)
            _, _, Zs = gen_planted_linear(
                cfg["n"], cfg["view_dims"], hp.d, seed=seed, noise_sigma=cfg["noise_sigma"]
            )
            rep = robustness_benchmark(validate_dataset(Zs), rate, cfg["magnitude"], hp)
            ce.append(rep.cauchy_error)
            le.append(rep.l2_error)
            rr.append(rep.ratio)
        c_med, l_med, r_med = (float(np.median(v)) for v in (ce, le, rr))
        table.append((rate, c_med, l_med, r_med))
        print(f"{rate:>5.2f} {c_med:>13.6g} {l_med:>13.6g} {r_med:>9.4f}")
    modelio.save_table(_out_dir(args) / "bench.csv", "rate,cauchy_error,l2_error,ratio", table)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "embed": cmd_embed,
    "eval": cmd_eval,
    "probe": cmd_probe,
    "bench": cmd_bench,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intact",
        description="Robust multi-view intact-space learning toolkit",
    )
    parser.add_argument("command", choices=_COMMANDS, help="command to run")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("INTACT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = _build_parser().parse_args(argv)
    cfg_path = Path(args.config)
    if not cfg_path.is_file():
        print(f"error: config file {cfg_path} does not exist", file=sys.stderr)
        return 1
    try:
        cfg = modelio.load_json(cfg_path)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        return _COMMANDS[args.command](_read(cfg, args.command), args)
    except (IntactError, ValueError, OSError) as exc:
        log.debug("command failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
