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
import json
import logging
import math
import numbers
import os
import sys
from pathlib import Path

import numpy as np

from . import modelio
from .core import Hyperparams, standardize_views, validate_dataset
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
    load_xyz_point_cloud,
    make_noisy_views,
    project_to_planes,
)

log = logging.getLogger("intact")


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def _check_keys(cfg: dict, allowed: set, where: str):
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown config keys {sorted(unknown)}")


def _require(cfg: dict, key: str, where: str):
    if key not in cfg or cfg[key] is None:
        raise ValueError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _integer(value, where: str, key: str) -> int:
    """An integer config value: a JSON integer, not a fraction or a bool
    (the rule `Hyperparams` applies to its integer fields)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{where}: {key} must be an integer, got {value!r}")
    return int(value)


def _real(value, where: str, key: str) -> float:
    """A real-valued config value: a JSON number, not a bool, a string, an
    array or an object (the type rule `Hyperparams` applies to its float
    fields)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{where}: {key} must be a number, got {value!r}")
    return float(value)


_JSON_KINDS = {list: "array", dict: "object"}


def _container(cfg: dict, key: str, kind: type, where: str, default=None):
    """cfg[key] when it is a JSON array (kind list) or object (kind dict),
    default when the key is absent or null; any other value is rejected
    naming the key, as `_integer` rejects non-integers."""
    value = cfg.get(key)
    if value is None:
        return default
    if not isinstance(value, kind):
        raise ValueError(
            f"{where}: {key} must be a JSON {_JSON_KINDS[kind]}, got {value!r}"
        )
    return value


def _seed(cfg: dict, args, where: str) -> int:
    """The --seed override, else the config's integer seed (default 0)."""
    if args.seed is not None:
        return args.seed
    return _integer(cfg.get("seed", 0), where, "seed")


def _hyperparams_from(cfg: dict, where: str, seed_override=None) -> Hyperparams:
    _check_keys(cfg, {f.name for f in dataclasses.fields(Hyperparams)}, where)
    _require(cfg, "d", where)
    kwargs = dict(cfg)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    return Hyperparams(**kwargs)


def _noise_from(cfg: dict, where: str, seed: int) -> NoiseSpec:
    _check_keys(cfg, {"snr_db", "window_fraction", "copies_per_base"}, where)
    snr = _require(cfg, "snr_db", where)
    snr = math.inf if snr in ("inf", "Infinity") else _real(snr, where, "snr_db")
    return NoiseSpec(
        snr_db=snr,
        window_fraction=_real(cfg.get("window_fraction", 0.3), where, "window_fraction"),
        copies_per_base=_integer(
            cfg.get("copies_per_base", 3), where, "copies_per_base"
        ),
        seed=seed,
    )


def _resolve_view_paths(cfg: dict, base: Path, where: str) -> list:
    """Views come either as an explicit path list or via a synth manifest,
    a JSON object; either list must be a non-empty array of file names."""
    if cfg.get("views") and cfg.get("manifest"):
        raise ValueError(f"{where}: give either 'views' or 'manifest', not both")
    holder, root = cfg, base
    if cfg.get("manifest"):
        mpath = base / cfg["manifest"]
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
    _check_keys(cfg, {"generator", "n", "xyz_path", "seed", "noise"}, "synth")
    generator = cfg.get("generator", "s_curve")
    if generator not in ("s_curve", "xyz"):
        raise ValueError(f"synth: unknown generator {generator!r}")
    seed = _seed(cfg, args, "synth")

    if generator == "s_curve":
        n = _integer(_require(cfg, "n", "synth"), "synth", "n")
        points = gen_s_curve(n, seed=seed)
    else:
        xyz = Path(_require(cfg, "xyz_path", "synth"))
        _check_paths_exist([xyz], "synth")
        points = load_xyz_point_cloud(xyz)
    base_views = project_to_planes(points)

    noise_cfg = _container(cfg, "noise", dict, "synth")
    if noise_cfg is not None:
        spec = _noise_from(noise_cfg, "synth.noise", seed)
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
    _check_keys(
        cfg, {"views", "manifest", "mode", "kernel", "standardize", "hyperparams"},
        "train",
    )
    mode = cfg.get("mode", "linear")
    if mode not in ("linear", "kernel"):
        raise ValueError(f"train: unknown mode {mode!r}")
    _require(cfg, "hyperparams", "train")
    hp = _hyperparams_from(
        dict(_container(cfg, "hyperparams", dict, "train")),
        "train.hyperparams", args.seed,
    )
    kcfg = _container(cfg, "kernel", dict, "train", {})
    _check_keys(kcfg, {"kind", "gamma"}, "train.kernel")
    view_paths = _resolve_view_paths(cfg, Path("."), "train")
    _check_paths_exist(view_paths, "train")

    dataset = validate_dataset(_load_views(view_paths))
    record = None
    if cfg.get("standardize", True):
        dataset, record = standardize_views(dataset)

    if mode == "kernel":
        spec = KernelSpec(
            kind=kcfg.get("kind", "rbf"),
            gamma=(None if kcfg.get("gamma") is None
                   else _real(kcfg["gamma"], "train.kernel", "gamma")),
        )
        model, emb, hist = kernel_fit(dataset, hp, spec)
    else:
        model, emb, hist = fit(dataset, hp)

    out = _out_dir(args)
    modelio.save_model(out / "model.txt", model, record)
    modelio.save_matrix_csv(out / "embedding.csv", emb.X)
    modelio.save_history_csv(out / "history.csv", hist)
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
    _check_keys(cfg, {"model", "views", "manifest"}, "embed")
    model_path = Path(_require(cfg, "model", "embed"))
    view_paths = _resolve_view_paths(cfg, Path("."), "embed")
    _check_paths_exist([model_path, *view_paths], "embed")

    model, record = modelio.load_model(model_path)
    rows = _load_model_views(model, record, view_paths)
    X = embed_examples(rows, model)
    out = _out_dir(args)
    modelio.save_matrix_csv(out / "embedding.csv", X)
    print(f"embedded {X.shape[0]} examples into {X.shape[1]} dims")
    return 0


def cmd_eval(cfg: dict, args) -> int:
    _check_keys(
        cfg,
        {"embedding", "truth", "labels", "k", "train_fraction", "seed",
         "model", "views", "manifest"},
        "eval",
    )
    emb_path = Path(_require(cfg, "embedding", "eval"))
    _check_paths_exist([emb_path], "eval")
    truth_path = Path(cfg["truth"]) if cfg.get("truth") else None
    labels_path = Path(cfg["labels"]) if cfg.get("labels") else None
    if truth_path is None and labels_path is None:
        raise MissingInput("eval: need ground-truth latents and/or labels")
    for p in (truth_path, labels_path):
        if p is not None:
            _check_paths_exist([p], "eval")

    X_est = modelio.load_matrix_csv(emb_path)
    metrics = {}

    if cfg.get("model") and (cfg.get("views") or cfg.get("manifest")):
        model_path = Path(cfg["model"])
        view_paths = _resolve_view_paths(cfg, Path("."), "eval")
        _check_paths_exist([model_path, *view_paths], "eval")
        model, record = modelio.load_model(model_path)
        # not for kernel models: their views and cross-kernels would make an
        # eval about 2.3 times as long
        if model.mode == "linear":
            views = _load_model_views(model, record, view_paths)
            metrics["reconstruction_error"] = reconstruction_error(views, model, X_est)

    if truth_path is not None:
        X_true = modelio.load_matrix_csv(truth_path)
        metrics["alignment_residual"] = align_to_truth(X_est, X_true).relative_residual

    if labels_path is not None:
        labels = np.asarray(modelio.load_labels(labels_path))
        if labels.shape[0] != X_est.shape[0]:
            raise DimensionMismatch(
                f"{labels.shape[0]} labels for {X_est.shape[0]} embedded rows"
            )
        k = _integer(cfg.get("k", 3), "eval", "k")
        frac = _real(cfg.get("train_fraction", 0.5), "eval", "train_fraction")
        if not 0.0 < frac < 1.0:
            raise ValueError(f"eval: train_fraction must lie in (0, 1), got {frac}")
        seed = _seed(cfg, args, "eval")
        rng = np.random.default_rng(seed)
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
    _check_keys(
        cfg, {"model", "views", "manifest", "taus", "n_probes", "seed"}, "probe"
    )
    model_path = Path(_require(cfg, "model", "probe"))
    view_paths = _resolve_view_paths(cfg, Path("."), "probe")
    _check_paths_exist([model_path, *view_paths], "probe")
    model, record = modelio.load_model(model_path)
    rows = _load_model_views(model, record, view_paths)

    taus = [
        _real(t, "probe", f"taus[{i}]")
        for i, t in enumerate(_container(cfg, "taus", list, "probe", [1e-3, 1e-2]))
    ]
    n_probes = _integer(cfg.get("n_probes", 100), "probe", "n_probes")
    if n_probes < 1:
        raise ValueError(f"probe: n_probes must be >= 1, got {n_probes}")
    seed = _seed(cfg, args, "probe")
    rng = np.random.default_rng(seed)

    reports = []
    lines = [
        "example,view,coord,tau,measured_deviation,beta_bound,holds,local_convex,"
        "measured_over_bound"
    ]
    print(f"{'example':>7} {'view':>4} {'coord':>5} {'tau':>10} "
          f"{'measured':>13} {'bound':>13} holds convex")
    for p in range(n_probes):
        i = int(rng.integers(0, len(rows[0])))
        v = int(rng.integers(0, len(rows)))
        j = int(rng.integers(0, rows[v].shape[1]))
        tau = taus[p % len(taus)] if taus else 0.0
        z = [np.asarray(Z[i], dtype=np.float64) for Z in rows]
        rep = stability_probe(
            z, model, tau=tau, view_index=v, coord_index=j, seed=seed + p
        )
        reports.append(rep)
        lines.append(
            f"{i},{v},{j},{modelio.fmt_float(rep.tau)},"
            f"{modelio.fmt_float(rep.measured_deviation)},"
            f"{modelio.fmt_float(rep.beta_bound)},"
            f"{int(rep.holds)},{int(rep.local_convex)},"
            f"{modelio.fmt_float(rep.bound_ratio)}"
        )
        print(f"{i:>7} {v:>4} {j:>5} {rep.tau:>10.3g} "
              f"{rep.measured_deviation:>13.6g} {rep.beta_bound:>13.6g} "
              f"{str(rep.holds):>5} {rep.local_convex}")
    violations = sum(1 for r in reports if not r.holds)
    print(f"violations = {violations} / {len(reports)}, largest measured/bound = "
          f"{max(r.bound_ratio for r in reports):.6g}")
    out = _out_dir(args)
    with open(out / "probes.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_bench(cfg: dict, args) -> int:
    _check_keys(
        cfg,
        {"rates", "magnitude", "n", "view_dims", "noise_sigma", "n_seeds",
         "hyperparams"},
        "bench",
    )
    rates = [
        _real(r, "bench", f"rates[{i}]")
        for i, r in enumerate(_container(cfg, "rates", list, "bench", [0.0, 0.1, 0.2, 0.3]))
    ]
    if not rates:
        raise ValueError("bench: rates must name at least one contamination rate")
    for r in rates:
        if not 0.0 <= r < 0.5:
            raise ValueError(f"bench: contamination rate {r} must lie in [0, 0.5)")
    magnitude = _real(cfg.get("magnitude", 10.0), "bench", "magnitude")
    n = _integer(cfg.get("n", 150), "bench", "n")
    view_dims = [
        _integer(D, "bench", f"view_dims[{i}]")
        for i, D in enumerate(_container(cfg, "view_dims", list, "bench", [6, 6, 6]))
    ]
    noise_sigma = _real(cfg.get("noise_sigma", 0.05), "bench", "noise_sigma")
    n_seeds = _integer(cfg.get("n_seeds", 10), "bench", "n_seeds")
    if n_seeds < 1:
        raise ValueError(f"bench: n_seeds must be >= 1, got {n_seeds}")
    base_seed = 0 if args.seed is None else args.seed
    hp_cfg = dict(
        _container(cfg, "hyperparams", dict, "bench") or {"d": 3, "C1": 1e-3, "C2": 1e-3}
    )

    lines = ["rate,cauchy_error,l2_error,ratio"]
    print(f"{'rate':>5} {'cauchy_error':>13} {'l2_error':>13} {'ratio':>9}")
    for rate in rates:
        ce, le, rr = [], [], []
        for s in range(n_seeds):
            seed = base_seed + s
            hp = _hyperparams_from(dict(hp_cfg), "bench.hyperparams", seed)
            _, _, Zs = gen_planted_linear(
                n, view_dims, hp.d, seed=seed, noise_sigma=noise_sigma
            )
            rep = robustness_benchmark(
                validate_dataset(Zs), rate, magnitude, hp, seed=seed
            )
            ce.append(rep.cauchy_error)
            le.append(rep.l2_error)
            rr.append(rep.ratio)
        c_med, l_med, r_med = (float(np.median(v)) for v in (ce, le, rr))
        lines.append(
            f"{modelio.fmt_float(rate)},{modelio.fmt_float(c_med)},"
            f"{modelio.fmt_float(l_med)},{modelio.fmt_float(r_med)}"
        )
        print(f"{rate:>5.2f} {c_med:>13.6g} {l_med:>13.6g} {r_med:>9.4f}")
    out = _out_dir(args)
    with open(out / "bench.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
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
        with open(cfg_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        return _COMMANDS[args.command](cfg, args)
    except (IntactError, ValueError, OSError, json.JSONDecodeError) as exc:
        log.debug("command failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
