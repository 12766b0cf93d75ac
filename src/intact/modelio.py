"""Plain-text persistence: model files, matrix CSVs, labels, and JSON.

Matrices are stored row-major as decimal text with 17 significant digits,
which round-trips doubles exactly, so save -> load -> save is
byte-identical. Nothing here writes timestamps; all outputs are
deterministic functions of their inputs.
"""

from __future__ import annotations

import json

import numpy as np

from .core import Hyperparams, IntactModel, StandardizeRecord, freeze_array
from .errors import ParseError
from .kernel import KernelModel, KernelSpec, gram

MODEL_MAGIC = "intact-model-v1"


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def _join_row(row) -> str:
    return ",".join(fmt_float(v) for v in row)


# ---------------------------------------------------------------------------
# CSV matrices
# ---------------------------------------------------------------------------

def save_matrix_csv(path, M, header: str = None):
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for row in M:
            fh.write(_join_row(row) + "\n")


def save_view_csv(path, Z, view_index: int):
    Z = np.asarray(Z, dtype=np.float64)
    save_matrix_csv(path, Z, header=f"view {view_index} dims {Z.shape[1]}")


def load_matrix_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.replace(",", " ").split()
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise ParseError(
                    f"{path}: line {lineno}: could not parse numbers",
                    line_number=lineno,
                ) from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(row)}",
                    line_number=lineno,
                )
            rows.append(row)
    if not rows:
        return np.zeros((0, 0))
    return np.asarray(rows, dtype=np.float64)


def save_history_csv(path, history):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# step,kind,objective\n")
        for i, (kind, val) in enumerate(history.objective_trace):
            fh.write(f"{i},{kind},{fmt_float(val)}\n")


def load_labels(path) -> list:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if text and not text.startswith("#"):
                out.append(text)
    return out


def save_labels(path, labels):
    with open(path, "w", encoding="utf-8") as fh:
        for lab in labels:
            fh.write(f"{lab}\n")


def save_json(path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

class _Cursor:
    """Sequential line reader with parse-error bookkeeping."""

    def __init__(self, lines, path):
        self.lines = lines
        self.path = path
        self.pos = 0

    def next(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].rstrip("\n")
            self.pos += 1
            if line.strip():
                return line
        raise ParseError(f"{self.path}: unexpected end of file", line_number=self.pos)

    def fail(self, message: str):
        raise ParseError(f"{self.path}: line {self.pos}: {message}", line_number=self.pos)

    def expect(self, keyword: str) -> list:
        parts = self.next().split()
        if parts[0] != keyword:
            self.fail(f"expected {keyword!r}, got {parts[0]!r}")
        return parts[1:]

    def numbers(self, tokens, kind=float) -> list:
        """Convert tokens of the line just read, naming the line on failure."""
        try:
            return [kind(t) for t in tokens]
        except ValueError:
            self.fail(f"expected {kind.__name__} values, got {' '.join(tokens)!r}")

    def scalar(self, keyword: str, kind=float):
        """Value of a `keyword value` line."""
        parts = self.expect(keyword)
        if len(parts) != 1:
            self.fail(f"expected one value after {keyword!r}")
        return self.numbers(parts, kind)[0]

    def block(self, keyword: str) -> tuple:
        """(rows, cols) from a `keyword index rows cols` block header."""
        parts = self.expect(keyword)
        if len(parts) != 3:
            self.fail(f"expected '{keyword} index rows cols'")
        return tuple(self.numbers(parts[1:], int))

    def matrix(self, rows: int, cols: int) -> np.ndarray:
        out = np.empty((rows, cols))
        for i in range(rows):
            parts = self.next().replace(",", " ").split()
            if len(parts) != cols:
                self.fail(f"expected {cols} values")
            out[i] = self.numbers(parts)
        return out


def save_model(path, model: IntactModel, record: StandardizeRecord = None):
    hp = model.hyperparams
    lines = [MODEL_MAGIC, f"mode {model.mode}", f"m {model.m}", f"d {hp.d}"]
    if model.mode == "kernel":
        lines.append(f"n_train {model.kernel_part.n_train}")
    lines.append("view_dims " + " ".join(str(D) for D in model.view_dims))
    lines.append(f"c {fmt_float(hp.c)}")
    lines.append(f"C1 {fmt_float(hp.C1)}")
    lines.append(f"C2 {fmt_float(hp.C2)}")
    lines.append(f"max_outer {hp.max_outer}")
    lines.append(f"max_inner {hp.max_inner}")
    lines.append(f"tol_obj {fmt_float(hp.tol_obj)}")
    lines.append(f"tol_x {fmt_float(hp.tol_x)}")
    lines.append(f"seed {hp.seed}")
    lines.append(f"standardized {1 if record is not None else 0}")
    if record is not None:
        for v, (mu, sc) in enumerate(zip(record.means, record.scales)):
            lines.append(f"mean {v} " + " ".join(fmt_float(x) for x in mu))
            lines.append(f"scale {v} " + " ".join(fmt_float(x) for x in sc))
    if model.mode == "linear":
        for v, Wv in enumerate(model.W):
            lines.append(f"W {v} {Wv.shape[0]} {Wv.shape[1]}")
            lines.extend(" ".join(fmt_float(x) for x in row) for row in Wv)
    else:
        km = model.kernel_part
        lines.append(f"kernel {km.kernel.kind}")
        for v, g in enumerate(km.gammas):
            lines.append(f"gamma {v} " + ("none" if g is None else fmt_float(g)))
        for v, (Av, Zv) in enumerate(zip(km.A, km.training_views)):
            lines.append(f"A {v} {Av.shape[0]} {Av.shape[1]}")
            lines.extend(" ".join(fmt_float(x) for x in row) for row in Av)
            lines.append(f"Z {v} {Zv.shape[0]} {Zv.shape[1]}")
            lines.extend(" ".join(fmt_float(x) for x in row) for row in Zv)
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    """Read a model file back into (IntactModel, StandardizeRecord or None).

    Kernel-mode Gram caches are recomputed from the retained training
    views and stored gammas.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cur = _Cursor(fh.readlines(), path)
    magic = cur.next()
    if magic != MODEL_MAGIC:
        raise ParseError(f"{path}: not a model file (bad magic {magic!r})", 1)
    mode = cur.scalar("mode", str)
    m = cur.scalar("m", int)
    d = cur.scalar("d", int)
    if mode == "kernel":
        cur.scalar("n_train", int)
    view_dims = cur.numbers(cur.expect("view_dims"), int)
    if len(view_dims) != m:
        cur.fail(f"view_dims lists {len(view_dims)} views, expected {m}")
    hp = Hyperparams(
        d=d,
        c=cur.scalar("c"),
        C1=cur.scalar("C1"),
        C2=cur.scalar("C2"),
        max_outer=cur.scalar("max_outer", int),
        max_inner=cur.scalar("max_inner", int),
        tol_obj=cur.scalar("tol_obj"),
        tol_x=cur.scalar("tol_x"),
        seed=cur.scalar("seed", int),
    )
    standardized = cur.scalar("standardized", int)
    record = None
    if standardized:
        means, scales = [], []
        for v in range(m):
            for keyword, out in (("mean", means), ("scale", scales)):
                parts = cur.expect(keyword)
                if cur.numbers(parts[:1], int) != [v]:
                    cur.fail("standardization record out of order")
                out.append(freeze_array(cur.numbers(parts[1:])))
        record = StandardizeRecord(means=tuple(means), scales=tuple(scales))

    if mode == "linear":
        Ws = [freeze_array(cur.matrix(*cur.block("W"))) for _ in range(m)]
        model = IntactModel(mode="linear", W=tuple(Ws), kernel_part=None, hyperparams=hp)
    else:
        kind = cur.scalar("kernel", str)
        gammas = []
        for v in range(m):
            parts = cur.expect("gamma")
            if len(parts) != 2:
                cur.fail("expected 'gamma index value'")
            gammas.append(None if parts[1] == "none" else cur.numbers(parts[1:])[0])
        As, Zs, grams = [], [], []
        for v in range(m):
            As.append(freeze_array(cur.matrix(*cur.block("A"))))
            Zv = freeze_array(cur.matrix(*cur.block("Z")))
            Zs.append(Zv)
            grams.append(freeze_array(gram(Zv, KernelSpec(kind, gammas[v]))))
        km = KernelModel(
            A=tuple(As),
            training_views=tuple(Zs),
            kernel=KernelSpec(kind, None),
            gram=tuple(grams),
            gammas=tuple(gammas),
        )
        model = IntactModel(mode="kernel", W=None, kernel_part=km, hyperparams=hp)
    if cur.next() != "end":
        cur.fail("missing end marker")
    return model, record
