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
from .errors import GramNotPSD, ParseError
from .kernel import KernelModel, KernelSpec, gram

MODEL_MAGIC = "intact-model-v1"

# Hyperparameter lines of a model file after view_dims, in file order.
_HYPERPARAM_LINES = (
    ("c", float), ("C1", float), ("C2", float), ("max_outer", int),
    ("max_inner", int), ("tol_obj", float), ("tol_x", float), ("seed", int),
)


def fmt_float(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# CSV matrices
# ---------------------------------------------------------------------------

# Rows formatted and written per write call by save_matrix_csv.
_CSV_BLOCK_ROWS = 1024


def save_matrix_csv(path, M, header: str = None):
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    # "%.17g" formats a double exactly as fmt_float does
    row = ",".join(["%.17g"] * M.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for start in range(0, M.shape[0], _CSV_BLOCK_ROWS):
            block = M[start:start + _CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def save_view_csv(path, Z, view_index: int):
    Z = np.asarray(Z, dtype=np.float64)
    save_matrix_csv(path, Z, header=f"view {view_index} dims {Z.shape[1]}")


def load_matrix_csv(path) -> np.ndarray:
    """Matrix from text rows of numbers separated by commas and/or
    whitespace. Blank lines and lines starting with '#' are skipped, every
    token is read as Python's float() reads it, and an empty file gives a
    (0, 0) array. Raises ParseError naming the first line that is not a
    row of numbers as wide as the first row."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    data = [text for text in map(str.strip, lines) if text and text[0] != "#"]
    if not data:
        return np.zeros((0, 0))
    rows = "\n".join(data).replace(",", " ").split("\n")
    M = None
    # NumPy warns when no row holds a number; such files, ragged ones, ones
    # with tokens float() accepts and NumPy does not (1_000) and ones with
    # rows of bare commas (NumPy skips them) are left to the line loop.
    if rows[0].split():
        try:
            M = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if M is None or M.shape[0] != len(data):
        M = _parse_csv_lines(path, lines)
    return M


def _parse_csv_lines(path, lines) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
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

    def block(self, keyword: str, index: int, rows: int, cols: int) -> np.ndarray:
        """Matrix of a `keyword index rows cols` block whose header must
        name the index and shape the file header implies."""
        parts = self.expect(keyword)
        if len(parts) != 3:
            self.fail(f"expected '{keyword} index rows cols'")
        expected = [index, rows, cols]
        if self.numbers(parts, int) != expected:
            self.fail(f"expected '{keyword} {index} {rows} {cols}', got {' '.join(parts)!r}")
        return self.matrix(rows, cols)

    def hyperparams(self, fields: dict) -> Hyperparams:
        """Hyperparams of the fields read so far; a rejection names the
        line just read, so fields are checked as each one is read."""
        try:
            return Hyperparams(**fields)
        except ValueError as exc:
            self.fail(f"invalid hyperparameter: {exc}")

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
    views and stored gammas. A malformed number, a rejected hyperparameter
    and a block whose index or shape disagrees with the header (m, d,
    n_train, view_dims) all raise ParseError with the line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cur = _Cursor(fh.readlines(), path)
    magic = cur.next()
    if magic != MODEL_MAGIC:
        raise ParseError(f"{path}: not a model file (bad magic {magic!r})", 1)
    mode = cur.scalar("mode", str)
    if mode not in ("linear", "kernel"):
        cur.fail(f"unknown mode {mode!r}")
    m = cur.scalar("m", int)
    fields = {"d": cur.scalar("d", int)}
    d = cur.hyperparams(fields).d
    if mode == "kernel":
        n_train = cur.scalar("n_train", int)
        if n_train < 1:
            cur.fail(f"n_train must be >= 1, got {n_train}")
    view_dims = cur.numbers(cur.expect("view_dims"), int)
    if len(view_dims) != m or min(view_dims, default=0) < 1:
        cur.fail(f"view_dims must list m = {m} positive sizes")
    for name, kind in _HYPERPARAM_LINES:
        fields[name] = cur.scalar(name, kind)
        hp = cur.hyperparams(fields)
    standardized = cur.scalar("standardized", int)
    if standardized not in (0, 1):
        cur.fail(f"standardized must be 0 or 1, got {standardized}")
    record = None
    if standardized:
        means, scales = [], []
        for v in range(m):
            for keyword, out in (("mean", means), ("scale", scales)):
                parts = cur.expect(keyword)
                if cur.numbers(parts[:1], int) != [v]:
                    cur.fail("standardization record out of order")
                if len(parts) - 1 != view_dims[v]:
                    cur.fail(f"expected {view_dims[v]} values for view {v}")
                out.append(freeze_array(cur.numbers(parts[1:])))
        record = StandardizeRecord(means=tuple(means), scales=tuple(scales))

    if mode == "linear":
        Ws = [freeze_array(cur.block("W", v, view_dims[v], d)) for v in range(m)]
        model = IntactModel(mode="linear", W=tuple(Ws), kernel_part=None, hyperparams=hp)
    else:
        kind = cur.scalar("kernel", str)
        if kind not in ("linear", "rbf"):
            cur.fail(f"unknown kernel {kind!r}")
        gammas = []
        for v in range(m):
            parts = cur.expect("gamma")
            if len(parts) != 2 or cur.numbers(parts[:1], int) != [v]:
                cur.fail(f"expected 'gamma {v} value'")
            g = None if parts[1] == "none" else cur.numbers(parts[1:])[0]
            if kind == "rbf" and not (g is not None and 0.0 < g < np.inf):
                cur.fail(f"rbf gamma must be a positive finite number, got {parts[1]!r}")
            gammas.append(g)
        As, Zs, grams = [], [], []
        for v in range(m):
            As.append(freeze_array(cur.block("A", v, n_train, d)))
            Zv = freeze_array(cur.block("Z", v, n_train, view_dims[v]))
            Zs.append(Zv)
            try:
                K = gram(Zv, KernelSpec(kind, gammas[v]))
            except (ValueError, GramNotPSD, np.linalg.LinAlgError) as exc:
                cur.fail(f"view {v}: cannot rebuild the Gram matrix: {exc}")
            grams.append(freeze_array(K))
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
