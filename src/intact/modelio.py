"""Plain-text persistence, the one module that reads or writes a file
format: matrices, point clouds, record tables, model files and JSON.

Numbers are stored as decimal text with 17 significant digits, which
round-trips doubles exactly, so save -> load -> save is byte-identical.
Nothing here writes timestamps; all outputs are deterministic functions
of their inputs.

Each format has one writer: `save_matrix_csv` for matrices,
`save_table` for record tables (`history.csv`, `probes.csv`,
`bench.csv`), `save_model` and `save_json`. `_format_rows` writes matrix
rows (comma-separated) and model-file blocks (space-separated);
`_parse_rows` reads CSV files, model-file blocks and XYZ point clouds
(`load_xyz_point_cloud`), with NumPy first and a line loop that
names the first bad line as fallback. A CSV file in the writer's own
format (leading '#' lines, then comma-separated rows) skips both: one
`np.loadtxt` call reads it from its path at the speed of NumPy's C
parser, and any file that call rejects, or reads a different number of
rows from, goes to `_parse_rows`, so every file loads as the line reader
reads it. Model-file blocks take no comment lines. `load_model` reads
the W, A and Z blocks of a file in the writer's layout together
(`_Cursor.blocks`): one `np.loadtxt` call per distinct block width, so a
linear model takes one call and a kernel model one per distinct width
among d and the view widths. A file laid out otherwise, or one with a
bad, short, long or non-finite row, goes block by block through
`_parse_rows` (`_Cursor.block`), which names the line.
`_HYPERPARAM_LINES` lists the hyperparameter lines that `save_model`
writes and `load_model` reads.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .core import (
    HYPERPARAM_KINDS,
    Hyperparams,
    IntactModel,
    StandardizeRecord,
    check_sq_norms,
    freeze_array,
)
from .errors import ParseError
from .kernel import KernelModel, KernelSpec

MODEL_MAGIC = "intact-model-v1"

# Hyperparameter lines of a model file after view_dims, in file order: every
# Hyperparams field but d, which the header carries.
_HYPERPARAM_LINES = tuple(kv for kv in HYPERPARAM_KINDS if kv[0] != "d")


def fmt_float(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# CSV matrices
# ---------------------------------------------------------------------------

# Rows formatted and written per write call by save_matrix_csv.
_CSV_BLOCK_ROWS = 1024

# np.loadtxt opens a path through NumPy's DataSource, which decompresses
# files with these suffixes and fetches URLs; such names take `_parse_rows`.
_DATASOURCE_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _format_rows(M, sep: str = ",") -> str:
    """Rows of the 2-D array M joined by newlines (no final newline), each
    number written as "%.17g", the text fmt_float gives it."""
    row = sep.join(["%.17g"] * M.shape[1])
    return "\n".join([row] * M.shape[0]) % tuple(M.ravel().tolist())


def save_matrix_csv(path, M, header: str = None):
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for start in range(0, M.shape[0], _CSV_BLOCK_ROWS):
            fh.write(_format_rows(M[start:start + _CSV_BLOCK_ROWS]) + "\n")


def save_view_csv(path, Z, view_index: int):
    Z = np.asarray(Z, dtype=np.float64)
    save_matrix_csv(path, Z, header=f"view {view_index} dims {Z.shape[1]}")


def load_matrix_csv(path) -> np.ndarray:
    """Matrix from text rows of numbers separated by commas and/or
    whitespace (`_parse_rows`); an empty file gives a (0, 0) array.

    A file in `save_matrix_csv`'s format (leading '#' lines, then rows of
    comma-separated numbers) is read by one `np.loadtxt` call on the path,
    NumPy's C parser. Any other file, and any file that parser rejects or
    reads a different number of rows from, goes to `_parse_rows`."""
    M = _load_writer_csv(path)
    if M is None:
        with open(path, "r", encoding="utf-8") as fh:
            M = _parse_rows(path, fh.read().split("\n"))
    return M


def _load_writer_csv(path):
    """The matrix of a file in `save_matrix_csv`'s format, or None for a
    file that is not: one whose first row is missing or empty (NumPy would
    warn), one NumPy rejects (a '#' after the header, a bad number, ragged
    rows) and one with more lines than NumPy read rows (blank lines, lone
    carriage returns), all of which `_parse_rows` reads or rejects."""
    name = os.fspath(path)
    if "://" in name or name.endswith(_DATASOURCE_SUFFIXES):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    start = header = 0
    while data.startswith(b"#", start):
        start = data.find(b"\n", start) + 1
        if start == 0:
            return None
        header += 1
    if data[start:start + 1] in (b"", b"\n", b"\r"):
        return None
    # NumPy counts the line ends several times faster than bytes.count
    newlines = np.count_nonzero(np.frombuffer(data, np.uint8, offset=start) == ord("\n"))
    try:
        M = np.loadtxt(path, dtype=np.float64, delimiter=",", comments=None,
                       skiprows=header, ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    return M if M.shape[0] == newlines + (not data.endswith(b"\n")) else None


def _parse_rows(path, lines, first_line: int = 1, width: int = None,
               comment: str = "#") -> np.ndarray:
    """Matrix from `lines` (file lines, the first at line `first_line`) of
    numbers separated by commas and/or whitespace. Blank lines and lines
    starting with `comment` (None: no comment lines) are skipped, and every
    token is read as Python's float() reads it. Raises ParseError naming
    the first line that is not a row of numbers as wide as `width`
    (default: the first row)."""
    data = [text for text in map(str.strip, lines) if text and text[0] != comment]
    if not data:
        return np.zeros((0, width or 0))
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
    if M is None or M.shape[0] != len(data) or width not in (None, M.shape[1]):
        M = _parse_csv_lines(path, lines, first_line, width, comment)
    return M


def _parse_csv_lines(path, lines, first_line, width, comment) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(lines, start=first_line):
        text = line.strip()
        if not text or text[0] == comment:
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


def load_xyz_point_cloud(path) -> np.ndarray:
    """Read an n x 3 point cloud from whitespace/comma-separated text.

    Lines beginning with '#' (and blank lines) are skipped; any other
    line that is not three numbers raises ParseError with its 1-based line
    number. A file with no data rows raises ParseError too.
    """
    with open(path, "r", encoding="utf-8") as fh:
        points = _parse_rows(path, fh.read().split("\n"), width=3)
    if not len(points):
        raise ParseError("file contains no data rows", line_number=None)
    return points


def save_table(path, header: str, rows):
    """A record table: the header line as given, then one line per row of
    comma-joined cells, floats written by fmt_float and others by str."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(c) if isinstance(c, float) else str(c) for c in row))
            fh.write("\n")


def load_labels(path) -> list:
    """The stripped lines of a text file, blank and '#' lines skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return [text for text in map(str.strip, lines) if text and text[0] != "#"]


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
        name the index and shape the file header implies; a Z block (a
        kernel model's training view) must also pass `check_sq_norms`."""
        parts = self.expect(keyword)
        if len(parts) != 3:
            self.fail(f"expected '{keyword} index rows cols'")
        expected = [index, rows, cols]
        if self.numbers(parts, int) != expected:
            self.fail(f"expected '{keyword} {index} {rows} {cols}', got {' '.join(parts)!r}")
        # the block is the next `rows` non-blank lines; a '#' line in it is
        # a bad row, since model files have no comments
        start, need = self.pos, rows
        while need > 0 and self.pos < len(self.lines):
            chunk = self.lines[self.pos:self.pos + need]
            self.pos += len(chunk)
            need -= sum(map(bool, map(str.strip, chunk)))
        M = _parse_rows(self.path, self.lines[start:self.pos], start + 1, cols, None)
        if need > 0:
            self.next()  # the file ends inside the block: raises ParseError
        finite = np.isfinite(M).all(axis=1)
        if not finite.all():
            rows = [k for k in range(start, self.pos) if self.lines[k].strip()]
            self.pos = rows[int(np.argmin(finite))] + 1
            self.fail(f"{keyword} {index} has a non-finite entry")
        if keyword == "Z":
            self.check(check_sq_norms, index, M)
        return M

    def blocks(self, specs) -> tuple:
        """Read-only matrices of the blocks `specs` lists in file order, as
        (keyword, index, rows, cols) each. Blocks laid out as `save_model`
        writes them (the header line, then exactly `rows` lines) are parsed
        together: one `np.loadtxt` call per distinct width, split back into
        blocks. Any other layout, a group NumPy rejects or reads a different
        shape from, a non-finite entry or a Z block `check_sq_norms` rejects
        sends every block back through `block`, which names the line at
        fault."""
        start, groups, spans = self.pos, {}, []
        for keyword, index, rows, cols in specs:
            # the header, `rows` lines and at least the end marker after them
            if (self.pos + rows >= len(self.lines)
                    or self.lines[self.pos] != f"{keyword} {index} {rows} {cols}\n"):
                break
            group = groups.setdefault(cols, [])
            spans.append((cols, len(group), len(group) + rows))
            group += self.lines[self.pos + 1:self.pos + 1 + rows]
            self.pos += 1 + rows
        else:
            try:
                parsed = {}
                for cols, group in groups.items():
                    if not group[0].split():  # NumPy warns on a group without numbers
                        raise ValueError
                    M = parsed[cols] = np.loadtxt(group, dtype=np.float64, comments=None, ndmin=2)
                    if M.shape != (len(group), cols) or not np.isfinite(M).all():
                        raise ValueError
                Ms = [parsed[cols][a:b] for cols, a, b in spans]
                for (keyword, index, _, _), M in zip(specs, Ms):
                    if keyword == "Z":
                        check_sq_norms(index, M)
                return tuple(map(freeze_array, Ms))
            except ValueError:
                pass
        self.pos = start
        return tuple(freeze_array(self.block(*spec)) for spec in specs)

    def check(self, make, *args, **kwargs):
        """make(*args, **kwargs), its ValueError turned into a ParseError
        naming the line just read, so each value is checked as it is read."""
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            self.fail(str(exc))


def save_model(path, model: IntactModel, record: StandardizeRecord = None):
    hp = model.hyperparams
    lines = [MODEL_MAGIC, f"mode {model.mode}", f"m {model.m}", f"d {hp.d}"]
    if model.mode == "kernel":
        lines.append(f"n_train {model.kernel_part.n_train}")
    lines.append("view_dims " + " ".join(str(D) for D in model.view_dims))
    for name, kind in _HYPERPARAM_LINES:
        lines.append(f"{name} {(fmt_float if kind is float else str)(getattr(hp, name))}")
    lines.append(f"standardized {1 if record is not None else 0}")
    if record is not None:
        for v, (mu, sc) in enumerate(zip(record.means, record.scales)):
            lines.append(f"mean {v} " + _format_rows(np.atleast_2d(mu), " "))
            lines.append(f"scale {v} " + _format_rows(np.atleast_2d(sc), " "))
    if model.mode == "linear":
        for v, Wv in enumerate(model.W):
            lines += [f"W {v} {Wv.shape[0]} {Wv.shape[1]}", _format_rows(Wv, " ")]
    else:
        km = model.kernel_part
        lines.append(f"kernel {km.kernel.kind}")
        for v, g in enumerate(km.gammas):
            lines.append(f"gamma {v} " + ("none" if g is None else fmt_float(g)))
        for v, (Av, Zv) in enumerate(zip(km.A, km.training_views)):
            lines += [f"A {v} {Av.shape[0]} {Av.shape[1]}", _format_rows(Av, " ")]
            lines += [f"Z {v} {Zv.shape[0]} {Zv.shape[1]}", _format_rows(Zv, " ")]
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    """Read a model file back into (IntactModel, StandardizeRecord or None).

    The file is only parsed and checked; no kernel is evaluated, since a
    kernel model derives its Grams on first use. A malformed number, a
    value `Hyperparams` or `KernelSpec` rejects, an rbf gamma of 'none', a
    standardization mean that is not finite or scale that is not finite
    and > 0, a block whose index or shape disagrees with the header (m, d,
    n_train, view_dims), a non-finite entry in any W, A or Z block (at its
    row's line), a training view that `core.check_sq_norms` rejects and
    anything but blank lines after the `end` marker all raise ParseError
    with the line number.

    Blocks in the writer's layout are parsed together, one NumPy parse
    per block width; any other file, and any file with a faulty block,
    is read block by block, so both give the same arrays bit for bit and
    the same error at the same line.
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
    d = cur.check(Hyperparams, **fields).d
    if mode == "kernel":
        n_train = cur.scalar("n_train", int)
        if n_train < 1:
            cur.fail(f"n_train must be >= 1, got {n_train}")
    view_dims = cur.numbers(cur.expect("view_dims"), int)
    if len(view_dims) != m or min(view_dims, default=0) < 1:
        cur.fail(f"view_dims must list m = {m} positive sizes")
    line = {}
    for name, kind in _HYPERPARAM_LINES:
        fields[name] = cur.scalar(name, kind)
        line[name] = cur.pos
    try:
        hp = Hyperparams(**fields)
    except ValueError:
        # re-check the values one line at a time, in file order, so the
        # error names the line of the first value rejected
        prefix = {"d": d}
        for name, _ in _HYPERPARAM_LINES:
            prefix[name], cur.pos = fields[name], line[name]
            cur.check(Hyperparams, **prefix)
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
                values = cur.numbers(parts[1:])
                # standardize_views writes finite means and scales > 0
                if keyword == "mean" and not all(-np.inf < x < np.inf for x in values):
                    cur.fail(f"view {v}: means must be finite")
                if keyword == "scale" and not all(0.0 < x < np.inf for x in values):
                    cur.fail(f"view {v}: scales must be finite and > 0")
                out.append(freeze_array(values))
        record = StandardizeRecord(means=tuple(means), scales=tuple(scales))

    if mode == "linear":
        Ws = cur.blocks([("W", v, view_dims[v], d) for v in range(m)])
        model = IntactModel(mode="linear", W=Ws, kernel_part=None, hyperparams=hp)
    else:
        kernel = cur.check(KernelSpec, cur.scalar("kernel", str))
        gammas = []
        for v in range(m):
            parts = cur.expect("gamma")
            if len(parts) != 2 or cur.numbers(parts[:1], int) != [v]:
                cur.fail(f"expected 'gamma {v} value'")
            g = None if parts[1] == "none" else cur.numbers(parts[1:])[0]
            cur.check(KernelSpec, kernel.kind, g)
            if kernel.kind == "rbf" and g is None:
                cur.fail("an rbf model needs a concrete gamma per view, got 'none'")
            gammas.append(g)
        Ms = cur.blocks([spec for v in range(m)
                         for spec in (("A", v, n_train, d), ("Z", v, n_train, view_dims[v]))])
        km = KernelModel(A=Ms[0::2], training_views=Ms[1::2], kernel=kernel,
                         gammas=tuple(gammas))
        model = IntactModel(mode="kernel", W=None, kernel_part=km, hyperparams=hp)
    if cur.next() != "end":
        cur.fail("missing end marker")
    if any(map(str.strip, cur.lines[cur.pos:])):
        cur.next()
        cur.fail("unexpected content after the end marker")
    return model, record
