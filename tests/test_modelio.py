import functools
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intact import (
    Hyperparams,
    fit,
    gen_planted_linear,
    kernel_fit,
    standardize_views,
    validate_dataset,
)
from intact import modelio
from intact.errors import ParseError
from intact.kernel import KernelSpec
from oracles import load_matrix_csv_lines


def _mutate_w_row(lines):
    i = next(k for k, line in enumerate(lines) if line.startswith("W 0 ")) + 1
    parts = lines[i].split()
    lines[i] = " ".join([parts[0], "abc", *parts[2:]])
    return i


def _replace_scalar(keyword, value):
    def mutate(lines):
        i = next(k for k, line in enumerate(lines) if line.split()[0] == keyword)
        lines[i] = f"{keyword} {value}"
        return i

    return mutate


@pytest.mark.parametrize("mutate", [
    _mutate_w_row,
    _replace_scalar("d", "x"),
    _replace_scalar("c", "abc"),
], ids=["W-row", "d", "c"])
def test_bad_number_raises_parse_error_with_line(tmp_path, mutate):
    _, _, Zs = gen_planted_linear(10, [3, 2], 2, seed=0, noise_sigma=0.05)
    model, _, _ = fit(validate_dataset(Zs), Hyperparams(d=2, seed=0, max_outer=3))
    path = tmp_path / "model.txt"
    modelio.save_model(path, model)
    lines = path.read_text().splitlines()
    index = mutate(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        modelio.load_model(path)
    assert err.value.line_number == index + 1


# ---------------------------------------------------------------------------
# model file headers and blocks
# ---------------------------------------------------------------------------

def _two_view_linear_lines(tmp_path):
    """Lines of a saved 2-view linear model with view_dims 3 4 and d = 2."""
    _, _, Zs = gen_planted_linear(10, [3, 4], 2, seed=0, noise_sigma=0.05)
    model, _, _ = fit(validate_dataset(Zs), Hyperparams(d=2, seed=0, max_outer=3))
    path = tmp_path / "model.txt"
    modelio.save_model(path, model)
    return path.read_text().splitlines()


def _set_line(prefix, text, drop_after=0):
    def mutate(lines):
        i = next(k for k, line in enumerate(lines) if line.startswith(prefix))
        lines[i] = text
        del lines[i + 1:i + 1 + drop_after]
        return i

    return mutate


@pytest.mark.parametrize("mutate", [
    _set_line("W 1 ", "W 1 -4 2"),
    _set_line("W 1 ", "W 7 4 2"),
    _set_line("W 1 ", "W 1 3 2", drop_after=1),
    _set_line("W 0 ", "W 0 3 5"),
    _set_line("d ", "d -1"),
    _set_line("c ", "c 0"),
    _set_line("max_inner ", "max_inner 0"),
    _set_line("seed ", "seed -1"),
    _set_line("view_dims ", "view_dims 3 0"),
    _set_line("mode ", "mode planar"),
    _set_line("standardized ", "standardized 2"),
], ids=["W-negative-rows", "W-wrong-index", "W-short-block", "W-wrong-cols", "d",
        "c", "max_inner", "seed", "view_dims", "mode", "standardized"])
def test_inconsistent_header_raises_parse_error_with_line(tmp_path, mutate):
    lines = _two_view_linear_lines(tmp_path)
    index = mutate(lines)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        modelio.load_model(path)
    assert err.value.line_number == index + 1


@pytest.mark.parametrize("bad, message", [
    ({"C2": "-1"}, "C1 and C2 must be non-negative"),
    ({"tol_x": "0"}, "tolerances must be > 0"),
    ({"max_outer": "0", "tol_obj": "0"}, "iteration limits must be >= 1"),
    ({"C1": "inf", "seed": "-1"}, "C1 must be finite"),
], ids=["C2", "tol_x", "first-of-two", "first-of-two-float"])
def test_hyperparams_built_once_and_rejected_value_named_at_its_line(tmp_path, monkeypatch,
                                                                     bad, message):
    built = []

    def counting(**fields):
        built.append(fields)
        return Hyperparams(**fields)

    monkeypatch.setattr(modelio, "Hyperparams", counting)
    lines = _two_view_linear_lines(tmp_path)
    path = tmp_path / "model.txt"
    path.write_text("\n".join(lines) + "\n")
    modelio.load_model(path)
    assert len(built) == 2  # d alone, then every field at once
    first = None
    for key, value in bad.items():
        i = next(k for k, line in enumerate(lines) if line.split()[0] == key)
        lines[i] = f"{key} {value}"
        first = i if first is None else min(first, i)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=message) as err:
        modelio.load_model(path)
    assert err.value.line_number == first + 1


@pytest.mark.parametrize("line", ["scale 0 inf 1", "scale 0 0 1", "mean 0 nan 1"])
def test_broken_standardization_record_raises_parse_error_at_its_line(tmp_path, line):
    _, _, Zs = gen_planted_linear(10, [2, 3], 2, seed=0, noise_sigma=0.05)
    dataset, record = standardize_views(validate_dataset(Zs))
    model, _, _ = fit(dataset, Hyperparams(d=2, seed=0, max_outer=3))
    path = tmp_path / "model.txt"
    modelio.save_model(path, model, record)
    lines = path.read_text().splitlines()
    index = _set_line(line.split()[0] + " 0 ", line)(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        modelio.load_model(path)
    assert err.value.line_number == index + 1


def _kernel_lines(tmp_path, kind):
    _, _, Zs = gen_planted_linear(8, [3, 2], 2, seed=1, noise_sigma=0.05)
    hp = Hyperparams(d=2, seed=0, max_outer=3)
    model, _, _ = kernel_fit(validate_dataset(Zs), hp, KernelSpec(kind))
    path = tmp_path / "kernel.txt"
    modelio.save_model(path, model)
    return path.read_text().splitlines()


@pytest.mark.parametrize("mutate, found_at", [
    (_set_line("n_train ", "n_train 7"), "A 0 "),
    (_set_line("gamma 1 ", "gamma 1 -2"), None),
    (_set_line("gamma 1 ", "gamma 1 none"), None),
    (_set_line("gamma 1 ", "gamma 0 1"), None),
    (_set_line("kernel ", "kernel poly"), None),
    (_set_line("Z 1 ", "Z 1 8 3"), None),
], ids=["n_train", "gamma-negative", "gamma-none", "gamma-index", "kind", "Z-cols"])
def test_inconsistent_kernel_header_raises_parse_error_with_line(tmp_path, mutate, found_at):
    # a wrong n_train shows at the first block whose header disagrees
    lines = _kernel_lines(tmp_path, "rbf")
    index = mutate(lines)
    if found_at is not None:
        index = next(k for k, line in enumerate(lines) if line.startswith(found_at))
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        modelio.load_model(path)
    assert err.value.line_number == index + 1


def test_linear_kernel_gamma_raises_parse_error_at_its_line(tmp_path):
    lines = _kernel_lines(tmp_path, "linear")
    index = _set_line("gamma 1 ", "gamma 1 0.5")(lines)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="gamma") as err:
        modelio.load_model(path)
    assert err.value.line_number == index + 1


def test_overflowing_training_view_raises_parse_error(tmp_path):
    lines = _kernel_lines(tmp_path, "rbf")
    start = next(k for k, line in enumerate(lines) if line.startswith("Z 1 "))
    lines[start + 1] = "1e300 1e300"
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="view 1 is too large") as err:
        modelio.load_model(path)
    assert err.value.line_number == start + 9  # the block's last row


@pytest.mark.parametrize("kind, block, value", [
    ("none", "W 1 ", "inf"), ("none", "W 0 ", "nan"),
    ("rbf", "A 1 ", "-inf"), ("linear", "A 0 ", "nan"), ("rbf", "Z 1 ", "inf"),
], ids=["W-inf", "W-nan", "A-rbf", "A-linear", "Z"])
def test_non_finite_block_entry_raises_parse_error_at_its_row(tmp_path, kind, block, value):
    # a model with one non-finite map entry embeds and evaluates to NaN
    if kind == "none":
        lines = _two_view_linear_lines(tmp_path)
    else:
        lines = _kernel_lines(tmp_path, kind)
    row = next(k for k, line in enumerate(lines) if line.startswith(block)) + 2
    cells = lines[row].split()
    cells[-1] = value
    lines[row] = " ".join(cells)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"{block}has a non-finite entry") as err:
        modelio.load_model(path)
    assert err.value.line_number == row + 1


@functools.cache
def _saved_model_texts() -> tuple:
    """Text of a saved standardized linear, rbf-kernel and linear-kernel model."""
    _, _, Zs = gen_planted_linear(12, [3, 4], 2, seed=0, noise_sigma=0.05)
    dataset, record = standardize_views(validate_dataset(Zs))
    hp = Hyperparams(d=2, seed=0, max_outer=3)
    models = [
        (fit(dataset, hp)[0], record),
        (kernel_fit(dataset, hp, KernelSpec("rbf"))[0], None),
        (kernel_fit(dataset, hp, KernelSpec("linear"))[0], record),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        texts = []
        for model, rec in models:
            modelio.save_model(path, model, rec)
            texts.append(path.read_text())
    return tuple(texts)


_TOKENS = st.one_of(
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "none", "end", "W", "A", "Z", "gamma",
                     "linear", "kernel", "rbf", "1_0", "0", "-1", "2", "3", "4"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Zs")),
            min_size=1, max_size=4),
)


@settings(max_examples=300)
@given(which=st.integers(0, 2), position=st.integers(0, 10**6), token=_TOKENS)
def test_single_token_mutation_loads_or_raises_parse_error(which, position, token):
    lines = [line.split() for line in _saved_model_texts()[which].splitlines()]
    slots = [(i, j) for i, parts in enumerate(lines) for j in range(len(parts))]
    i, j = slots[position % len(slots)]
    lines[i][j] = token
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        path.write_text("\n".join(" ".join(parts) for parts in lines) + "\n",
                        encoding="utf-8")
        try:
            modelio.load_model(path)
        except ParseError:
            pass


# ---------------------------------------------------------------------------
# CSV matrices against the line-by-line reference
# ---------------------------------------------------------------------------

def _random_doubles_csv(seed):
    rng = np.random.default_rng(seed)
    bits = np.frombuffer(rng.bytes(8 * 600), dtype=np.float64)
    scaled = rng.standard_normal(600) * 10.0 ** rng.integers(-300, 300, 600)
    values = np.where(np.isfinite(bits), bits, scaled).reshape(120, 5)
    seps = [",", ", ", " ", "\t", " ,"]
    lines = []
    for row in values:
        cells = ["%.17g" % v if rng.random() < 0.5 else repr(float(v)) for v in row]
        sep = seps[rng.integers(len(seps))]
        lines.append(sep.join(cells))
    return "\n".join(lines) + "\n"


_CSV_CORPUS = {
    "mixed-separators": "1,2 3\n4 5,6\n7,\t8 ,9\n",
    "comments-and-blanks": "# view 0 dims 2\n\n1,2\n   \n  # indented\n3,4\n\n",
    "crlf-and-cr": "1,2\r\n3,4\r5,6",
    "no-final-newline": "1,2\n3,4",
    "one-row": "1.5,-2.5,3e-7\n",
    "one-column": "1\n2\n3\n",
    "one-value": "42\n",
    "nan-inf": "nan,-nan,inf\n-inf,+inf,Infinity\nNaN,-0,0\n",
    "underscores": "1_000,2\n3,4_5.5\n",
    "unicode-space": "1 2\n3 4\n5\x0c6\n",
    "unicode-digits": "١,2\n3,4\n",
    "edge-commas": ",1,,2,\n3,4\n",
    "comma-only-rows": ",\n , ,\n",
    "empty": "",
    "only-comments": "# a\n\n# b\n",
    "doubles-0": _random_doubles_csv(0),
    "doubles-1": _random_doubles_csv(1),
    "bad-token": "1,2\n3,x\n",
    "bad-exponent": "# c\n1e\n",
    "ragged-short": "# header\n\n1 2\n# note\n3\n",
    "ragged-long": "1,2\n3,4\n\n5,6,7\n",
    "comma-only-inside": "1\n,\n2\n",
    "trailing-comment": "1,2 # note\n",
    "hex": "0x10,1\n",
    "bom": "\ufeff1,2\n",
    "late-bad-row": "1,2\n" * 50 + "3;4\n",
    # save_matrix_csv's format (a '#' header, then comma-separated rows)
    # bent in the ways that must leave NumPy's reader for the line reader
    "writer-hash-after-data": "# view 0 dims 2\n1,2\n3,4\n# end\n",
    "writer-trailing-note": "# view 0 dims 2\n1,2 # note\n3,4\n",
    "writer-blank-mid": "# view 0 dims 2\n1,2\n\n3,4\n",
    "writer-header-only": "# view 0 dims 2\n",
    "writer-trailing-blanks": "# view 0 dims 2\n1,2\n3,4\n\n\n",
    "writer-trailing-comma": "# view 0 dims 2\n1,2,\n3,4\n",
    "writer-cr-in-header": "# a\r1,2\n3,4\n",
    "writer-lone-cr": "# h\n1,2\r3,4\n",
    "writer-crlf": "# h\r\n1,2\r\n3,4\r\n",
    "writer-two-headers": "# a\n# b\n1,2\n3,4",
}


@pytest.mark.parametrize("name", sorted(_CSV_CORPUS))
def test_load_matrix_csv_matches_line_reference(tmp_path, name):
    path = tmp_path / "m.csv"
    path.write_text(_CSV_CORPUS[name], encoding="utf-8", newline="")
    try:
        want = load_matrix_csv_lines(path)
    except ValueError as exc:
        with pytest.raises(ParseError) as err:
            modelio.load_matrix_csv(path)
        assert err.value.line_number == exc.line_number
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = modelio.load_matrix_csv(path)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_load_matrix_csv_reads_writer_files_without_the_line_reader(tmp_path, monkeypatch):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((2500, 3)) * 10.0 ** rng.integers(-300, 300, (2500, 3))
    M.flat[0], M.flat[1], M.flat[-1] = -0.0, np.inf, np.nan
    path = tmp_path / "m.csv"
    modelio.save_matrix_csv(path, M, header="view 0 dims 3")

    def no_line_reader(*args, **kwargs):
        raise AssertionError("_parse_rows called")

    monkeypatch.setattr(modelio, "_parse_rows", no_line_reader)
    got = modelio.load_matrix_csv(path)
    assert got.shape == M.shape and np.array_equal(got.view(np.uint64), M.view(np.uint64))


def test_load_matrix_csv_reads_a_compressed_suffix_as_text(tmp_path):
    # NumPy would open a path ending in .gz as a gzip stream
    path = tmp_path / "m.csv.gz"
    modelio.save_matrix_csv(path, np.eye(2), header="h")
    assert np.array_equal(modelio.load_matrix_csv(path), np.eye(2))


@pytest.mark.parametrize("shape", [(0, 3), (1, 0), (1, 1), (3, 1), (1, 4), (2500, 3)])
def test_save_matrix_csv_text(tmp_path, shape):
    rng = np.random.default_rng(0)
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-200, 200, shape)
    if M.size:
        M.flat[0] = -0.0
        M.flat[-1] = np.nan
    path = tmp_path / "m.csv"
    modelio.save_matrix_csv(path, M, header="h")
    want = "# h\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in M
    )
    assert path.read_text() == want


@pytest.mark.parametrize("name", ["c", "C1", "C2", "tol_obj", "tol_x"])
def test_non_finite_hyperparam_raises_parse_error_with_line(tmp_path, name):
    _, _, Zs = gen_planted_linear(10, [3, 2], 2, seed=0, noise_sigma=0.05)
    model, _, _ = fit(validate_dataset(Zs), Hyperparams(d=2, seed=0, max_outer=3))
    path = tmp_path / "model.txt"
    modelio.save_model(path, model)
    lines = path.read_text().splitlines()
    index = _replace_scalar(name, "nan")(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        modelio.load_model(path)
    assert err.value.line_number == index + 1


# ---------------------------------------------------------------------------
# model-file blocks and XYZ clouds through the shared row reader
# ---------------------------------------------------------------------------

def _block_row(lines, header, row):
    """Index of row `row` of the block whose header starts with `header`."""
    return next(k for k, line in enumerate(lines) if line.startswith(header)) + 1 + row


def _bad_token(lines, i):
    parts = lines[i].split()
    lines[i] = " ".join([*parts[:-1], "1.5x"])


def _extra_value(lines, i):
    lines[i] += " 0.5"


def _missing_value(lines, i):
    lines[i] = " ".join(lines[i].split()[:-1])


@pytest.mark.parametrize("header", ["A 0 ", "Z 1 "])
@pytest.mark.parametrize("row", [0, 5])
@pytest.mark.parametrize("mutate", [_bad_token, _extra_value, _missing_value],
                         ids=["bad-token", "long-row", "short-row"])
def test_bad_kernel_block_row_raises_parse_error_at_its_line(tmp_path, header, row, mutate):
    lines = _kernel_lines(tmp_path, "rbf")
    index = _block_row(lines, header, row)
    mutate(lines, index)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        modelio.load_model(path)
    assert err.value.line_number == index + 1


@pytest.mark.parametrize("row", [0, 2])
def test_comment_line_inside_w_block_raises_parse_error(tmp_path, row):
    # model files have no comments: a '#' line is a bad row, not a skipped one
    lines = _two_view_linear_lines(tmp_path)
    index = _block_row(lines, "W 1 ", row)
    lines.insert(index, "# note")
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        modelio.load_model(path)
    assert err.value.line_number == index + 1


def test_blank_lines_inside_a_block_are_skipped(tmp_path):
    lines = _two_view_linear_lines(tmp_path)
    path = tmp_path / "model.txt"
    path.write_text("\n".join(lines) + "\n")
    want, _ = modelio.load_model(path)
    lines.insert(_block_row(lines, "W 1 ", 2), "   ")
    path.write_text("\n".join(lines) + "\n")
    got, _ = modelio.load_model(path)
    assert all(np.array_equal(a, b) for a, b in zip(got.W, want.W))


def test_truncated_block_raises_parse_error_at_end_of_file(tmp_path):
    lines = _two_view_linear_lines(tmp_path)
    lines = lines[:_block_row(lines, "W 1 ", 2)]
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="end of file") as err:
        modelio.load_model(path)
    assert err.value.line_number == len(lines)


def _reference_model_text(model, record):
    """Model file text with every number written by format(x, '.17g')."""
    def num(x):
        return format(float(x), ".17g")

    def block(key, v, M):
        return [f"{key} {v} {M.shape[0]} {M.shape[1]}",
                *(" ".join(num(x) for x in row) for row in M)]

    hp = model.hyperparams
    lines = [modelio.MODEL_MAGIC, f"mode {model.mode}", f"m {model.m}", f"d {hp.d}"]
    if model.mode == "kernel":
        lines.append(f"n_train {model.kernel_part.n_train}")
    lines += [
        "view_dims " + " ".join(str(D) for D in model.view_dims),
        f"c {num(hp.c)}", f"C1 {num(hp.C1)}", f"C2 {num(hp.C2)}",
        f"max_outer {hp.max_outer}", f"max_inner {hp.max_inner}",
        f"tol_obj {num(hp.tol_obj)}", f"tol_x {num(hp.tol_x)}", f"seed {hp.seed}",
        f"standardized {int(record is not None)}",
    ]
    if record is not None:
        for v, (mu, sc) in enumerate(zip(record.means, record.scales)):
            lines.append(f"mean {v} " + " ".join(num(x) for x in mu))
            lines.append(f"scale {v} " + " ".join(num(x) for x in sc))
    if model.mode == "linear":
        for v, Wv in enumerate(model.W):
            lines += block("W", v, Wv)
    else:
        km = model.kernel_part
        lines.append(f"kernel {km.kernel.kind}")
        lines += [f"gamma {v} " + ("none" if g is None else num(g))
                  for v, g in enumerate(km.gammas)]
        for v, (Av, Zv) in enumerate(zip(km.A, km.training_views)):
            lines += block("A", v, Av) + block("Z", v, Zv)
    return "\n".join(lines + ["end"]) + "\n"


@pytest.mark.parametrize("which", [0, 1, 2], ids=["linear-standardized", "rbf",
                                                 "linear-kernel"])
def test_save_model_text(tmp_path, which):
    _, _, Zs = gen_planted_linear(12, [3, 4], 2, seed=0, noise_sigma=0.05)
    dataset, record = standardize_views(validate_dataset(Zs))
    hp = Hyperparams(d=2, c=0.7, C1=3e-4, C2=1e-3, max_outer=3, tol_x=1e-9, seed=4)
    model, rec = [
        (fit(dataset, hp)[0], record),
        (kernel_fit(dataset, hp, KernelSpec("rbf"))[0], None),
        (kernel_fit(dataset, hp, KernelSpec("linear"))[0], record),
    ][which]
    path = tmp_path / "model.txt"
    modelio.save_model(path, model, rec)
    assert path.read_text() == _reference_model_text(model, rec)


# ---------------------------------------------------------------------------
# blocks read together, one NumPy parse per block width
# ---------------------------------------------------------------------------

@functools.cache
def _unequal_width_models() -> tuple:
    """(model, record, text) of a standardized linear, an rbf and a
    standardized linear-kernel model with view_dims 3 2 4 and d = 2: in
    kernel mode A 0, A 1, Z 1 and A 2 share a width, and Z 0 and Z 2 have
    widths of their own."""
    _, _, Zs = gen_planted_linear(12, [3, 2, 4], 2, seed=3, noise_sigma=0.05)
    dataset, record = standardize_views(validate_dataset(Zs))
    hp = Hyperparams(d=2, seed=0, max_outer=3)
    models = [
        (fit(dataset, hp)[0], record),
        (kernel_fit(dataset, hp, KernelSpec("rbf"))[0], None),
        (kernel_fit(dataset, hp, KernelSpec("linear"))[0], record),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        out = []
        for model, rec in models:
            modelio.save_model(path, model, rec)
            out.append((model, rec, path.read_text()))
    return tuple(out)


def _model_arrays(model, record) -> list:
    if model.mode == "linear":
        arrays = list(model.W)
    else:
        arrays = [*model.kernel_part.A, *model.kernel_part.training_views]
    return arrays + ([*record.means, *record.scales] if record is not None else [])


def _same_bits(got, want) -> bool:
    return len(got) == len(want) and all(
        a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for a, b in zip(got, want)
    )


_MODES = pytest.mark.parametrize("which", [0, 1, 2], ids=["linear", "rbf", "linear-kernel"])


@_MODES
def test_unequal_width_models_round_trip_bit_for_bit(tmp_path, which):
    model, record, text = _unequal_width_models()[which]
    path = tmp_path / "model.txt"
    path.write_text(text)
    got, rec = modelio.load_model(path)
    assert _same_bits(_model_arrays(got, rec), _model_arrays(model, record))
    assert got.hyperparams == model.hyperparams
    assert all(not a.flags.writeable for a in _model_arrays(got, rec))
    modelio.save_model(path, got, rec)
    assert path.read_text() == text


@_MODES
def test_load_model_reads_writer_files_without_the_block_reader(tmp_path, which, monkeypatch):
    def no_block_reader(*args, **kwargs):
        raise AssertionError("_Cursor.block called")

    monkeypatch.setattr(modelio._Cursor, "block", no_block_reader)
    model, record, text = _unequal_width_models()[which]
    path = tmp_path / "model.txt"
    path.write_text(text)
    got, rec = modelio.load_model(path)
    assert _same_bits(_model_arrays(got, rec), _model_arrays(model, record))


def _huge_value(lines, i):
    parts = lines[i].split()
    lines[i] = " ".join([*parts[:-1], "1e400"])


@pytest.mark.parametrize("which, header", [(0, "W 2 "), (1, "A 2 "), (1, "Z 2 "), (2, "A 2 ")],
                         ids=["linear-W2", "rbf-A2", "rbf-Z2", "linear-kernel-A2"])
@pytest.mark.parametrize("row", [0, -1], ids=["first-row", "last-row"])
@pytest.mark.parametrize("mutate", [_bad_token, _huge_value, _missing_value, _extra_value],
                         ids=["bad-token", "1e400", "short-row", "wide-row"])
def test_bad_row_in_the_last_block_of_a_width_group_raises_at_its_line(
        tmp_path, which, header, row, mutate):
    # W 2 and A 2 close the group of width d = 2; Z 2 is a group of its own
    model, _, text = _unequal_width_models()[which]
    lines = text.splitlines()
    rows = model.view_dims[2] if header == "W 2 " else model.kernel_part.n_train
    index = _block_row(lines, header, row % rows)
    mutate(lines, index)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line {index + 1}: ") as err:
        modelio.load_model(path)
    assert err.value.line_number == index + 1


@_MODES
def test_blank_lines_and_commas_inside_blocks_still_load(tmp_path, which):
    model, record, text = _unequal_width_models()[which]
    lines = text.splitlines()
    for header in ("W 1 ", "A 2 ", "Z 0 "):
        if any(line.startswith(header) for line in lines):
            index = _block_row(lines, header, 1)
            lines[index] = lines[index].replace(" ", ", ")
            lines.insert(index, "")
    path = tmp_path / "model.txt"
    path.write_text("\n".join(lines) + "\n")
    got, rec = modelio.load_model(path)
    assert _same_bits(_model_arrays(got, rec), _model_arrays(model, record))


@pytest.mark.parametrize("tail, found", [
    ("garbage\n", 1), ("\n  \ngarbage\n", 3), ("end\n", 1), (None, 1),
], ids=["garbage", "garbage-after-blank-lines", "second-end", "second-model"])
def test_content_after_the_end_marker_raises_parse_error_at_its_line(tmp_path, tail, found):
    _, _, text = _unequal_width_models()[1]
    path = tmp_path / "model.txt"
    path.write_text(text + (text if tail is None else tail))
    with pytest.raises(ParseError, match="after the end marker") as err:
        modelio.load_model(path)
    assert err.value.line_number == text.count("\n") + found


def test_blank_lines_after_the_end_marker_load(tmp_path):
    model, _, text = _unequal_width_models()[0]
    path = tmp_path / "model.txt"
    path.write_text(text + "\n   \n\t\n")
    got, _ = modelio.load_model(path)
    assert _same_bits(list(got.W), list(model.W))
