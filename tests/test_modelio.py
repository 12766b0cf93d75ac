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
        with warnings.catch_warnings():
            # extreme values may overflow while the Gram matrix is rebuilt
            warnings.simplefilter("ignore", RuntimeWarning)
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
