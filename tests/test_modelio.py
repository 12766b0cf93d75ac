import pytest

from intact import Hyperparams, fit, gen_planted_linear, validate_dataset
from intact import modelio
from intact.errors import ParseError


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
