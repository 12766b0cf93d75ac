"""The README's example configs are read against the CLI's config schema,
so the docs cannot drift from it."""

import json
import re
from pathlib import Path

from intact.cli import _SCHEMA, _read

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_configs():
    """(command, file name, config) of every `cat > X.json <<'EOF'` block in
    the README, with the command of the `intact <cmd> --config X.json` line
    that reads it."""
    blocks = re.findall(r"cat > (\S+\.json) <<'EOF'\n(.*?)\nEOF\n", README, re.S)
    commands = {name: cmd for cmd, name in re.findall(r"intact (\w+) --config (\S+\.json)", README)}
    return [(commands[name], name, json.loads(body)) for name, body in blocks]


def test_every_readme_config_is_valid_for_its_command():
    configs = readme_configs()
    assert {name for _, name, _ in configs} >= {"synth.json", "train.json", "eval.json",
                                                  "bench.json"}
    for command, _, cfg in configs:
        _read(cfg, command)


def test_readme_bench_config_lists_the_bench_defaults():
    (bench,) = [cfg for _, name, cfg in readme_configs() if name == "bench.json"]
    assert bench == {key: default for key, (_, default) in _SCHEMA["bench"].items()}
