"""`modelio` is the one module that reads or writes a file: no other module
of the package calls `open`, `json.load`, `json.dump` or `np.loadtxt`."""

import ast
from pathlib import Path

import intact

FILE_CALLS = {("open",), ("json", "load"), ("json", "dump"), ("np", "loadtxt"),
              ("numpy", "loadtxt")}


def _dotted(node):
    """The dotted name a call's function is written as, or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return (node.id, *reversed(parts))


def file_calls(path):
    """(line, name) of every file-format call in the module at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, ".".join(name)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and (name := _dotted(node.func)) in FILE_CALLS]


def test_only_modelio_reads_or_writes_files():
    package = Path(intact.__file__).parent
    found = {path.name: calls for path in sorted(package.glob("*.py"))
             if path.name != "modelio.py" and (calls := file_calls(path))}
    assert found == {}
    assert file_calls(package / "modelio.py")  # the scan sees modelio's own calls
