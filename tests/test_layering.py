"""Module boundaries of the package, read from its source with `ast`.

`modelio` is the one module that reads or writes a file: no other module
of the package calls `open`, `json.load`, `json.dump` or `np.loadtxt`.
Every module-level import is used, and `kernel` builds features for the
one fit path (`optimizer._fit_stack`) without wiring the alternation
driver itself."""

import ast
from pathlib import Path

import intact

PACKAGE = Path(intact.__file__).parent

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


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def file_calls(path):
    """(line, name) of every file-format call in the module at `path`."""
    return [(node.lineno, ".".join(name)) for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call) and (name := _dotted(node.func)) in FILE_CALLS]


def unused_imports(source):
    """Names bound by a module-level import of `source` that nothing reads;
    a name listed in a module-level `__all__` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_only_modelio_reads_or_writes_files():
    found = {path.name: calls for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "modelio.py" and (calls := file_calls(path))}
    assert found == {}
    assert file_calls(PACKAGE / "modelio.py")  # the scan sees modelio's own calls


def test_every_module_level_import_is_used():
    found = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
    # the scan sees an unused import, a used one and a name kept by __all__
    assert unused_imports("import os\nimport sys\nfrom . import a\n"
                          "__all__ = ['a']\nsys.exit()\n") == [(1, "os")]


def test_kernel_does_not_wire_the_alternation_driver():
    tree = _tree(PACKAGE / "kernel.py")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert names.isdisjoint({"alternate", "fit_view_map", "_view_stacks", "_map_sweep"})
    assert "_fit_stack" in names
