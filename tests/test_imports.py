"""Every name a module of `src/unipdec` imports is read in that module.

The scan uses only `ast`: a name bound by `import` or `from ... import` must
occur as a name somewhere else in the module.  `__init__.py` is exempt (its
imports are the package's re-exports), and so is `from __future__ import
annotations`.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "unipdec"


def unused_imports(source):
    """The names that `source` imports and never reads, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in sorted(imported, key=lambda x: x[1])
            if name not in used]


def test_no_unused_imports_in_package():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert len(found) > 10
    assert {name: names for name, names in found.items() if names} == {}


def test_scan_sees_an_unused_import():
    source = (SRC / "degrees.py").read_text()
    assert unused_imports(source) == []
    assert unused_imports(source + "\nimport shutil\n") == [
        ("shutil", source.count("\n") + 2)]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nfrom a import b as c\nos.sep\n") == [("c", 3)]
