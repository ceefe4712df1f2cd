"""Every name a module of `src/unipdec` or `tests` imports is read in that
module, and every name a module of `src/unipdec` defines is read somewhere.

The scans use only `ast`.  A name bound by `import` or `from ... import` must
occur as a name somewhere else in the module; the package's `__init__.py` is
exempt (its imports are the package's re-exports), and so is `from __future__ import
annotations`.  A top-level def, class or constant must be read in `src`,
`tests` or `perfbench`: loaded as a name, taken as an attribute, imported by
name, or named in a target string of `perfbench/tracer.py` (which wraps its
targets by name).  A module that a file of `src/unipdec` imports at its top
level is not imported again inside a function.  Only `tables.py` stores to
an attribute named `terms`, so `ParamExpr` internals stay in one module.
Only `degrees.find_char` calls `resolve_label`, and only `resolve_label`
calls `parse_label`, so label text reaches a character one way.  Only
`UnipChar.degree` calls `symbol_degree` or `_hook_degree`, so a classical
degree is computed one way, on its first read.  `object.__setattr__` is
called only in a `__post_init__` and in `UnipChar.degree`: parsed tables,
trees and catalog characters are memoised and shared by every caller, so
none may be changed in place after it is built.  `src/unipdec` holds no
`assert` statement, since `python -O` strips them: a check that guards a
result raises an error of the package.  Only `labels.py` holds a string
constant equal to a cuspidal core's name, so that `labels.HC_SERIES` is the
one place that pairs a core with its defect and rank.
"""

import ast
import pathlib

from unipdec.labels import HC_SERIES

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "unipdec"


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


def test_no_unused_imports_in_tests():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted((ROOT / "tests").glob("*.py"))}
    assert len(found) > 10
    assert {name: names for name, names in found.items() if names} == {}


def test_scan_sees_an_unused_import():
    source = (SRC / "degrees.py").read_text()
    assert unused_imports(source) == []
    assert unused_imports(source + "\nimport shutil\n") == [
        ("shutil", source.count("\n") + 2)]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nfrom a import b as c\nos.sep\n") == [("c", 3)]


def _imported_modules(node):
    """The modules an import statement names: `from . import x` and
    `from .x import y` both name `.x`."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [base] if node.module else [base + a.name for a in node.names]
    return []


def repeated_imports(source):
    """The modules that `source` imports at its top level and again inside
    a function, as (module, line) of the inner import in source order."""
    tree = ast.parse(source)
    top = {m for node in tree.body for m in _imported_modules(node)}
    inner = {node for f in ast.walk(tree)
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for node in ast.walk(f)}
    return sorted(((m, node.lineno) for node in inner for m in _imported_modules(node)
                   if m in top), key=lambda found: found[1])


def test_no_module_imported_again_inside_a_function():
    found = {path.name: repeated_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: names for name, names in found.items() if names} == {}


def test_scan_sees_a_repeated_import():
    source = ("from . import tables\nfrom .hecke import a\nimport os\n"
              "def f():\n    from .tables import b\n    import os.path\n"
              "    def g():\n        from . import hecke\n    from .hc import c\n")
    assert repeated_imports(source) == [(".tables", 5), (".hecke", 8)]


def defined_names(source):
    """The top-level defs, classes and assigned names of `source`, dunders
    excepted, as (name, line) in source order."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return [(name, line) for name, line in out if not name.startswith("__")]


def read_names(source):
    """The names `source` loads, takes as attributes or imports by name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def tracer_target_names():
    """Each dotted part of every string in `perfbench/tracer.py`."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")}


def test_every_defined_name_is_read_somewhere():
    reads = tracer_target_names()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            reads |= read_names(path.read_text())
    defined = {path.name: defined_names(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert sum(map(len, defined.values())) > 200
    dead = {module: [(name, line) for name, line in names if name not in reads]
            for module, names in defined.items()}
    assert {module: names for module, names in dead.items() if names} == {}


def test_dead_name_scan_sees_a_name_nothing_reads():
    source = "CAP = 30\nMAX = 2\ndef f():\n    return MAX\nclass K:\n    pass\n"
    assert defined_names(source) == [("CAP", 1), ("MAX", 2), ("f", 3), ("K", 5)]
    assert read_names(source) == {"MAX"}
    assert read_names("from m import CAP\nK.f\n") == {"CAP", "K", "f"}
    assert {"verify", "ParamBox", "bounds", "hc_induce"} <= tracer_target_names()


def terms_stores(source):
    """The lines of `source` that store to (or delete) an attribute named
    `terms`, in source order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "terms"
                  and isinstance(node.ctx, (ast.Store, ast.Del)))


def test_only_tables_stores_param_expr_terms():
    found = {path.name: terms_stores(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "tables.py"}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert terms_stores((SRC / "tables.py").read_text())


def test_terms_scan_sees_a_store():
    source = ("e = ParamExpr()\ne.terms = {}\nx = e.terms\ne.terms[()] = 1\n"
              "w.terms, y = {}, 2\ndel e.terms\n")
    assert terms_stores(source) == [2, 5, 6]


LABEL_READERS = ("parse_label", "resolve_label")
DEGREE_MAKERS = ("symbol_degree", "_hook_degree")


def calls_of(names, source):
    """Each call of a function in `names` in `source`, by name or as an
    attribute, as (callee, innermost enclosing def or None, line) in source
    order."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in names:
                    out.append((name, owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), None)
    return sorted(out, key=lambda call: call[2])


def test_only_find_char_resolves_label_text():
    found = {(path.name, owner, callee) for path in sorted(SRC.glob("*.py"))
             for callee, owner, _ in calls_of(LABEL_READERS, path.read_text())}
    assert found == {("labels.py", "resolve_label", "parse_label"),
                     ("degrees.py", "find_char", "resolve_label")}


def test_label_reader_scan_sees_a_call():
    source = ("def f(t):\n    return parse_label(t)\n"
              "class K:\n    def g(self, t):\n        return labels.resolve_label(G, t)\n"
              "x = parse_label('1.')\nparse_label\nlabels.parse_label\n")
    assert calls_of(LABEL_READERS, source) == [
        ("parse_label", "f", 2), ("resolve_label", "g", 5), ("parse_label", None, 6)]


def test_only_unip_char_degree_computes_a_degree():
    found = {(path.name, owner, callee) for path in sorted(SRC.glob("*.py"))
             for callee, owner, _ in calls_of(DEGREE_MAKERS, path.read_text())}
    assert found == {("degrees.py", "degree", "symbol_degree"),
                     ("degrees.py", "degree", "_hook_degree")}


def test_degree_maker_scan_sees_a_call():
    source = ("class UnipChar:\n    @property\n    def degree(self):\n"
              "        return symbol_degree(self.group, self.symbol)\n"
              "deg = degrees._hook_degree(g, (2, 1))\nsymbol_degree\n")
    assert calls_of(DEGREE_MAKERS, source) == [
        ("symbol_degree", "degree", 4), ("_hook_degree", None, 5)]


def frozen_stores(source):
    """Each call of `object.__setattr__` in `source`, as (innermost
    enclosing def or None, line) in source order."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__" and getattr(func.value, "id", None) == "object"):
                out.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), None)
    return sorted(out, key=lambda call: call[1])


def test_frozen_values_are_set_only_while_built():
    found = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
             for owner, _ in frozen_stores(path.read_text())}
    assert found - {(name, "__post_init__") for name, _ in found} == {("degrees.py", "degree")}
    assert {name for name, owner in found if owner == "__post_init__"} >= {"blocks.py", "cyclo.py"}


def test_frozen_store_scan_sees_a_call():
    source = ("class K:\n    def __post_init__(self):\n"
              "        object.__setattr__(self, 'a', 1)\n"
              "def f(t):\n    object.__setattr__(t, 'rows', ())\n"
              "object.__setattr__(x, 'y', 2)\nobject.__setattr__\nself.__setattr__('z', 3)\n")
    assert frozen_stores(source) == [("__post_init__", 3), ("f", 5), (None, 6)]


def assert_lines(source):
    """The lines of `source` that hold an `assert` statement, in source order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_package_holds_no_assert():
    found = {path.name: assert_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_assert_scan_sees_an_assert():
    source = ("x = 1\nassert x\ndef f():\n    assert x > 0, 'positive'\n"
              "    return 'assert x'\n")
    assert assert_lines(source) == [2, 4]


CORE_NAMES = frozenset(core for series in HC_SERIES.values() for _, core in series if core)


def core_name_constants(source):
    """The lines of `source` that hold a string constant equal to the name
    of a cuspidal core, in source order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value in CORE_NAMES)


def test_only_labels_names_a_cuspidal_core():
    found = {path.name: core_name_constants(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "labels.py"}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert core_name_constants((SRC / "labels.py").read_text())


def test_core_name_scan_sees_a_constant():
    assert CORE_NAMES == {"B2", "B6", "D4", "2D9"}
    source = ('x = "B2"\ny = "B2:"\nif core == "D4":\n    pass\nz = f"{c}:2D9"\n'
              'w = ("B6", 6)\n"""2D9"""\n')
    assert core_name_constants(source) == [1, 3, 6, 7]
