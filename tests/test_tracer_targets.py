"""The benchmark's tracer (`perfbench/tracer.py`) wraps unipdec functions by
name, looking each one up in its module's or class's `__dict__`.  A renamed
or moved target would crash `perfbench/run.py --trace 1`; this test fails
first.  The tracer source is only read and executed, never imported as a
file, so nothing is written next to it.

The workloads (`perfbench/workloads.py`) call unipdec functions by name
too; a renamed one would show only as a failed benchmark run.  Their source
is only parsed, since it imports modules that live next to it.
"""

import ast
import importlib
import pathlib
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for prefix, modname, attr, stats in targets:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        assert attr in owner.__dict__, f"{prefix}: no {attr} in {owner.__name__}"
        if "builds" in stats:
            # builds are read from the lru_cache statistics
            assert hasattr(owner.__dict__[attr], "cache_info"), prefix


WORKLOADS = TRACER.parent / "workloads.py"


def unipdec_reads(source):
    """The unipdec modules `source` imports, and the names it reads from
    them: each `from unipdec.m import name` as ("unipdec.m", "name"), and
    each attribute chain `m.a.b` on a module imported as `import unipdec` or
    `from unipdec import m` as ("unipdec.m", "a.b")."""
    tree = ast.parse(source)
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "unipdec":
                    modules[alias.asname or "unipdec"] = "unipdec"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "unipdec":
            for alias in node.names:
                if node.module == "unipdec":
                    modules[alias.asname or alias.name] = f"unipdec.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add((modules[node.id], ".".join(reversed(chain))))
    return set(modules.values()), names


def test_every_unipdec_name_the_workloads_read_resolves():
    # a rename would otherwise show only as a failed benchmark run
    modules, names = unipdec_reads(WORKLOADS.read_text())
    assert {"unipdec.cli", "unipdec.tables", "unipdec.verify"} <= modules
    assert {("unipdec.verify", "echelonize"), ("unipdec.verify", "hcr_candidates"),
            ("unipdec.hc", "table_column_vector"), ("unipdec.hecke", "Param.parse")} <= names
    for modname in modules:
        importlib.import_module(modname)
    for modname, dotted in sorted(names):
        owner = importlib.import_module(modname)
        for attr in dotted.split("."):
            assert hasattr(owner, attr), f"perfbench/workloads.py reads {modname}.{dotted}"
            owner = getattr(owner, attr)


def test_workload_scan_sees_every_kind_of_read():
    source = ("import unipdec\nfrom unipdec import cli, tables as t\n"
              "from unipdec.hc import table_column_vector\nfrom os import path\n"
              "def f(x):\n    return cli.main(x), t.ParamExpr.const(1).terms, unipdec.__file__\n"
              "path.join\nx.y\n")
    assert unipdec_reads(source) == (
        {"unipdec", "unipdec.cli", "unipdec.tables"},
        {("unipdec.hc", "table_column_vector"), ("unipdec.cli", "main"),
         ("unipdec.tables", "ParamExpr"), ("unipdec.tables", "ParamExpr.const"),
         ("unipdec", "__file__")})
