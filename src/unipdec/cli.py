"""Command-line front end.

Subcommands: verify (run the corpus suite), degrees, craven, hecke, induce,
trees.  Exit codes: 0 all pass, 1 check failure, 2 data or parse error,
3 unsupported request.
"""

from __future__ import annotations

import argparse
import os
import sys

from .blocks import BlockError, tree_check
from .degrees import (UnsupportedGroupError, a_value, A_value, catalog, defect,
                      perversity)
from .hecke import HeckeError, HeckeSpec, Param, parse_spec, product_count
from .labels import GroupDescriptor, LabelError
from .tables import TableError
from .verify import corpus_tables, corpus_trees, run_table_checks
from .weyl import induce as weyl_induce
from .labels import Bipartition


def _table_filter(args):
    """Keep a table or a tree when it matches --only and --group."""
    def keep(path, table):
        if args.only and f"d={table.d}" != args.only:
            return False
        if args.group and str(table.group) != args.group:
            return False
        return True
    return keep


def _tree_results(args):
    """Yield (path, status, evidence or chain) for each corpus tree kept.

    A tree file that cannot be parsed or checked raises BlockError naming
    the file.
    """
    keep = _table_filter(args)
    for path, tree in corpus_trees(args.corpus):
        if not keep(path, tree):
            continue
        try:
            rep = tree_check(tree)
        except UnsupportedGroupError as exc:
            raise BlockError(f"{path}: {exc}") from exc
        chain = " -- ".join(lab or "O" for lab in tree.chain)
        yield path, rep.status, rep.evidence or chain


def _emit(rows, header, fmt):
    if fmt == "tsv":
        print("\t".join(header))
        for r in rows:
            print("\t".join(str(x) for x in r))
    else:
        widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))


def cmd_verify(args):
    keep = _table_filter(args)
    failed = False
    lines = []
    out_path = getattr(args, "out", None)
    try:
        for path, table in corpus_tables(args.corpus):
            if not keep(path, table):
                continue
            for rep in run_table_checks(table):
                lines.append((path, rep.check, rep.status,
                              "; ".join(rep.evidence[:2])))
                if rep.status == "fail":
                    failed = True
                    if args.fail_fast:
                        raise StopIteration
        for path, status, text in _tree_results(args):
            lines.append((path, "tree", status, text))
            if status == "fail":
                failed = True
                if args.fail_fast:
                    raise StopIteration
    except StopIteration:
        pass
    except (TableError, BlockError, OSError, LabelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(lines, ("table", "check", "status", "evidence"), args.format)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("table\tcheck\tstatus\tevidence\n")
            for r in lines:
                fh.write("\t".join(str(x) for x in r) + "\n")
    return 1 if failed else 0


def cmd_degrees(args):
    try:
        g = GroupDescriptor.parse(args.group)
        chars = catalog(g)
    except UnsupportedGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    d = args.d
    rows = []
    for c in chars:
        rows.append((str(c.label), str(c.degree), a_value(c), A_value(c),
                     defect(c, d), perversity(c, d)))
    _emit(rows, ("label", "degree", "a", "A", f"defect{d}", f"pi{d}"), args.format)
    return 0


def cmd_hecke(args):
    try:
        if args.spec:
            specs = parse_spec(args.spec)
        else:
            if args.type == "B":
                specs = [HeckeSpec("B", args.rank, Param.parse(args.b1),
                                   Param.parse(args.branch))]
            else:
                specs = [HeckeSpec(args.type, args.rank, None, Param.parse(args.branch))]
        n = product_count(specs, args.d)
    except HeckeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(n)
    if args.list and len(specs) == 1 and specs[0].coxeter_type == "B":
        from .hecke import SemisimpleMarker, crystal_multipartitions, specialize
        res = specialize(specs[0], args.d)
        if not isinstance(res, SemisimpleMarker):
            for mp in sorted(crystal_multipartitions(specs[0].rank, res.e, res.charges)):
                print("  ", " | ".join(str(Bipartition(p, ())).rstrip(".") or "-"
                                       for p in mp))
    return 0


def cmd_induce(args):
    try:
        chi = Bipartition.parse(args.char)
    except LabelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    res = weyl_induce([("B", {chi: 1})], args.rank)
    rows = sorted((str(b), m) for b, m in res.items())
    _emit(rows, ("character", "multiplicity"), args.format)
    return 0


def cmd_trees(args):
    try:
        lines = list(_tree_results(args))
    except (BlockError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(lines, ("file", "status", "tree"), args.format)
    return 1 if any(status == "fail" for _, status, _ in lines) else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="unipdec",
        description="Unipotent character degrees, decomposition-matrix data and checks")
    parser.add_argument("--corpus", default=os.environ.get("UNIPDEC_CORPUS"),
                        help="override the data corpus directory")
    parser.add_argument("--format", choices=("text", "tsv"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full check suite over the corpus")
    p.add_argument("--only", help="restrict to one d, e.g. d=6")
    p.add_argument("--group", help="restrict to one group, e.g. B6")
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--out", help="also write a machine-readable TSV summary file")
    p.set_defaults(func=cmd_verify)

    for name in ("degrees", "craven"):
        p = sub.add_parser(name, help="list label | degree | a | A | defect | pi_d")
        p.add_argument("--group", required=True)
        p.add_argument("--d", type=int, default=2)
        p.set_defaults(func=cmd_degrees)

    for alias in ("hecke", "hecke-count"):
        p = sub.add_parser(alias, help="count simple modules of a specialised algebra")
        p.add_argument("--spec", help="e.g. 'B4;q^2;q' or products 'A1;q x B2;q^2;q'")
        p.add_argument("--type", choices=("A", "B", "D"), default="B")
        p.add_argument("--rank", type=int)
        p.add_argument("--b1", default="1")
        p.add_argument("--branch", default="q")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--list", action="store_true",
                       help="also print the crystal multipartitions")
        p.set_defaults(func=cmd_hecke)

    p = sub.add_parser("induce", help="induce a W(B_m) character to W(B_n)")
    p.add_argument("--char", required=True, help="bipartition, e.g. 2.1")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("trees", help="check every shipped Brauer tree")
    p.add_argument("--only")
    p.add_argument("--group")
    p.set_defaults(func=cmd_trees)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
