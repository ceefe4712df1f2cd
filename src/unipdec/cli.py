"""Command-line front end.

Subcommands: verify (run the corpus suite), degrees, craven, hecke, induce,
trees.  verify and trees print the records of `verify.corpus_reports` and
`verify.tree_reports`.  Exit codes: 0 all pass, 1 check failure, 2 a bad
argument (from argparse) or a data or parse error, 3 unsupported request.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys

from .blocks import BlockError
from .degrees import (UnsupportedGroupError, a_value, A_value, catalog, defect,
                      perversity)
from .hecke import (HeckeError, HeckeSpec, Param, SemisimpleMarker, crystal_multipartitions,
                    parse_spec, product_count, specialize)
from .labels import Bipartition, GroupDescriptor, LabelError
from .tables import TableError
from .verify import corpus_reports, tree_reports
from .weyl import WeylError, induce_char


def _at_least(low):
    """The argparse type of an integer >= `low`."""
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text) or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, not {text!r}")
        return int(text)
    return parse


def _only_d(text):
    """The n of an --only value d=<n>, n >= 1."""
    m = re.fullmatch(r"d=([1-9]\d*)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected d=<n> with n >= 1, not {text!r}")
    return int(m.group(1))


def _emit(rows, header, fmt, file=None):
    """Print a header and rows as TSV or as aligned text to `file` (stdout)."""
    if fmt == "tsv":
        print("\t".join(header), file=file)
        for r in rows:
            print("\t".join(str(x) for x in r), file=file)
    else:
        widths = [max(len(str(x)) for x in [h] + [r[i] for r in rows])
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)), file=file)
        for r in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)), file=file)


def cmd_verify(args):
    group = GroupDescriptor.parse(args.group) if args.group else None  # unknown: exit 3
    try:  # before the walk, so that a path that cannot be written fails fast
        out = open(args.out, "w") if args.out else None
    except OSError as exc:
        print(f"error: {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    with out or contextlib.nullcontext():
        lines = []
        try:
            for path, rep in corpus_reports(args.corpus, args.only, group):
                lines.append((path, rep.check, rep.status, "; ".join(rep.evidence[:2])))
                if args.fail_fast and rep.status == "fail":
                    break
        except (TableError, BlockError, OSError, LabelError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        header = ("table", "check", "status", "evidence")
        _emit(lines, header, args.format)
        if out:
            _emit(lines, header, "tsv", out)
    return 1 if any(status == "fail" for _, _, status, _ in lines) else 0


def cmd_degrees(args):
    chars = catalog(GroupDescriptor.parse(args.group))
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
            b1 = Param.parse(args.b1) if args.type == "B" else None
            specs = [HeckeSpec(args.type, args.rank, b1, Param.parse(args.branch))]
        n = product_count(specs, args.d)
    except HeckeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(n)
    if args.list and len(specs) == 1 and specs[0].coxeter_type == "B":
        res = specialize(specs[0], args.d)
        if not isinstance(res, SemisimpleMarker):
            for mp in sorted(crystal_multipartitions(specs[0].rank, res.e, res.charges)):
                print("  ", " | ".join(str(Bipartition(p, ())).rstrip(".") or "-"
                                       for p in mp))
    return 0


def cmd_induce(args):
    try:
        res = induce_char(Bipartition.parse(args.char), args.rank)
    except (LabelError, WeylError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    rows = sorted((str(b), m) for b, m in res.items())
    _emit(rows, ("character", "multiplicity"), args.format)
    return 0


def cmd_trees(args):
    group = GroupDescriptor.parse(args.group) if args.group else None  # unknown: exit 3
    try:
        lines = [(path, rep.status, rep.evidence[0])
                 for path, rep in tree_reports(args.corpus, args.only, group)]
    except (BlockError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(lines, ("file", "status", "tree"), args.format)
    return 1 if any(status == "fail" for _, status, _ in lines) else 0


@functools.cache
def _parser():
    """The argument parser, built once per process.  It holds no state of
    the environment: `main` reads UNIPDEC_CORPUS on every call."""
    parser = argparse.ArgumentParser(
        prog="unipdec",
        description="Unipotent character degrees, decomposition-matrix data and checks")
    parser.add_argument("--corpus", help="override the data corpus directory")
    parser.add_argument("--format", choices=("text", "tsv"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full check suite over the corpus")
    p.add_argument("--only", type=_only_d, help="restrict to one d, e.g. d=6")
    p.add_argument("--group", help="restrict to one group, e.g. B6")
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--out", help="also write a machine-readable TSV summary file")
    p.set_defaults(func=cmd_verify)

    for name in ("degrees", "craven"):
        p = sub.add_parser(name, help="list label | degree | a | A | defect | pi_d")
        p.add_argument("--group", required=True)
        p.add_argument("--d", type=_at_least(1), default=2)
        p.set_defaults(func=cmd_degrees)

    for alias in ("hecke", "hecke-count"):
        p = sub.add_parser(alias, help="count simple modules of a specialised algebra")
        given = p.add_mutually_exclusive_group(required=True)
        given.add_argument("--spec", help="e.g. 'B4;q^2;q' or products 'A1;q x B2;q^2;q'")
        given.add_argument("--rank", type=_at_least(0), help="the rank of a --type algebra")
        p.add_argument("--type", choices=("A", "B", "D"), default="B")
        p.add_argument("--b1", default="1")
        p.add_argument("--branch", default="q")
        p.add_argument("--d", type=_at_least(1), required=True)
        p.add_argument("--list", action="store_true",
                       help="also print the crystal multipartitions")
        p.set_defaults(func=cmd_hecke)

    p = sub.add_parser("induce", help="induce a W(B_m) character to W(B_n)")
    p.add_argument("--char", required=True, help="bipartition, e.g. 2.1")
    p.add_argument("--rank", type=_at_least(0), required=True)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("trees", help="check every shipped Brauer tree")
    p.add_argument("--only", type=_only_d, help="restrict to one d, e.g. d=6")
    p.add_argument("--group", help="restrict to one group, e.g. B6")
    p.set_defaults(func=cmd_trees)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.corpus is None:
        args.corpus = os.environ.get("UNIPDEC_CORPUS")
    try:
        return args.func(args)
    except UnsupportedGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
