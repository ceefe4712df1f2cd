"""One pass of each workload, and the oracle that checks its output.

Imported only by the child process, after unipdec has been imported from
the checkout.  A pass calls the CLI entry point or the modules' public
functions and returns plain results; `check` compares them with what the
corpus files and closed forms say they must be, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
from fractions import Fraction

import unipdec
from unipdec import cli, fourier, hecke, roots, tables, verify
from unipdec.degrees import find_char
from unipdec.hc import table_column_vector
from unipdec.labels import GroupDescriptor
from unipdec.weyl import SignedClass, coxeter_class

from inputs import KNOWN_HC_GAP

DATA = pathlib.Path(unipdec.__file__).resolve().parent / "data"

# sha256 of `unipdec --format tsv verify` at the commit that defined this
# benchmark: the byte-identical-output gate of a pure refactor.
SEED_TSV_SHA256 = "17e6d33b171decab52f3b5276277b0e61215d74b25625049154bd19750c0d5f7"
TSV_HEADER = "table\tcheck\tstatus\tevidence"
STATUSES = {"pass", "warn", "fail"}


class Outcome:
    """Operations attempted and failed in one pass, with the first reasons."""

    MAX_NOTES = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.tsv_identical = 1
        self.known_gap_raised = 0

    def op(self, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < self.MAX_NOTES:
                self.notes.append(why)


def _corpus_files():
    """Tables and tree files of the shipped corpus, read from disk directly."""
    table_files = []
    tree_counts = {}
    for sub in sorted(p for p in DATA.iterdir() if p.is_dir() and p.name.startswith("d")):
        for f in sorted(sub.iterdir()):
            rel = f"{sub.name}/{f.name}"
            if f.name.endswith(".dmx"):
                table_files.append(rel)
            elif f.name.endswith(".trees"):
                lines = [ln.strip() for ln in f.read_text().splitlines()]
                tree_counts[rel] = sum(1 for ln in lines if ln and not ln.startswith("#"))
    return table_files, tree_counts


# ---------------------------------------------------------------------------
# corpus-verify: the CLI over the whole corpus

def run_corpus_verify(inputs):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(inputs["argv"])
    return code, buf.getvalue()


def check_corpus_verify(inputs, output, outcome):
    table_files, tree_counts = _corpus_files()
    if isinstance(output, BaseException):
        for rel in table_files:
            outcome.op(False, f"verify raised {output!r}")
        for _ in range(sum(tree_counts.values())):
            outcome.op(False, f"verify raised {output!r}")
        outcome.tsv_identical = 0
        return
    code, tsv = output
    if hashlib.sha256(tsv.encode()).hexdigest() != SEED_TSV_SHA256:
        outcome.tsv_identical = 0
    lines = tsv.splitlines()
    records = {}
    if lines and lines[0] == TSV_HEADER:
        for line in lines[1:]:
            fields = line.split("\t", 3)
            if len(fields) == 4:
                records.setdefault(fields[0], []).append((fields[1], fields[2]))
    for rel in table_files:
        recs = records.pop(rel, [])
        bad = [c for c, s in recs if s not in STATUSES or s == "fail"]
        outcome.op(recs and not bad and all(c != "tree" for c, _ in recs),
                   f"{rel}: records {recs or 'missing'}")
    for rel, want in tree_counts.items():
        recs = records.pop(rel, [])
        for i in range(want):
            rec = recs[i] if i < len(recs) else ("missing", "")
            outcome.op(rec[0] == "tree" and rec[1] in ("pass", "warn"),
                       f"{rel} tree {i + 1}: {rec}")
        if len(recs) > want:
            outcome.op(False, f"{rel}: {len(recs)} tree records for {want} trees")
    for rel, recs in records.items():
        outcome.op(False, f"{rel}: record for a file outside the corpus")
    if code != 0:
        outcome.op(False, f"verify exited {code}")


# ---------------------------------------------------------------------------
# table-checks: the per-table suite and an emit -> parse round trip

def run_table_checks(inputs):
    out = []
    for rel, table in verify.corpus_tables():
        reports = verify.run_table_checks(table)
        text = tables.emit(table)
        out.append((rel, table, reports, text, tables.parse(text)))
    return out


def check_table_checks(inputs, output, outcome):
    table_files, _ = _corpus_files()
    if isinstance(output, BaseException):
        for _ in range(2 * len(table_files)):
            outcome.op(False, f"table pass raised {output!r}")
        return
    seen = {}
    for rel, table, reports, text, back in output:
        seen[rel] = True
        want = ["degrees", "unitriangular", "craven"]
        want += ["steinberg"] if table.d == 2 else []
        want += ["satisfiable"]
        got = [(r.check, r.status) for r in reports]
        outcome.op([c for c, _ in got] == want
                   and all(s in STATUSES and s != "fail" for _, s in got),
                   f"{rel}: checks {got}")
        outcome.op(back == table and tables.emit(back) == text,
                   f"{rel}: emit -> parse round trip changed the table")
    for rel in table_files:
        if rel not in seen:
            for _ in range(2):  # its suite and its round trip
                outcome.op(False, f"{rel}: table missing from corpus_tables")


# ---------------------------------------------------------------------------
# library-checks: seeded calls into hc, fourier, weyl, hecke, roots

def _load(cache, rel):
    if rel not in cache:
        cache[rel] = tables.parse((DATA / rel).read_text())
    return cache[rel]


def _columns(table, js):
    return {j: {k: e.constant() for k, e in table_column_vector(table, j).items()}
            for j in js}


def _paramexpr(terms):
    return tables.ParamExpr({tuple(m): c for m, c in terms})


# labels of the trivial and the Steinberg character of B_n and D_n
CHARS = {"trivial": lambda n: f"{n}.", "steinberg": lambda n: f".1^{n}"}


def _call(op, cache):
    kind = op["op"]
    if kind == "hc_induce":
        lt, tt = _load(cache, "levi/" + op["levi"]), _load(cache, op["target"])
        return verify.hc_induced_columns(lt.group, lt, tt.group, tt).status
    if kind == "hc_narrative":
        tD4, tD5 = _load(cache, "d2/D4.all.dmx"), _load(cache, "d2/D5.principal.dmx")
        rep = verify.hc_induced_columns(tD4.group, tD4, tD5.group, tD5)
        dicts = [{k + 1: str(c) for k, c in enumerate(co) if not c.is_zero()}
                 for co in rep.data["decompositions"]]
        cands = verify.hcr_candidates(tD5.group, tD5, {2: 1, 5: 2}, [(tD4.group, tD4)])
        return rep.status, dicts, set(cands)
    if kind == "dl_constraints":
        t = _load(cache, "d2/B4.symbolic.dmx")
        rep = verify.check_dl_constraints(t, coxeter_class(4), [17, 18, 19])
        return rep.status, dict(rep.data["inequalities"])
    if kind == "echelon_e6":
        t = _load(cache, "d2/E6.principal.dmx")
        cols = _columns(t, (3, 4, 6))
        picks = [_add(cols[3], cols[4]), _add(cols[3], cols[6]), cols[6]]
        return cols[3], verify.echelonize(picks, list(t.rows))
    if kind == "echelon_idempotent":
        t = _load(cache, "d2/D4.all.dmx")
        cols = _columns(t, range(t.size()))
        once = verify.echelonize([cols[j] for j in op["columns"]], list(t.rows))
        return once, verify.echelonize(once, list(t.rows))
    if kind == "backsub":
        t = _load(cache, "d2/B4.principal.dmx")
        vec = {t.rows[i]: v for i, v in op["vector"]}
        return verify.check_backsub_roundtrip(t, vec)
    if kind == "dl_vector":
        g = GroupDescriptor(op["series"], op["rank"])
        return fourier.dl_vector(g, SignedClass(tuple(op["pos"]), tuple(op["neg"])))
    if kind == "dl_multiplicity":
        g = GroupDescriptor(op["series"], op["rank"])
        text = CHARS[op["char"]](op["rank"])
        return fourier.dl_multiplicity(g, str(find_char(g, text).label),
                                       SignedClass(tuple(op["pos"]), tuple(op["neg"])))
    if kind == "hecke":
        spec = hecke.HeckeSpec("B", op["rank"], hecke.Param.parse(op["b1"]),
                               hecke.Param.parse(op["branch"]))
        return hecke.count_simples(spec, op["d"])
    if kind == "coxeter":
        return roots.coxeter_number(GroupDescriptor.parse(op["group"]))
    if kind == "height_bound":
        return roots.regular_height_bound(GroupDescriptor.parse(op["group"]), op["removed"])
    if kind == "poly_identity":
        a, b, c = (_paramexpr(op[k]) for k in "abc")
        return a, b, c, (a * b) * c, a * (b * c), a * (b + c), a * b + a * c, \
            (a + b) * (a - b), a * a - b * b
    raise ValueError(f"unknown library op {kind!r}")


def _add(u, v):
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, 0) + c
    return out


def run_library_checks(inputs):
    cache = {}
    out = []
    for op in inputs["ops"]:
        try:
            out.append(("ok", _call(op, cache)))
        except Exception as exc:  # an op that raises is a failed operation
            out.append(("raised", type(exc).__name__, str(exc)))
    return out


# closed forms -------------------------------------------------------------

def _partition_counts(n):
    p = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            p[m] += p[m - k]
    return p


def _sign(pos, neg):
    """(-1)^l(w) of a signed permutation: its determinant."""
    s = 1
    for a in pos:
        s *= (-1) ** (a - 1)
    for b in neg:
        s *= (-1) ** b
    return s


def coxeter_number_closed(group):
    g = GroupDescriptor.parse(group)
    if g.series == "D":
        return 2 * g.rank - 2
    if g.series in ("B", "C"):
        return 2 * g.rank
    return {"E6": 12, "E7": 18, "F4": 12}[group]


def highest_root(group):
    """Highest-root coefficients (Bourbaki tables) in the simple-root order of
    unipdec.roots: B/C/D chains end at the short/long/forked node; E6/E7
    list the spinor root first."""
    g = GroupDescriptor.parse(group)
    n = g.rank
    if g.series == "D":
        return (1,) + (2,) * (n - 3) + (1, 1)
    if g.series == "B":
        return (1,) + (2,) * (n - 1)
    if g.series == "C":
        return (2,) * (n - 1) + (1,)
    return {"E6": (1, 2, 2, 3, 2, 1), "E7": (2, 2, 3, 4, 3, 2, 1),
            "F4": (2, 3, 4, 2)}[group]


POINT = {"x": 2, "y": 3, "z": 5}


def _expect(op, value):
    """None if `value` is the right answer to `op`, else the reason."""
    kind = op["op"]
    if kind == "hc_induce":
        return None if value == "pass" else f"status {value}"
    if kind == "hc_narrative":
        status, dicts, cands = value
        want = {((2, 1),), ((5, 1),), ((5, 2),), ((2, 1), (5, 1))}
        if status != "pass" or {3: "1", 6: "2"} not in dicts or cands != want:
            return f"D4 -> D5 narrative: {status}, subsums {sorted(cands)}"
        return None
    if kind == "dl_constraints":
        status, ineqs = value
        P = tables.ParamExpr
        want = {17: P.const(2) - P.var("x1"), 18: -P.var("x2"), 19: P.const(1) - P.var("x3")}
        return None if status == "pass" and ineqs == want else f"B4 (DL): {status} {ineqs}"
    if kind == "echelon_e6":
        col, out = value
        return None if col in out else "echelonisation did not isolate Psi_4"
    if kind == "echelon_idempotent":
        once, twice = value
        return None if once == twice else "echelonize is not idempotent"
    if kind == "backsub":
        return None if value is True else "back-substitution round trip failed"
    if kind == "dl_vector":
        g = GroupDescriptor(op["series"], op["rank"])
        n = op["rank"]
        if any(Fraction(x).denominator != 1 for x in value.values()):
            return "non-integral <rho, R_w>"
        want = {f"{n}.": 1, f".1^{n}": _sign(op["pos"], op["neg"])}
        if op["series"] == "B" and not op["pos"] and op["neg"] == [1] * n:
            want[f".{n}"] = -n + (1 if n % 2 == 0 else 0)
            b2 = "B2:." if n == 2 else ("B2:1." if n == 3 else f"B2:{n - 2}.")
            want[b2] = -n + (1 if n % 2 == 1 else 0)
        for lab, w in want.items():
            got = value.get(lab if lab in value else str(find_char(g, lab).label))
            if got != w:
                return f"<{lab}, R_w> = {got}, want {w}"
        return None
    if kind == "dl_multiplicity":
        want = 1 if op["char"] == "trivial" else _sign(op["pos"], op["neg"])
        return None if value == want else f"<{op['char']}, R_w> = {value}, want {want}"
    if kind == "hecke":
        want = op["want"]
        if want is None:
            p = _partition_counts(op["rank"])
            want = (sum(p[i] * p[op["rank"] - i] for i in range(op["rank"] + 1))
                    if op["b1"] == "1" else p[op["rank"]])
        return None if value == want else f"count {value}, want {want}"
    if kind == "coxeter":
        want = coxeter_number_closed(op["group"])
        return None if value == want else f"h = {value}, want {want}"
    if kind == "height_bound":
        theta = highest_root(op["group"])
        want = 1 + sum(c for i, c in enumerate(theta) if i not in op["removed"])
        return None if value == want else f"bound {value}, want {want}"
    if kind == "poly_identity":
        a, b, c, abc1, abc2, dist1, dist2, sq1, sq2 = value
        va, vb, vc = (e.evaluate(POINT) for e in (a, b, c))
        if abc1 != abc2 or dist1 != dist2 or sq1 != sq2:
            return "ring identity fails"
        if abc1.evaluate(POINT) != va * vb * vc or sq1.evaluate(POINT) != va ** 2 - vb ** 2:
            return "product does not evaluate to the product of values"
        return None
    return f"unknown op {kind}"


def check_library_checks(inputs, output, outcome):
    if isinstance(output, BaseException):
        for op in inputs["ops"]:
            outcome.op(False, f"library pass raised {output!r}")
        return
    for op, res in zip(inputs["ops"], output):
        where = " ".join(f"{k}={v}" for k, v in op.items() if k not in ("a", "b", "c"))
        gap = op["op"] == "hc_induce" and (op["levi"], op["target"]) == KNOWN_HC_GAP
        if res[0] == "raised":
            if gap and res[1] == "HCError" and "odd coefficient" in res[2]:
                outcome.known_gap_raised += 1
                outcome.op(True)
            else:
                outcome.op(False, f"{where}: raised {res[1]}: {res[2]}")
            continue
        why = _expect(op, res[1])
        outcome.op(why is None, f"{where}: {why}")


WORKLOADS = {
    "corpus-verify": (run_corpus_verify, check_corpus_verify),
    "table-checks": (run_table_checks, check_table_checks),
    "library-checks": (run_library_checks, check_library_checks),
}
