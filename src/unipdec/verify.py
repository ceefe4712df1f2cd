"""The verification engine: executable consistency checks over shipped tables.

Each check returns a CheckReport carrying a status ("pass" / "fail" / "warn")
and human-readable evidence.  Symbolic entries are handled by exact interval
reasoning over the box of the table's `ParamSystem`: defined parameters are
substituted first (`ParamSystem.reduce`), and each free parameter ranges over
[`lows`, `highs`] from its one-variable constraints alone (`math.inf` where
none bounds it above), so a verdict on the box holds for every admissible
assignment.  `ParamSystem.compile` builds, once per table, each distinct
entry's reduced form and bounds (`entry_box`) and the witness search's
bound-free tables (`search`); the search's only bound-dependent state, the
room and candidate counts of each caps tuple, is a memo shared by every
table and bound with those caps.  The per-row checks read each row's
catalog character from `table.chars`, as `tables.parse` resolved it, and
its (a, A, 2d * pi_d) from `table.row_invariants`, computed once per
table.  `corpus_reports` walks the corpus and yields a (path, CheckReport)
record for every table check and every Brauer tree.  No check result is
cached: every verdict is recomputed on every pass.
"""

from __future__ import annotations

import importlib.resources
import os
import pathlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .blocks import BlockError, load_trees, tree_check
from .degrees import UnsupportedGroupError, find_char, group_order_poly
from .fourier import dl_vector
from .labels import GroupDescriptor
from .tables import ParamExpr, TableError, parse
from .weyl import sign_value


@dataclass
class CheckReport:
    check: str
    status: str
    evidence: list = field(default_factory=list)
    data: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# parameter box reasoning

class ParamBox:
    """Sound bounds for expressions over the box of `table.system`, by the
    system's one box arithmetic (`ParamSystem.bounds`).  The per-table
    checks read each entry's bounds from `ParamSystem.entry_box` instead:
    `ParamSystem.compile` fills it by the same arithmetic, reducing each
    entry once, and builds the witness search's bound-free tables (`search`)
    with it; only the search's room and candidate counts depend on the
    bound, memoised per caps tuple."""

    def __init__(self, table):
        self.system = table.system

    def bounds(self, expr):
        """(lower, upper) of `expr` over the box, ignoring joint constraints
        (sound): `ParamSystem.bounds`."""
        return self.system.bounds(expr)

    def provably_zero(self, expr):
        return self.bounds(expr) == (0, 0)


# ---------------------------------------------------------------------------
# degrees attached to table rows

def check_degrees(table):
    """Row degree strings match the catalog (exactly, or to leading term)."""
    if table.degrees_kind == "none":
        return CheckReport("degrees", "warn", ["no degree column shipped"])
    if table.chars is None:
        return CheckReport("degrees", "warn", ["no catalog: degrees not checked"])
    full = table.degrees_kind == "full"
    bad = []
    for lab, deg, c in zip(table.rows, table.row_degrees, table.chars):
        if deg is None:
            continue
        known = c.degree
        if full:
            if deg != known:
                bad.append(f"{lab}: {deg} != {known}")
        elif (deg.scalar, deg.q_exp) != (known.scalar, known.q_exp):
            bad.append(f"{lab}: leading {deg} != {known}")
    return CheckReport("degrees", "fail" if bad else "pass", bad)


# ---------------------------------------------------------------------------
# unitriangularity with a/A-monotonicity

def check_unitriangular(table):
    """Every entry below the diagonal that is not provably zero has strictly
    larger a- and A-values than its column's leader.  (`tables.parse` has
    already put a 1 on the diagonal and nothing above it.)  Only an entry
    whose position breaks the order is asked about: an int is provably zero
    iff it is 0, a ParamExpr iff its `ParamSystem.entry_box` bounds are
    (0, 0)."""
    inv = table.row_invariants
    if inv is None:
        return CheckReport("unitriangular", "warn",
                           ["no catalog degrees: a/A-monotonicity not checked"])
    box = table.system.entry_box
    bad = []
    tentative_bad = []
    for j, col in enumerate(table.columns):
        aj, Aj, _ = inv[j]
        for i, expr in col.entries.items():
            ai, Ai, _ = inv[i]
            if ai > aj and Ai > Aj or i == j:
                continue
            if expr == 0 if type(expr) is int else box[expr][1:] == (0, 0):
                continue  # provably zero: an int only if it is 0
            (tentative_bad if col.tentative else bad).append(
                f"a/A-monotonicity fails at ({table.rows[i]}, col {table.rows[j]})")
    status = "fail" if bad else ("warn" if tentative_bad else "pass")
    return CheckReport("unitriangular", status,
                       bad or [f"tentative column: {e}" for e in tentative_bad])


# ---------------------------------------------------------------------------
# Craven's perversity check

def check_craven(table):
    """Perversity comparison on every entry; returns forced zeros.

    An entry that cannot vanish at a position with pi_d(row) <= pi_d(column
    leader) is a conjecture violation; a parameter entry there is forced
    to zero.  pi_d is compared as the int 2d * pi_d of `table.row_invariants`,
    and a ParamExpr entry's reduced form and bounds are read from
    `ParamSystem.entry_box`; an int entry is its own bounds.
    """
    d = table.d
    inv = table.row_invariants
    if inv is None:
        return CheckReport("craven", "warn", ["degrees unavailable; check skipped"])
    box = table.system.entry_box
    pi = [n for _, _, n in inv]
    violations = []
    forced = set()
    relations = []
    for j, col in enumerate(table.columns):
        for i, expr in col.entries.items():
            if i == j or pi[i] > pi[j]:
                continue
            if type(expr) is int:
                red = lo = hi = expr
            else:
                red, lo, hi = box[expr]
            if lo == hi == 0:
                continue  # vanishes on the whole box
            if lo > 0:
                msg = (f"entry ({table.rows[i]}, col {table.rows[j]}) = {expr} "
                       f"nonzero but pi_{d}(row) = {Fraction(pi[i], 2 * d)} "
                       f"<= {Fraction(pi[j], 2 * d)}")
                if col.tentative:
                    relations.append("tentative column: " + msg)
                else:
                    violations.append(msg)
                continue
            if (type(red) is not int and not red.constant() and red.is_affine()
                    and all(v > 0 for m, v in red.terms.items() if m)):
                forced |= red.names()
            else:
                relations.append(f"forced relation {red} = 0 at "
                                 f"({table.rows[i]}, col {table.rows[j]})")
    report = CheckReport("craven", "fail" if violations else "pass",
                         violations or [f"forced zeros: {sorted(forced)}"] )
    report.data["forced"] = sorted(forced)
    report.data["relations"] = relations
    return report


# ---------------------------------------------------------------------------
# echelonisation of projective characters

def _lead(vec, order):
    for i, lab in enumerate(order):
        if vec.get(lab):
            return i
    return len(order)


def echelonize(projs, order):
    """Greedy partial echelonisation of projective-character vectors.

    Vectors are dicts label -> nonnegative int.  Working through the other
    vectors in increasing order of their leading label, each one is
    subtracted as dictated by the coefficient at its leading label, as long
    as the difference stays entrywise nonnegative.  Deterministic,
    idempotent; zero vectors and duplicates are dropped.

    Each vector's lead (`_lead`) is computed once per sweep from a position
    map and recomputed only when the vector changes.
    """
    pos = {}
    for i, lab in enumerate(order):
        pos.setdefault(lab, i)
    none = len(order)
    place = pos.get

    def lead(vec):  # _lead(vec, order) for a vector without zero entries
        best = none
        for lab in vec:
            i = place(lab, none)
            if i < best:
                best = i
        return best

    def sort_key(v):
        return (lead(v), sorted(v.items()))

    vecs = []
    for v in projs:
        vecs.append({k: int(c) for k, c in v.items() if int(c) != 0})
        if any(c < 0 for c in vecs[-1].values()):
            raise ValueError("projective vector with a negative entry")
    changed = True
    while changed:
        changed = False
        keys = sorted((sort_key(v), i) for i, v in enumerate(vecs))
        vecs = [vecs[i] for _, i in keys]
        leads = [key[0] for key, _ in keys]
        by_lead = list(range(len(vecs)))  # (lead, index) order, kept as leads change
        for a in range(len(vecs)):
            remainder = vecs[a]
            la = leads[a]
            for b in by_lead:
                if b == a:
                    continue
                u = vecs[b]
                if not u or not remainder:
                    continue
                lu = leads[b]
                if lu >= none or lu < la:
                    continue
                lead_lab = order[lu]
                have = remainder.get(lead_lab, 0)
                if have == 0 or have % u[lead_lab]:
                    continue
                k = have // u[lead_lab]  # clear u's leading row completely
                cand = {lab: c - k * u.get(lab, 0) for lab, c in remainder.items()}
                for lab, c in u.items():
                    if lab not in remainder and c:
                        cand[lab] = -k * c
                if any(c < 0 for c in cand.values()):
                    continue
                cand = {lab: c for lab, c in cand.items() if c}
                lc = lead(cand)
                if lu > la and lc != la:
                    continue  # subtraction may not disturb the leading part
                remainder = cand
                la = lc
            if remainder != vecs[a]:
                vecs[a] = remainder
                changed = True
                if la != leads[a]:
                    leads[a] = la
                    by_lead.sort(key=lambda i: (leads[i], i))
        vecs = [v for v in vecs if v]
        deduped = []
        for v in vecs:
            if v not in deduped:
                deduped.append(v)
        if len(deduped) != len(vecs):
            changed = True
        vecs = deduped
    vecs.sort(key=sort_key)
    return vecs


# ---------------------------------------------------------------------------
# back-substitution through a unitriangular table

def decompose_in_columns(table, vector):
    """Coefficients c with vector = sum c_j * column_j; exact back-substitution.

    `vector` maps row labels to integers (or ParamExpr).  Returns a list of
    ParamExpr coefficients: those of `_backsub`, wrapped.
    """
    return [_expr(c) for c in _backsub(table, vector)]


def _backsub(table, vector):
    """The coefficients of `decompose_in_columns`, each an int while the
    vector's values and the entries it meets (`table.below_diagonal`) are
    ints, else a ParamExpr."""
    rows = table.rows
    coeffs = []
    for j, lower in enumerate(table.below_diagonal):
        c = vector.get(rows[j], 0)
        for k, e in lower:
            ck = coeffs[k]
            if ck:
                c = c - ck * e
        coeffs.append(c)
    return coeffs


def recompose(table, coeffs):
    """sum c_j * column_j as a dict row label -> ParamExpr."""
    return {lab: _expr(v) for lab, v in _recompose(table, coeffs).items()}


def _recompose(table, coeffs):
    """The sum of `recompose`, its values ints while the coefficients and
    entries summed are."""
    rows = table.rows
    out = {}
    for c, column in zip(coeffs, table.columns):
        if not c:
            continue
        for i, e in column.entries.items():
            lab = rows[i]
            out[lab] = out.get(lab, 0) + c * e
    return out


def _expr(c):
    return c if isinstance(c, ParamExpr) else ParamExpr.const(c)


def check_backsub_roundtrip(table, vector):
    """vector -> coefficients -> vector must be the identity (exactness)."""
    back = _recompose(table, _backsub(table, vector))
    return all(back.get(lab, 0) == vector.get(lab, 0) for lab in table.rows)


# ---------------------------------------------------------------------------
# Steinberg multiplicities (d = 2 only)

def _steinberg_cases(group):
    s, n = group.series, group.rank
    cases = []
    if s == "D" and n % 2 == 0 and n >= 4:
        cases.append((f"1.1^{n - 1}", n))
    elif s == "2D" and n % 2 == 1 and n >= 5:
        cases.append((f".21^{n - 3}", n))
    elif s in ("B", "C") and n >= 2:
        delta = 1 if n % 2 == 0 else 0
        cases.append((f"1^{n}.", n - delta))
        if n >= 4:
            cases.append((f"B2:.1^{n - 2}", n - 1 + delta))
    elif s == "2E6":
        cases.append(("phi{2,16}''", 6))
    elif s == "E7":
        cases.append(("phi{7,46}", 7))
    elif s == "E8":
        cases.append(("phi{8,91}", 8))
    return cases


def check_steinberg_mults(table):
    if table.d != 2:
        return CheckReport("steinberg", "warn", ["only applies at d = 2"])
    cases = _steinberg_cases(table.group)
    if not cases:
        return CheckReport("steinberg", "warn",
                           [f"no Steinberg-multiplicity statement for {table.group}"])
    inv = table.row_invariants
    if inv is None:
        return CheckReport("steinberg", "warn", ["degrees unavailable"])
    # the Steinberg character, of degree q^N, is the one row of a-value N;
    # a table without it has no Steinberg entry to compare
    N = group_order_poly(table.group).q_exp
    st = next((i for i, (a, _, _) in enumerate(inv) if a == N), None)
    if st is None:
        cases = []
    row_of = {lab: i for i, lab in enumerate(table.rows)}
    bad = []
    hits = []
    for lead_label, expected in cases:
        j = row_of.get(str(find_char(table.group, lead_label).label))
        if j is None:
            continue
        entry = table.entry(st, j)
        if entry != expected:
            bad.append(f"column {lead_label}: Steinberg entry {entry} != {expected}")
        else:
            hits.append(f"{lead_label} -> {expected}")
    if bad:
        return CheckReport("steinberg", "fail", bad)
    if not hits:
        return CheckReport("steinberg", "warn", ["no applicable column in this table"])
    return CheckReport("steinberg", "pass", hits)


# ---------------------------------------------------------------------------
# Deligne-Lusztig sign constraints

def check_dl_constraints(table, cls, columns):
    """Express R_w in the PIM basis and assert sign constraints on `columns`.

    `columns` holds 1-based column indices for which the PIM provably does
    not occur in any smaller R_v so that (DL) applies; the derived affine
    inequalities (-1)^l(w) * coefficient >= 0 are returned and checked for
    consistency on the admissible box.  An index outside 1..size raises
    ValueError.
    """
    for j in columns:
        if not 1 <= j <= table.size():
            raise ValueError(f"column index {j} outside 1..{table.size()}")
    try:
        v = dl_vector(table.group, cls)
    except UnsupportedGroupError as exc:
        return CheckReport("dl", "warn", [str(exc)])
    vec = {}
    for lab in table.rows:
        val = v[lab]
        if val.denominator != 1:
            return CheckReport("dl", "fail", [f"non-integral <{lab}, R_w> = {val}"])
        vec[lab] = int(val)
    coeffs = decompose_in_columns(table, vec)
    eps = sign_value(cls)
    box = ParamBox(table)
    ineqs = []
    bad = []
    for j in columns:
        expr = coeffs[j - 1] * eps
        ineqs.append((j, expr))
        lo, hi = box.bounds(expr)
        if hi < 0:
            bad.append(f"column {j}: coefficient {expr} is negative for all "
                       f"admissible parameters")
    rep = CheckReport("dl", "fail" if bad else "pass",
                      bad or [f"col {j}: {e} >= 0" for j, e in ineqs])
    rep.data["inequalities"] = ineqs
    return rep


# ---------------------------------------------------------------------------
# Harish-Chandra consistency: (HCi) decomposition and (HCr) subsum search

MAX_SUBSUM_SUPPORT = 14


def hc_induced_columns(levi_group, levi_table, target_group, target_table):
    """(HCi): induce every Levi PIM and decompose it in the target columns.

    Returns a CheckReport whose `data["decompositions"]` holds the list of
    coefficient vectors (ParamExprs, as `decompose_in_columns` gives them);
    failure means some induced projective has a provably negative
    coefficient.  The back-substitution runs on ints while it can
    (`_backsub`), and only a ParamExpr coefficient is bounded on the box.
    """
    from .hc import hc_induce
    box = ParamBox(target_table)
    bad = []
    decomps = []
    rows = levi_table.rows
    for j, column in enumerate(levi_table.columns):
        vec = hc_induce(levi_group, {rows[i]: e for i, e in column.entries.items()},
                        target_group)
        coeffs = _backsub(target_table, vec)
        decomps.append([_expr(c) for c in coeffs])
        for k, c in enumerate(coeffs):
            if (box.bounds(c)[1] if isinstance(c, ParamExpr) else c) < 0:
                bad.append(f"Levi column {j + 1}: coefficient {_expr(c)} on column {k + 1} "
                           "is negative")
    rep = CheckReport("hc-induce", "fail" if bad else "pass",
                      bad or [f"{levi_table.size()} induced projectives decompose "
                              "nonnegatively"])
    rep.data["decompositions"] = decomps
    return rep


def restriction_nonneg(target_group, target_table, vector, levi_group, levi_table, box=None):
    """Does the HC restriction of `vector` decompose nonnegatively in Levi PIMs?

    `box` is the `ParamBox` of `levi_table`, built here if not given; only
    a ParamExpr coefficient is bounded on it."""
    from .hc import hc_restrict
    res = hc_restrict(target_group, vector, levi_group)
    if box is None:
        box = ParamBox(levi_table)
    return all((box.bounds(c)[0] if isinstance(c, ParamExpr) else c) >= 0
               for c in _backsub(levi_table, res))


def hcr_candidates(target_group, target_table, combo, levis):
    """All proper nonzero subsums of a projective passing (HCr) restriction tests.

    `combo` maps column indices to multiplicities; `levis` is a list of
    (levi_group, levi_table) pairs used for the restriction test, each
    table's `ParamBox` built once per call.  Subsums are returned as sorted
    tuples of (column index, multiplicity).  A column index outside
    0..size-1 raises ValueError.
    """
    from itertools import product as iproduct
    for j in combo:
        if not 0 <= j < target_table.size():
            raise ValueError(f"column index {j} outside 0..{target_table.size() - 1}")
    cols = sorted(combo)
    if sum(combo.values()) > MAX_SUBSUM_SUPPORT:
        raise ValueError("subsum support too large; refusing the exponential search")
    levis = [(lg, lt, ParamBox(lt)) for lg, lt in levis]
    out = []
    ranges = [range(combo[j] + 1) for j in cols]
    for mults in iproduct(*ranges):
        if not any(mults) or list(mults) == [combo[j] for j in cols]:
            continue
        coeffs = [0] * target_table.size()
        for j, m in zip(cols, mults):
            coeffs[j] = m
        vec = _recompose(target_table, coeffs)
        if all(restriction_nonneg(target_group, target_table, vec, lg, lt, box)
               for lg, lt, box in levis):
            out.append(tuple((j, m) for j, m in zip(cols, mults) if m))
    return out


# ---------------------------------------------------------------------------
# corpus access and the full per-table suite

@cache
def _data_root():
    """The shipped corpus directory, resolved once per process."""
    return os.fspath(importlib.resources.files("unipdec").joinpath("data"))


def _corpus_files(corpus, suffix, error):
    """Yield (subdirectory name, file name, text) for every corpus file
    ending in `suffix`: the `d*` subdirectories of `corpus` (the shipped
    data when None, `_data_root`) in name order, and their files in name
    order.  A `d*` entry that is not a directory is skipped.  The walk is
    one `os.scandir` per directory and each file is read by `open`, as
    UTF-8 with universal newlines; a file that is not UTF-8 raises `error`
    naming it."""
    root = _data_root() if corpus is None else os.fspath(pathlib.Path(corpus))
    with os.scandir(root) as entries:
        subs = sorted((e.name, e.path) for e in entries
                      if e.name.startswith("d") and e.is_dir())
    for sub, d_dir in subs:
        with os.scandir(d_dir) as entries:
            files = sorted((e.name, e.path) for e in entries if e.name.endswith(suffix))
        for f, path in files:
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise error(f"{sub}/{f}: {exc}") from exc
            yield sub, f, text


def corpus_tables(corpus=None):
    """Yield (relative path, DecompTable) for every shipped table.

    A table that is not UTF-8, does not parse, or whose `d` is not that of
    its directory d<n>, raises TableError naming the file.
    """
    for sub, f, text in _corpus_files(corpus, ".dmx", TableError):
        try:
            table = parse(text)
            if sub != f"d{table.d}":
                raise TableError(f"d = {table.d} but the directory is {sub}")
        except TableError as exc:
            raise TableError(f"{sub}/{f}: {exc}") from exc
        yield f"{sub}/{f}", table


def corpus_trees(corpus=None):
    """Yield (relative path, BrauerTree) for every shipped tree.

    A tree file that is not UTF-8, does not parse, names a label outside
    the catalog, or that does not sit in a directory d<n> with n >= 1,
    raises BlockError naming the file (and the line, from `load_trees`).
    """
    for sub, f, text in _corpus_files(corpus, ".trees", BlockError):
        try:
            d = int(sub[1:]) if sub[1:].isdecimal() else 0
            if d < 1:
                raise BlockError(f"directory {sub!r} is not d<n> with n >= 1")
            group = GroupDescriptor.parse(f[:-len(".trees")])
            trees = load_trees(text, group, d)
        except (BlockError, UnsupportedGroupError) as exc:
            raise BlockError(f"{sub}/{f}: {exc}") from exc
        for t in trees:
            yield f"{sub}/{f}", t


def check_satisfiable(table):
    """Is some assignment admissible?  "fail" only with a proof that none
    is; an empty witness search is "warn"."""
    system = table.system
    if system.negative_constant:
        i, j, value = system.negative_constant
        status, text = "fail", (f"entry ({table.rows[i]}, col {j + 1}) is the negative "
                                f"constant {value}")
    elif system.order is None:
        status, text = "warn", "cyclic parameter definitions: no witness search"
    elif sols := table.sample_admissible(bound=8):
        status, text = "pass", f"{len(sols)} witness assignments"
    elif not system.free:
        status, text = "fail", "no free parameters, and the one assignment is not admissible"
    else:
        status, text = "warn", "no admissible assignment found with free parameters <= 8"
    return CheckReport("satisfiable", status, [text])


def run_table_checks(table):
    """The standard per-table suite; returns the list of CheckReports."""
    checks = [check_degrees, check_unitriangular, check_craven]
    if table.d == 2:
        checks.append(check_steinberg_mults)
    checks.append(check_satisfiable)
    return [check(table) for check in checks]


def _selected(item, d, group):
    """Does a table or tree match `d` and `group` (None matches all)?"""
    return (d is None or item.d == d) and (group is None or item.group == group)


def tree_reports(corpus=None, d=None, group=None):
    """Yield (relative path, CheckReport "tree") for every corpus tree
    selected by `d` and `group`; the evidence is the failure or the chain.

    Every tree file is read, selected or not (`corpus_trees` raises on a
    bad one, naming the file and line).
    """
    for path, tree in corpus_trees(corpus):
        if not _selected(tree, d, group):
            continue
        rep = tree_check(tree)
        chain = " -- ".join(lab or "O" for lab in tree.chain)
        yield path, CheckReport("tree", rep.status, [rep.evidence or chain])


def corpus_reports(corpus=None, d=None, group=None):
    """Yield (relative path, CheckReport) for every check of the corpus
    selected by `d` and `group`: the tables' suites, then the trees."""
    for path, table in corpus_tables(corpus):
        if _selected(table, d, group):
            for rep in run_table_checks(table):
                yield path, rep
    yield from tree_reports(corpus, d, group)
