"""The verification engine: executable consistency checks over shipped tables.

Each check returns a CheckReport carrying a status ("pass" / "fail" / "warn")
and human-readable evidence.  Symbolic entries are handled by exact interval
reasoning over the admissible parameter box (free parameters range over
[lower bound, 30]; equality constraints are substituted first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .degrees import UnsupportedGroupError, find_char, perversity
from .fourier import dl_vector
from .labels import GroupDescriptor, LabelError
from .tables import ParamExpr
from .weyl import sign_value


@dataclass
class CheckReport:
    check: str
    status: str
    evidence: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def __bool__(self):
        return self.status == "pass"

    def line(self, table_id=""):
        ev = "; ".join(self.evidence[:4])
        return f"{table_id:28s} {self.check:16s} {self.status:4s}  {ev}"


# ---------------------------------------------------------------------------
# parameter box reasoning

class ParamBox:
    """Sound bounds for affine expressions over the admissible assignments."""

    def __init__(self, table, hi=30):
        self.table = table
        self.hi = hi
        system = table.system
        self.free, self.defined, self.low = system.free, system.defined, system.lows
        self.high = {}
        for p in self.free:
            up = hi
            for c in table.constraints:
                if c.rel == ">=" and set(c.expr.names()) == {p}:
                    coeff = c.expr.terms.get((p,), 0)
                    const = c.expr.constant()
                    if coeff < 0:
                        up = min(up, const // (-coeff))
            self.high[p] = max(up, self.low[p])
        self._samples = None

    def reduce(self, expr):
        """Substitute defined parameters until only free ones remain."""
        guard = 0
        while expr.names() & set(self.defined) and guard < 20:
            for name in list(expr.names() & set(self.defined)):
                # replace name by its defining expression
                out = ParamExpr()
                for mono, c in expr.terms.items():
                    if name in mono:
                        rest = list(mono)
                        rest.remove(name)
                        out = out + ParamExpr({tuple(rest): c}) * self.defined[name]
                    else:
                        out = out + ParamExpr({mono: c})
                expr = out
            guard += 1
        return expr

    def bounds(self, expr):
        """(lower, upper) over the box, ignoring joint constraints (sound)."""
        expr = self.reduce(expr)
        lo = hi = expr.constant()
        for mono, c in expr.terms.items():
            if not mono:
                continue
            lo_m = 1
            hi_m = 1
            for name in mono:
                lo_m *= self.low.get(name, 0)
                hi_m *= self.high.get(name, self.hi)
            if c > 0:
                lo += c * lo_m
                hi += c * hi_m
            else:
                lo += c * hi_m
                hi += c * lo_m
        return lo, hi

    def samples(self, limit=6):
        if self._samples is None:
            self._samples = self.table.sample_admissible(bound=min(self.hi, 8)) or []
        return self._samples[:limit]

    def provably_zero(self, expr):
        red = self.reduce(expr)
        if red.is_zero():
            return True
        lo, hi = self.bounds(expr)
        return lo == 0 and hi == 0

    def provably_nonneg(self, expr):
        return self.bounds(expr)[0] >= 0

    def provably_positive(self, expr):
        return self.bounds(expr)[0] > 0

    def possibly_nonzero(self, expr):
        # an entry counts as possibly nonzero unless it vanishes identically
        # on the whole box; free parameters always admit positive values
        return not self.provably_zero(expr)


# ---------------------------------------------------------------------------
# degrees attached to table rows

def row_chars(table):
    """Catalog characters for the rows (None where the catalog has no entry)."""
    return _row_chars(table.group, table.rows)


@lru_cache(maxsize=None)
def _row_chars(group, rows):
    out = []
    for lab in rows:
        try:
            out.append(find_char(group, lab))
        except (LabelError, UnsupportedGroupError):
            out.append(None)
    return tuple(out)


def check_degrees(table):
    """Row degree strings match the catalog (exactly, or to leading term)."""
    if table.degrees_kind == "none":
        return CheckReport("degrees", "warn", ["no degree column shipped"])
    chars = row_chars(table)
    bad = []
    for lab, deg, c in zip(table.rows, table.row_degrees, chars):
        if c is None:
            bad.append(f"{lab}: not in catalog")
            continue
        if deg is None:
            continue
        if table.degrees_kind == "full":
            if deg != c.degree:
                bad.append(f"{lab}: {deg} != {c.degree}")
        else:
            if (deg.scalar, deg.q_exp) != (c.degree.scalar, c.degree.q_exp):
                bad.append(f"{lab}: leading {deg} != {c.degree}")
    return CheckReport("degrees", "fail" if bad else "pass", bad)


# ---------------------------------------------------------------------------
# unitriangularity with a/A-monotonicity

def check_unitriangular(table):
    box = ParamBox(table)
    chars = row_chars(table)
    bad = []
    tentative_bad = []
    have_degrees = all(c is not None for c in chars)
    for j, col in enumerate(table.columns):
        sink = tentative_bad if col.tentative else bad
        if col.entries.get(j) != ParamExpr.const(1):
            sink.append(f"column {j + 1}: diagonal entry is not 1")
        for i, expr in col.entries.items():
            if i == j or not box.possibly_nonzero(expr):
                continue
            if i < j:
                sink.append(f"entry ({table.rows[i]}, col {j + 1}) above the diagonal")
            elif have_degrees:
                ri, rj = chars[i].degree, chars[j].degree
                if not (ri.a_value() > rj.a_value() and ri.A_value() > rj.A_value()):
                    sink.append("a/A-monotonicity fails at "
                                f"({table.rows[i]}, col {table.rows[j]})")
    status = "fail" if bad else ("warn" if (tentative_bad or not have_degrees)
                                 else "pass")
    evidence = bad or [f"tentative column: {e}" for e in tentative_bad]
    if not have_degrees and not evidence:
        evidence = ["no catalog degrees: a/A-monotonicity not checked"]
    return CheckReport("unitriangular", status, evidence)


# ---------------------------------------------------------------------------
# Craven's perversity check

def check_craven(table, d=None):
    """Perversity comparison on every entry; returns forced zeros.

    An entry that cannot vanish at a position with pi_d(row) <= pi_d(column
    leader) is a conjecture violation; a parameter entry there is forced
    to zero.
    """
    d = d or table.d
    chars = row_chars(table)
    if any(c is None for c in chars):
        return CheckReport("craven", "warn", ["degrees unavailable; check skipped"])
    box = ParamBox(table)
    pi = [perversity(c, d) for c in chars]
    violations = []
    forced = set()
    relations = []
    for j, col in enumerate(table.columns):
        for i, expr in col.entries.items():
            if i == j or not box.possibly_nonzero(expr):
                continue
            if pi[i] <= pi[j]:
                red = box.reduce(expr)
                if box.provably_positive(red):
                    msg = (f"entry ({table.rows[i]}, col {table.rows[j]}) = {expr} "
                           f"nonzero but pi_{d}(row) = {pi[i]} <= {pi[j]}")
                    if col.tentative:
                        relations.append("tentative column: " + msg)
                    else:
                        violations.append(msg)
                    continue
                names = sorted(red.names())
                if (not red.constant() and red.is_affine()
                        and all(v > 0 for m, v in red.terms.items() if m)):
                    forced |= set(names)
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
        e = vec.get(lab)
        if e and not (isinstance(e, int) and e == 0):
            if isinstance(e, ParamExpr) and e.is_zero():
                continue
            return i
    return len(order)


def echelonize(projs, order):
    """Greedy partial echelonisation of projective-character vectors.

    Vectors are dicts label -> nonnegative int.  Working through the other
    vectors in increasing order of their leading label, each one is
    subtracted as dictated by the coefficient at its leading label, as long
    as the difference stays entrywise nonnegative.  Deterministic,
    idempotent; zero vectors and duplicates are dropped.
    """
    vecs = []
    for v in projs:
        vecs.append({k: int(c) for k, c in v.items() if int(c) != 0})
        if any(c < 0 for c in vecs[-1].values()):
            raise ValueError("projective vector with a negative entry")
    changed = True
    while changed:
        changed = False
        vecs.sort(key=lambda v: (_lead(v, order), sorted(v.items())))
        for a in range(len(vecs)):
            remainder = dict(vecs[a])
            la = _lead(remainder, order)
            for b in sorted((i for i in range(len(vecs)) if i != a),
                            key=lambda i: (_lead(vecs[i], order), i)):
                u = vecs[b]
                if not u or not remainder:
                    continue
                lu = _lead(u, order)
                if lu >= len(order) or lu < la:
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
                if lu > la and _lead(cand, order) != la:
                    continue  # subtraction may not disturb the leading part
                remainder = cand
                la = _lead(remainder, order)
            if remainder != vecs[a]:
                vecs[a] = remainder
                changed = True
        vecs = [v for v in vecs if v]
        deduped = []
        for v in vecs:
            if v not in deduped:
                deduped.append(v)
        if len(deduped) != len(vecs):
            changed = True
        vecs = deduped
    vecs.sort(key=lambda v: (_lead(v, order), sorted(v.items())))
    return vecs


# ---------------------------------------------------------------------------
# back-substitution through a unitriangular table

def decompose_in_columns(table, vector, box=None):
    """Coefficients c with vector = sum c_j * column_j; exact back-substitution.

    `vector` maps row labels to integers (or ParamExpr).  Returns a list of
    ParamExpr coefficients.
    """
    n = table.size()
    coeffs = [ParamExpr() for _ in range(n)]
    for j in range(n):
        val = vector.get(table.rows[j], 0)
        expr = val if isinstance(val, ParamExpr) else ParamExpr.const(val)
        for k in range(j):
            ckj = table.entry(j, k)
            if not ckj.is_zero() and not coeffs[k].is_zero():
                expr = expr - coeffs[k] * ckj
        coeffs[j] = expr
    return coeffs


def recompose(table, coeffs):
    out = {}
    for j, c in enumerate(coeffs):
        if c.is_zero():
            continue
        for i, e in table.columns[j].entries.items():
            lab = table.rows[i]
            out[lab] = out.get(lab, ParamExpr()) + c * e
    return out


def check_backsub_roundtrip(table, vector):
    """vector -> coefficients -> vector must be the identity (exactness)."""
    coeffs = decompose_in_columns(table, vector)
    back = recompose(table, coeffs)
    for lab in table.rows:
        want = vector.get(lab, 0)
        want = want if isinstance(want, ParamExpr) else ParamExpr.const(want)
        if back.get(lab, ParamExpr()) != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Steinberg multiplicities (d = 2 only)

def _steinberg_cases(group):
    s, n = group.series, group.rank
    cases = []
    if s == "D" and n % 2 == 0 and n >= 4:
        cases.append((f"1.1^{n - 1}" if n > 2 else "1.1", n))
    elif s == "2D" and n % 2 == 1 and n >= 5:
        tail = f".21^{n - 3}" if n > 4 else ".21"
        cases.append((tail, n))
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
    chars = row_chars(table)
    if any(c is None for c in chars):
        return CheckReport("steinberg", "warn", ["degrees unavailable"])
    # the Steinberg character is the one of largest a-value
    st = max(range(len(chars)), key=lambda i: chars[i].degree.a_value())
    bad = []
    hits = []
    for lead_label, expected in cases:
        try:
            canon = str(find_char(table.group, lead_label).label)
        except LabelError:
            bad.append(f"{lead_label}: not in catalog")
            continue
        row_of = {lab: i for i, lab in enumerate(table.rows)}
        if canon not in row_of:
            continue
        j = row_of[canon]
        entry = table.entry(st, j)
        if entry != ParamExpr.const(expected):
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
    consistency on the admissible box.
    """
    try:
        v = dl_vector(table.group, cls)
    except UnsupportedGroupError as exc:
        return CheckReport("dl", "warn", [str(exc)])
    vec = {}
    for lab in table.rows:
        canon = str(find_char(table.group, lab).label)
        val = v[canon]
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

    Returns a CheckReport plus the list of coefficient vectors; failure means
    some induced projective has a provably negative coefficient.
    """
    from .hc import hc_induce, table_column_vector
    box = ParamBox(target_table)
    bad = []
    decomps = []
    for j in range(levi_table.size()):
        vec = hc_induce(levi_group, table_column_vector(levi_table, j), target_group)
        coeffs = decompose_in_columns(target_table, vec)
        decomps.append(coeffs)
        for k, c in enumerate(coeffs):
            lo, hi = box.bounds(c)
            if hi < 0:
                bad.append(f"Levi column {j + 1}: coefficient {c} on column {k + 1} "
                           "is negative")
    rep = CheckReport("hc-induce", "fail" if bad else "pass",
                      bad or [f"{levi_table.size()} induced projectives decompose "
                              "nonnegatively"])
    rep.data["decompositions"] = decomps
    return rep


def restriction_nonneg(target_group, target_table, vector, levi_group, levi_table):
    """Does the HC restriction of `vector` decompose nonnegatively in Levi PIMs?"""
    from .hc import hc_restrict
    res = hc_restrict(target_group, vector, levi_group)
    coeffs = decompose_in_columns(levi_table, res)
    box = ParamBox(levi_table)
    return all(box.bounds(c)[0] >= 0 for c in coeffs)


def hcr_candidates(target_group, target_table, combo, levis):
    """All proper nonzero subsums of a projective passing (HCr) restriction tests.

    `combo` maps column indices to multiplicities; `levis` is a list of
    (levi_group, levi_table) pairs used for the restriction test.  Subsums
    are returned as sorted tuples of (column index, multiplicity).
    """
    from itertools import product as iproduct
    cols = sorted(combo)
    if sum(combo.values()) > MAX_SUBSUM_SUPPORT:
        raise ValueError("subsum support too large; refusing the exponential search")
    out = []
    ranges = [range(combo[j] + 1) for j in cols]
    for mults in iproduct(*ranges):
        if not any(mults) or list(mults) == [combo[j] for j in cols]:
            continue
        vec = {}
        for j, m in zip(cols, mults):
            if not m:
                continue
            for i, e in target_table.columns[j].entries.items():
                lab = target_table.rows[i]
                vec[lab] = vec.get(lab, ParamExpr()) + m * e
        if all(restriction_nonneg(target_group, target_table, vec, lg, lt)
               for lg, lt in levis):
            out.append(tuple((j, m) for j, m in zip(cols, mults) if m))
    return out


# ---------------------------------------------------------------------------
# corpus access and the full per-table suite

def corpus_tables(corpus=None):
    """Yield (relative path, DecompTable) for every shipped table."""
    import importlib.resources
    import pathlib
    from . import tables as tmod
    if corpus is None:
        root = importlib.resources.files("unipdec").joinpath("data")
    else:
        root = pathlib.Path(corpus)
    for sub in sorted(p.name for p in root.iterdir() if p.name.startswith("d")):
        d_dir = root.joinpath(sub)
        if not d_dir.is_dir():
            continue
        for f in sorted(p.name for p in d_dir.iterdir() if p.name.endswith(".dmx")):
            try:
                yield f"{sub}/{f}", tmod.parse(d_dir.joinpath(f).read_text())
            except tmod.TableError as exc:
                raise tmod.TableError(f"{sub}/{f}: {exc}") from exc


def corpus_trees(corpus=None):
    """Yield (relative path, BrauerTree) for every shipped tree.

    A tree file that does not parse raises BlockError naming the file.
    """
    import importlib.resources
    import pathlib
    from .blocks import BlockError, load_trees
    if corpus is None:
        root = importlib.resources.files("unipdec").joinpath("data")
    else:
        root = pathlib.Path(corpus)
    for sub in sorted(p.name for p in root.iterdir() if p.name.startswith("d")):
        d_dir = root.joinpath(sub)
        if not d_dir.is_dir():
            continue
        for f in sorted(p.name for p in d_dir.iterdir() if p.name.endswith(".trees")):
            d = int(sub[1:])
            try:
                group = GroupDescriptor.parse(f[:-len(".trees")])
                trees = load_trees(d_dir.joinpath(f).read_text(), group, d)
            except (BlockError, UnsupportedGroupError) as exc:
                raise BlockError(f"{sub}/{f}: {exc}") from exc
            for t in trees:
                yield f"{sub}/{f}", t


def run_table_checks(table):
    """The standard per-table suite; returns the list of CheckReports."""
    reports = [check_degrees(table), check_unitriangular(table), check_craven(table)]
    if table.d == 2:
        reports.append(check_steinberg_mults(table))
    sols = table.sample_admissible(bound=8)
    reports.append(CheckReport("satisfiable", "pass" if sols or not table.params
                               else "fail",
                               [f"{len(sols)} witness assignments" if sols else
                                ("no parameters" if not table.params else
                                 "no admissible assignment found")]))
    return reports


from .roots import coxeter_number, regular_height_bound  # noqa: E402,F401
