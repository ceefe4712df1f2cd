"""Decomposition tables with symbolic entries, their file format, and constraints.

Matrix entries are affine expressions in named nonnegative parameters
(`ParamExpr`); internal computations (back-substitution through a
unitriangular matrix) may produce genuine polynomials in the parameters,
which the same class supports.

File grammar, one table per file:

    [table]
    group = D4
    d = 2
    block = principal
    degrees = full            # or: leading
    params = a1 a2
    constraints = a1>=2; a2=3a1-2
    [chars]
    .4   | 1
    1.3  | q*P4^2
    [cols]
    series=ps : .4=1 1.3=2
    series=ps tentative : 1.3=1

Column i is led by row i (diagonal ones); only nonzero entries are listed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cyclo import CycloError, parse_factored
from .labels import GroupDescriptor, UnsupportedGroupError


class TableError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parameter expressions

_TERM_RE = re.compile(r"([+-]?)(\d*)([a-z][a-z0-9]*)?")


class ParamExpr:
    """Integer polynomial in named parameters, held as {monomial: coeff}.

    Monomials are sorted tuples of names; the empty tuple is the constant
    term.  Table files only ever contain affine expressions, but arithmetic
    on them is closed under multiplication for the verification engine.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[tuple(sorted(mono))] = c

    @classmethod
    def const(cls, c):
        return cls({(): int(c)})

    @classmethod
    def var(cls, name, coeff=1):
        return cls({(name,): coeff})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant(self):
        return self.terms.get((), 0)

    def names(self):
        out = set()
        for m in self.terms:
            out.update(m)
        return out

    def is_affine(self):
        return all(len(m) <= 1 for m in self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = ParamExpr.const(other)
        return isinstance(other, ParamExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = ParamExpr.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return ParamExpr(out)

    __radd__ = __add__

    def __neg__(self):
        return ParamExpr({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = ParamExpr.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return ParamExpr.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ParamExpr({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return ParamExpr(out)

    __rmul__ = __mul__

    def evaluate(self, assignment):
        total = 0
        for m, c in self.terms.items():
            v = c
            for name in m:
                v *= assignment[name]
            total += v
        return total

    def substitute(self, assignment):
        """Partially substitute some parameters by integers."""
        out = ParamExpr()
        for m, c in self.terms.items():
            coeff = c
            rest = []
            for name in m:
                if name in assignment:
                    coeff *= assignment[name]
                else:
                    rest.append(name)
            out = out + ParamExpr({tuple(sorted(rest)): coeff})
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])):
            name = "".join(m) if len(m) <= 1 else "*".join(m)
            if not m:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = name
            else:
                piece = f"{abs(c)}{name}" if len(m) <= 1 else f"{abs(c)}*{name}"
            parts.append(("-" if c < 0 else "+", piece))
        sign0, first = parts[0]
        text = ("-" if sign0 == "-" else "") + first
        for sgn, piece in parts[1:]:
            text += sgn + piece
        return text

    __repr__ = __str__


def parse_expr(text):
    """Parse an integer-affine expression like '24-15c17-5c18+6c19' or '2-d'."""
    text = text.replace(" ", "")
    if not text:
        raise TableError("empty expression")
    out = ParamExpr()
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise TableError(f"cannot parse expression {text!r} at {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        num = int(m.group(2)) if m.group(2) else 1
        name = m.group(3)
        if not m.group(2) and not name:
            raise TableError(f"dangling sign in {text!r}")
        if name:
            out = out + ParamExpr.var(name, sign * num)
        else:
            out = out + ParamExpr.const(sign * num)
        pos = m.end()
    return out


# ---------------------------------------------------------------------------
# constraints

@dataclass(frozen=True)
class Constraint:
    """lhs (ParamExpr)  rel  0, rel in {>=, <=, =} after moving rhs across."""

    expr: ParamExpr
    rel: str

    def holds(self, assignment):
        v = self.expr.evaluate(assignment)
        return v == 0 if self.rel == "=" else v >= 0

    def __str__(self):
        return f"{self.expr}{self.rel}0"


def parse_constraint(text):
    for op in (">=", "<=", "="):
        if op in text:
            lhs, rhs = text.split(op, 1)
            diff = parse_expr(lhs) - parse_expr(rhs)
            if op == "<=":
                diff, op = -diff, ">="
            return Constraint(diff, op if op == "=" else ">=")
    raise TableError(f"no relation in constraint {text!r}")


# ---------------------------------------------------------------------------
# the table

@dataclass
class Column:
    series: str
    tentative: bool
    entries: dict  # row index -> ParamExpr


@dataclass
class DecompTable:
    group: GroupDescriptor
    d: int
    block: str
    degrees_kind: str  # "full" | "leading" | "none"
    params: tuple
    constraints: tuple
    rows: tuple        # label strings, in order
    row_degrees: tuple  # FactoredPoly or None per row
    columns: tuple     # Column, one per row

    def entry(self, i, j):
        return self.columns[j].entries.get(i, ParamExpr())

    def size(self):
        return len(self.rows)

    def name(self):
        return f"{self.group}.d{self.d}.{self.block}"

    # -- admissible parameter assignments ----------------------------------

    @cached_property
    def system(self):
        """The parameter system, compiled on first use (see ParamSystem).

        It is kept for the table's lifetime: tables are not modified after
        parsing.
        """
        return ParamSystem.compile(self)

    def free_and_defined(self):
        """Split params into free ones and ones defined by an equality."""
        defined = {}
        for c in self.constraints:
            if c.rel != "=":
                continue
            # a definition looks like  p - rest = 0  with p not defined yet
            for m, coeff in c.expr.terms.items():
                if len(m) == 1 and abs(coeff) == 1 and m[0] not in defined:
                    rest = (c.expr - ParamExpr.var(m[0], coeff)) * (-coeff)
                    if m[0] not in rest.names():
                        defined[m[0]] = rest
                        break
        free = tuple(p for p in self.params if p not in defined)
        return free, defined

    def resolve(self, free_assignment):
        """Extend an assignment of the free parameters to all parameters."""
        order = self.system.order
        if order is None:
            raise TableError("cyclic parameter definitions")
        out = dict(free_assignment)
        for name, form in order:
            out[name] = _value(form, out)
        return out

    def is_admissible(self, assignment):
        system = self.system
        if system.negative_constant or any(v < 0 for v in assignment.values()):
            return False
        for is_equality, form in system.constraints:
            v = _value(form, assignment)
            if v < 0 or is_equality and v:
                return False
        # every matrix entry must be a nonnegative integer
        return all(_value(form, assignment) >= 0 for form in system.entries)

    def sample_admissible(self, bound=30, limit=4000):
        """Deterministic search for admissible assignments of the free params.

        Each free parameter runs from its lower bound (`lows`, from the
        one-variable constraints) up to `bound`.  Candidates come by total
        excess over the lower bounds, smallest first, and within one excess
        in increasing lexicographic order of the excess tuple, so the last
        free parameter takes the excess first.  The search stops at 8
        witnesses; it examines no candidate past the `limit`-th once it has
        a witness, and none past the (50 * `limit`)-th.  A witness is the dict
        `resolve` gives: free parameters in order, then defined ones in
        the order they are assigned.  Cyclic definitions or a negative
        constant entry admit no witness, so the search then returns []
        without enumerating.
        """
        system = self.system
        if system.order is None or system.negative_constant:
            return []
        free, lows = system.free, system.lows
        found = []
        tried = 0

        def compositions(total, k, caps):
            if k == 1:
                if total <= caps[0]:
                    yield (total,)
                return
            for first in range(min(total, caps[0]) + 1):
                for rest in compositions(total - first, k - 1, caps[1:]):
                    yield (first,) + rest

        caps = [bound - lows[p] for p in free]
        # smallest assignments first: enumerate by total excess over the bounds
        for excess in range(sum(caps) + 1):
            for combo in compositions(excess, len(free), caps) if free else [()]:
                tried += 1
                if tried > limit and found or tried > 50 * limit:
                    return found
                full = self.resolve({p: lows[p] + c for p, c in zip(free, combo)})
                if self.is_admissible(full):
                    found.append(full)
                    if len(found) >= 8:
                        return found
            if not free:
                break
        return found


def _form(expr):
    """An expression as an integer form (const, ((coeff, monomial), ...))."""
    return expr.constant(), tuple((c, m) for m, c in expr.terms.items() if m)


def _value(form, assignment):
    total, terms = form
    for coeff, mono in terms:
        for name in mono:
            coeff *= assignment[name]
        total += coeff
    return total


@dataclass(frozen=True)
class ParamSystem:
    """A table's parameters and conditions, derived once per table.

    `free` and `defined` are `free_and_defined()`; `order` pairs each
    defined parameter with its defining form in the order `resolve`
    assigns them (None if the definitions are cyclic); `lows` are the lower
    bounds of the free parameters from one-variable constraints;
    `constraints` holds (is_equality, form) pairs; `entries` holds the
    distinct non-constant matrix entries as forms, and `negative_constant`
    says whether some constant entry is negative.
    """

    free: tuple
    defined: dict
    order: tuple | None
    lows: dict
    constraints: tuple
    entries: tuple
    negative_constant: bool

    @classmethod
    def compile(cls, table):
        free, defined = table.free_and_defined()
        known = set(free)
        pending = dict(defined)
        order = []
        while pending:
            progress = False
            for name, expr in list(pending.items()):
                if expr.names() <= known:
                    order.append((name, _form(expr)))
                    known.add(name)
                    del pending[name]
                    progress = True
            if not progress:
                order = None
                break
        lows = {}
        for p in free:
            lows[p] = 0
            for c in table.constraints:
                if c.rel == ">=" and set(c.expr.names()) == {p}:
                    coeff = c.expr.terms.get((p,), 0)
                    const = c.expr.constant()
                    if coeff > 0 and const < 0:
                        lows[p] = max(lows[p], (-const + coeff - 1) // coeff)
        entries = {}
        negative_constant = False
        for col in table.columns:
            for expr in col.entries.values():
                if expr.is_constant():
                    negative_constant |= expr.constant() < 0
                else:
                    entries[_form(expr)] = None
        return cls(free, defined, None if order is None else tuple(order), lows,
                   tuple((c.rel == "=", _form(c.expr)) for c in table.constraints),
                   tuple(entries), negative_constant)


# ---------------------------------------------------------------------------
# parse / emit

def parse(text, group=None):
    section = None
    meta = {}
    meta_line = {}
    chars = []
    cols = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip() in ("[table]", "[chars]", "[cols]"):
            section = line.strip()[1:-1]
            continue
        if section == "table":
            if "=" not in line:
                raise TableError(f"line {lineno}: bad key/value {line!r}")
            k, v = line.split("=", 1)
            meta[k.strip()] = v.strip()
            meta_line[k.strip()] = lineno
        elif section == "chars":
            if "|" in line:
                lab, deg = line.split("|", 1)
                chars.append((lab.strip(), deg.strip(), lineno))
            else:
                chars.append((line.strip(), "", lineno))
        elif section == "cols":
            head, _, body = line.partition(":")
            tags = head.split()
            series = ""
            tentative = False
            for t in tags:
                if t.startswith("series="):
                    series = t[len("series="):]
                elif t == "tentative":
                    tentative = True
                else:
                    raise TableError(f"line {lineno}: bad column tag {t!r}")
            entries = {}
            for piece in body.split():
                if "=" not in piece:
                    raise TableError(f"line {lineno}: bad entry {piece!r}")
                lab, expr = piece.split("=", 1)
                entries[lab] = parse_expr(expr)
            cols.append((series, tentative, entries))
        else:
            raise TableError(f"line {lineno}: text outside any section")
    if not chars:
        raise TableError("no rows")
    if group is None:
        if "group" not in meta:
            raise TableError("no 'group' key in [table]")
        try:
            group = GroupDescriptor.parse(meta["group"])
        except UnsupportedGroupError as exc:
            raise TableError(f"line {meta_line['group']}: {exc}") from exc
    try:
        d = int(meta.get("d", "0"))
    except ValueError:
        raise TableError(f"line {meta_line['d']}: d must be an integer, "
                         f"not {meta['d']!r}") from None
    params = tuple(meta.get("params", "").split())
    constraints = tuple(parse_constraint(c) for c in meta.get("constraints", "").split(";")
                        if c.strip())
    degrees_kind = meta.get("degrees", "none")
    canonical = {}

    def canon(text):
        # row labels are stored in canonical orientation so vectors computed
        # from the catalogs match up with the table rows; each distinct text
        # is resolved once per file
        from .labels import LabelError, resolve_label
        if group.series not in ("A", "2A", "B", "C", "D", "2D"):
            return text
        if text not in canonical:
            try:
                canonical[text] = str(resolve_label(group, text))
            except LabelError as exc:
                raise TableError(str(exc))
        return canonical[text]

    def degree(text, lineno):
        try:
            return parse_factored(text)
        except CycloError as exc:
            raise TableError(f"line {lineno}: {exc}") from exc

    row_labels = tuple(canon(lab) for lab, _, _ in chars)
    row_index = {lab: i for i, lab in enumerate(row_labels)}
    if len(row_index) != len(row_labels):
        raise TableError("duplicate row label")
    row_degrees = tuple(degree(deg, lineno) if deg else None for _, deg, lineno in chars)
    columns = []
    for j, (series, tentative, entries) in enumerate(cols):
        by_index = {}
        for lab, expr in entries.items():
            lab = canon(lab)
            if lab not in row_index:
                raise TableError(f"column {j + 1}: unknown label {lab!r}")
            by_index[row_index[lab]] = expr
        columns.append(Column(series, tentative, by_index))
    if len(columns) != len(row_labels):
        raise TableError(f"{len(columns)} columns for {len(row_labels)} rows")
    for j, col in enumerate(columns):
        if col.entries.get(j) != ParamExpr.const(1):
            raise TableError(f"column {j + 1} has no diagonal 1 at {row_labels[j]!r}")
        if any(i < j for i in col.entries):
            raise TableError(f"column {j + 1} has entries above the diagonal")
    unknown = set()
    for col in columns:
        for e in col.entries.values():
            unknown |= e.names()
    for c in constraints:
        unknown |= c.expr.names()
    if not unknown <= set(params):
        raise TableError(f"undeclared parameters {sorted(unknown - set(params))}")
    return DecompTable(group, d, meta.get("block", "principal"), degrees_kind,
                       params, constraints, row_labels, row_degrees, tuple(columns))


def emit(table):
    out = ["[table]", f"group = {table.group}", f"d = {table.d}",
           f"block = {table.block}", f"degrees = {table.degrees_kind}"]
    if table.params:
        out.append("params = " + " ".join(table.params))
    if table.constraints:
        out.append("constraints = " + "; ".join(_emit_constraint(c) for c in table.constraints))
    out.append("[chars]")
    width = max(len(l) for l in table.rows)
    for lab, deg in zip(table.rows, table.row_degrees):
        if deg is None:
            out.append(lab)
        else:
            out.append(f"{lab.ljust(width)} | {deg}")
    out.append("[cols]")
    for col in table.columns:
        head = f"series={col.series}" + (" tentative" if col.tentative else "")
        body = " ".join(f"{table.rows[i]}={col.entries[i]}"
                        for i in sorted(col.entries))
        out.append(f"{head} : {body}")
    return "\n".join(out) + "\n"


def _emit_constraint(c):
    # print p>=k and p<=k style constraints back in a readable way
    pos = ParamExpr({m: v for m, v in c.expr.terms.items() if v > 0 and m != ()})
    neg = ParamExpr({m: -v for m, v in c.expr.terms.items() if v < 0 and m != ()})
    const = c.expr.constant()
    rel = "=" if c.rel == "=" else ">="
    if const < 0:
        return f"{pos - neg}{rel}{-const}"
    return f"{pos + const}{rel}{neg}"
