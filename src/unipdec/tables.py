"""Decomposition tables with symbolic entries, their file format, and constraints.

A matrix entry is an `int`, or, when it names a parameter, an affine
expression in named nonnegative parameters (`ParamExpr`); `parse_entry` is
the one place that makes this choice.  Internal computations
(back-substitution through a unitriangular matrix) may produce genuine
polynomials in the parameters, which the same class supports.

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
Every label is resolved once per file, by `degrees.find_char`, to the
character of the group's catalog that it names; `DecompTable.chars` holds
the rows' characters (None for E7 and E8, which ship no catalog: there a
label is only held to the syntax of `_E78_LABEL`).  A parsed table is
an immutable value (frozen, with read-only entries and terms), so entries
are shared, `parse` hands out one table per text, and a changed table is a
`dataclasses.replace` copy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import inf
from types import MappingProxyType

from .cyclo import CycloError, parse_factored
from .degrees import catalog_map, find_char, perversity_numerator
from .labels import GroupDescriptor, LabelError, UnsupportedGroupError


class TableError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parameter expressions

_TERM_RE = re.compile(r"([+-]?)(\d*)([a-z][a-z0-9]*)?")


class ParamExpr:
    """Integer polynomial in named parameters, held as a read-only
    {monomial: coeff} mapping, so one ParamExpr can be shared.

    Monomials are sorted tuples of names; the empty tuple is the constant
    term.  Terms keep their first-seen order, which `free_and_defined`
    reads.  Table files only ever contain affine expressions, but arithmetic
    on them is closed under multiplication for the verification engine.

    It mixes with `int` (`k + e` is `ParamExpr.const(k) + e`) and is false
    only when zero, so a coefficient can stay an int until a parameter
    enters; a float or Fraction operand of + or - is a TypeError.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        out = {}
        for mono, c in (terms or {}).items():
            mono = tuple(sorted(mono))
            out[mono] = out.get(mono, 0) + c
        self.terms = MappingProxyType({m: c for m, c in out.items() if c})

    @classmethod
    def _of_sorted(cls, terms):
        """From {monomial: coeff} whose monomials are already sorted tuples
        (as they are in every ParamExpr): zero coefficients are dropped and
        the order is kept, as the constructor would, without re-sorting."""
        out = cls.__new__(cls)
        out.terms = MappingProxyType({m: c for m, c in terms.items() if c})
        return out

    @classmethod
    def const(cls, c):
        """The constant `c`, one shared instance per int."""
        return _const(c if type(c) is int else _integer(c))

    @classmethod
    def var(cls, name, coeff=1):
        return cls({(name,): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

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
        # computed on the first call and kept: the terms are read-only.  A
        # constant equals its int, so it hashes as one
        try:
            return self._hash
        except AttributeError:
            terms = self.terms
            if not terms or len(terms) == 1 and () in terms:
                self._hash = hash(terms.get((), 0))
            else:
                self._hash = hash(frozenset(terms.items()))
            return self._hash

    def __add__(self, other):
        if isinstance(other, int):
            other = ParamExpr.const(other)
        elif not isinstance(other, ParamExpr):
            return NotImplemented
        out = self.terms.copy()
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return ParamExpr._of_sorted(out)

    def __radd__(self, other):
        return ParamExpr.const(other) + self if isinstance(other, int) else NotImplemented

    def __neg__(self):
        return ParamExpr._of_sorted({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other) if isinstance(other, (int, ParamExpr)) else NotImplemented

    def __rsub__(self, other):
        return ParamExpr.const(other) - self if isinstance(other, int) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _integer(other)
            return ParamExpr._of_sorted({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, ParamExpr):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return ParamExpr._of_sorted(out)

    __rmul__ = __mul__

    def evaluate(self, assignment):
        total = 0
        for m, c in self.terms.items():
            v = c
            for name in m:
                v *= assignment[name]
            total += v
        return total

    def substitute(self, values):
        """Replace the parameters in `values` by their ParamExprs, summing
        the products of every term into one dict."""
        out = {}
        for mono, c in self.terms.items():
            part, rest = {(): c}, ()
            for name in mono:
                if name not in values:
                    rest += (name,)
                    continue
                prod = {}
                for m1, c1 in part.items():
                    for m2, c2 in values[name].terms.items():
                        prod[m1 + m2] = prod.get(m1 + m2, 0) + c1 * c2
                part = prod
            for m, c1 in part.items():
                m = tuple(sorted(m + rest)) if m else rest
                out[m] = out.get(m, 0) + c1
        return ParamExpr._of_sorted(out)

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        if len(terms) == 1 and () in terms:
            return str(terms[()])
        parts = []
        for m, c in sorted(terms.items(), key=lambda t: (len(t[0]), t[0])):
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


def _integer(value):
    """An int, or a Fraction with denominator 1, as an int; anything else
    (a float, a proper Fraction) is a TypeError, never truncated."""
    if isinstance(value, (int, Fraction)) and value.denominator == 1:
        return int(value)
    raise TypeError(f"not an integer: {value!r}")


@cache
def _const(c):
    # keyed on an exact int only: 2.0 and Fraction(4, 2) hash like 2
    return ParamExpr._of_sorted({(): c})


@cache
def parse_expr(text):
    """Parse an integer-affine expression like '24-15c17-5c18+6c19' or '2-d'.

    The terms are summed into one dict, and a coefficient that cancels to 0
    leaves it, so the result has the terms, in the order, that adding one
    ParamExpr per term would give.  Memoised per text: every call with one
    text returns the same (immutable) ParamExpr.
    """
    text = text.replace(" ", "")
    if not text:
        raise TableError("empty expression")
    terms = {}
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
        mono = (name,) if name else ()
        c = terms.get(mono, 0) + sign * num
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
        pos = m.end()
    return ParamExpr._of_sorted(terms)


@cache
def parse_entry(text):
    """A table entry: the int of a text that names no parameter (`1+0a` is
    1, `a-a` is 0), else the ParamExpr `parse_expr` gives.  Memoised per
    text, like `parse_expr`, so equal entries share one object."""
    e = parse_expr(text)
    return e.constant() if e.terms.keys() <= {()} else e


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


def _definitions(constraints):
    """For each constraint, (p, rest) if it is an equality p - rest = 0
    that defines p, else None: p is its first parameter of coefficient +-1
    that no earlier definition defines and that rest does not name."""
    out, defined = [], set()
    for c in constraints:
        out.append(None)
        for m, coeff in c.expr.terms.items() if c.rel == "=" else ():
            if len(m) == 1 and abs(coeff) == 1 and m[0] not in defined:
                rest = (c.expr - ParamExpr.var(m[0], coeff)) * (-coeff)
                if m[0] not in rest.names():
                    out[-1] = m[0], rest
                    defined.add(m[0])
                    break
    return out


# ---------------------------------------------------------------------------
# the table

@dataclass(frozen=True)
class Column:
    series: str
    tentative: bool
    entries: MappingProxyType  # row index -> int, or ParamExpr if it names a parameter


@dataclass(frozen=True)
class DecompTable:
    group: GroupDescriptor
    d: int
    block: str
    degrees_kind: str  # "full" | "leading" | "none"
    params: tuple
    constraints: tuple
    rows: tuple        # label strings, in order
    chars: tuple | None  # the catalog character of each row; None without a catalog
    row_degrees: tuple  # FactoredPoly or None per row
    columns: tuple     # Column, one per row

    def entry(self, i, j):
        return self.columns[j].entries.get(i, 0)

    def size(self):
        return len(self.rows)

    def name(self):
        return f"{self.group}.d{self.d}.{self.block}"

    # -- admissible parameter assignments ----------------------------------

    @cached_property
    def system(self):
        """The parameter system, compiled on first use (see ParamSystem).

        It is kept for the table's lifetime: a table is frozen, with
        read-only entries, so it cannot go stale.
        """
        return ParamSystem.compile(self)

    @cached_property
    def below_diagonal(self):
        """For each row j, the nonzero entries (k, entry) of the columns k < j,
        in increasing k; compiled on first use for back-substitution, like
        `system`."""
        rows = [[] for _ in self.rows]
        for k, col in enumerate(self.columns):
            for i, e in col.entries.items():
                if i > k and e:
                    rows[i].append((k, e))
        return tuple(map(tuple, rows))

    @cached_property
    def column_vectors(self):
        """Each column as a read-only mapping from row label to entry, an
        int wrapped as the shared `ParamExpr.const`; built on first use,
        like `system`, for `hc.table_column_vector`."""
        rows = self.rows
        return tuple(MappingProxyType({rows[i]: ParamExpr.const(e) if type(e) is int else e
                                       for i, e in col.entries.items()})
                     for col in self.columns)

    @cached_property
    def row_invariants(self):
        """Each row's (a, A, 2d * pi_d) as ints, from one read of its
        catalog degree, or None without a catalog; built on first use, like
        `system`, for the a/A and perversity comparisons of `verify`."""
        if self.chars is None:
            return None
        return tuple((deg.a_value(), deg.A_value(), perversity_numerator(deg, self.d))
                     for deg in (c.degree for c in self.chars))

    def free_and_defined(self):
        """Split params into free ones and ones defined by an equality."""
        defined = dict(filter(None, _definitions(self.constraints)))
        free = tuple(p for p in self.params if p not in defined)
        return free, defined

    def resolve(self, free_assignment):
        """Extend an assignment of the free parameters to all parameters."""
        order = self.system.order
        if order is None:
            raise TableError("cyclic parameter definitions")
        out = dict(free_assignment)
        for name, expr in order.items():
            out[name] = expr.evaluate(out)
        return out

    def is_admissible(self, assignment):
        system = self.system
        if system.negative_constant or any(v < 0 for v in assignment.values()):
            return False
        if not all(c.holds(assignment) for c in self.constraints):
            return False
        # every matrix entry must be a nonnegative integer
        return all(expr.evaluate(assignment) >= 0 for expr in system.entry_box)

    def sample_admissible(self, bound=30, limit=4000):
        """Deterministic search for admissible assignments of the free params.

        Each free parameter runs from its lower bound (`lows`, from the
        one-variable constraints) up to `bound`; a lower bound above `bound`
        leaves no candidate.  Candidates come by total excess over the lower
        bounds, smallest first, and within one excess in increasing
        lexicographic order of the excess tuple, the first free parameter
        outermost, so the last one takes the excess first.

        The candidates of one excess are walked depth first, carrying the
        partial value of each condition form (see `ParamSystem`).  At a node
        where parameters i.. share the remaining excess r, a form with value
        v + r * max(coefficients i..) < 0 fails at every candidate below, and
        so does an equality with v + r * min(coefficients i..) > 0: the
        subtree is skipped.  Every other candidate still goes through
        `resolve` and `is_admissible`.  The forms' constants and coefficients
        come from `system.search`, built by `ParamSystem.compile`; the room
        left below each parameter and the count of candidates below a node
        come from `_counter(caps)`, memoised on the caps (`bound` less each
        lower bound) alone.  The walk itself, and every verdict, is redone on
        every call.

        The search stops at 8 witnesses; it examines no candidate past the
        `limit`-th once it has a witness, and none past the (50 * `limit`)-th.
        Skipped candidates count toward these cut-offs as if each had been
        examined and rejected, so the result is that of trying every
        candidate in order.  A witness is the dict `resolve` gives: free
        parameters in order, then defined ones in the order they are
        assigned.  Cyclic definitions or a negative constant entry admit no
        witness, so the search then returns [] without enumerating.
        """
        system = self.system
        if system.order is None or system.negative_constant:
            return []
        free, lows = system.free, system.lows
        caps = tuple([bound - lows[p] for p in free])
        if min(caps, default=0) < 0:
            return []
        k = len(free)
        room, count = _counter(caps)
        equalities, start, steps, highest, lowest = system.search

        found = []
        tried = 0
        excess = [0] * k

        def walk(i, r, values):
            """Try the candidates below node (i, r) in order; True once the
            search is over."""
            nonlocal tried
            for v, hi, lo, eq in zip(values, highest[i], lowest[i], equalities):
                if v + r * hi < 0 or eq and v + r * lo > 0:
                    tried += count(i, r)
                    return bool(found) and tried > limit or tried > 50 * limit
            if i == k:
                tried += 1
                if found and tried > limit or tried > 50 * limit:
                    return True
                full = self.resolve({p: lows[p] + x for p, x in zip(free, excess)})
                if self.is_admissible(full):
                    found.append(full)
                    return len(found) >= 8
                return False
            step = steps[i]
            for x in range(max(0, r - room[i + 1]), min(r, caps[i]) + 1):
                excess[i] = x
                if walk(i + 1, r - x, [v + x * a for v, a in zip(values, step)]):
                    return True
            return False

        for r in range(room[0] + 1):
            if walk(0, r, start):
                break
        return found


@dataclass(frozen=True)
class ParamSystem:
    """A table's parameters and conditions, derived once per table by
    `compile`, and a frozen value: nothing is added to it later.

    `free` is the first half of `free_and_defined()`.  `order` maps each
    defined parameter to its expression over the free parameters, in the
    order `resolve` assigns them; it is None if the definitions are cyclic,
    and `reduce` then substitutes nothing.  `lows` and `highs` bound each
    free parameter by the `>=` constraints that name it alone, `highs` by
    `math.inf` where none bounds it above (but never below `lows`), so the
    box holds every admissible assignment.  `negative_constant` is the
    first negative constant entry as (row index, column index, value), or
    None.  `order`, `lows`, `highs` and `entry_box` are read-only mappings,
    since the system is kept per table.

    `compile` reduces each entry once, and that reduced form feeds both
    `entry_box`, which maps each distinct non-constant matrix entry, in
    first-seen order, to (its reduced form, lower, upper) for the entry
    tests of `verify`, and the condition forms.  `is_admissible` evaluates
    the keys of `entry_box`.  `_box` is the one box arithmetic, behind
    `bounds` and `entry_box` alike.

    The condition forms are every admissibility condition (each defined
    parameter >= 0, each constraint, each distinct non-constant entry >= 0)
    as an affine form over the excesses of the free parameters over `lows`:
    (is_equality, const, coeffs), with coeffs in the order of `free`.  The
    definitions are substituted and the lower bounds folded into const;
    forms that hold at every excess are dropped and duplicates merged, and
    there are none when the definitions are cyclic.  `search` holds what
    the witness search of `DecompTable.sample_admissible` reads of them,
    for k free parameters: (equalities, start, steps, highest, lowest),
    which forms are equalities, each form's constant, `steps[i]` each
    form's coefficient of parameter i, and `highest[i]` and `lowest[i]`
    each form's largest and smallest coefficient over parameters i.. (0 at
    i = k).  The search's only state that depends on `bound` is
    `_counter(caps)`, memoised on the caps alone.
    """

    free: tuple
    order: MappingProxyType | None
    lows: MappingProxyType
    highs: MappingProxyType
    negative_constant: tuple | None
    entry_box: MappingProxyType
    search: tuple

    @classmethod
    def compile(cls, table):
        free, defined = table.free_and_defined()
        order = {}
        known = set(free)
        pending = dict(defined)
        while pending:
            progress = False
            for name, expr in list(pending.items()):
                if expr.names() <= known:
                    order[name] = expr.substitute(order)
                    known.add(name)
                    del pending[name]
                    progress = True
            if not progress:
                order = None
                break
        lows, highs = {}, {}
        for p in free:
            lo, hi = 0, inf
            for c in table.constraints:
                if c.rel == ">=" and c.expr.names() == {p}:
                    coeff = c.expr.terms.get((p,), 0)
                    const = c.expr.constant()
                    if coeff > 0 and const < 0:
                        lo = max(lo, (-const + coeff - 1) // coeff)
                    elif coeff < 0:
                        hi = min(hi, const // -coeff)
            lows[p], highs[p] = lo, max(hi, lo)
        reduced = {}  # each distinct non-constant entry -> its reduced form
        negative_constant = None
        for j, col in enumerate(table.columns):
            for i, expr in col.entries.items():
                if type(expr) is not int:
                    if expr not in reduced:
                        reduced[expr] = expr if order is None else expr.substitute(order)
                elif negative_constant is None and expr < 0:
                    negative_constant = (i, j, expr)
        entry_box = {expr: (red, *_box(red, lows, highs)) for expr, red in reduced.items()}
        # each condition as an affine form over the excesses of the free
        # parameters over `lows`; one that is not affine is left to
        # `is_admissible` alone
        forms = [] if order is None else (
            [(False, expr) for expr in order.values()]
            + [(c.rel == "=", c.expr.substitute(order)) for c in table.constraints]
            + [(False, red) for red in reduced.values()])
        conditions = {}
        for is_equality, expr in forms:
            if not expr.is_affine():
                continue
            coeffs = tuple(expr.terms.get((p,), 0) for p in free)
            const = expr.constant() + sum(a * lows[p] for a, p in zip(coeffs, free))
            if is_equality:
                always = not const and not any(coeffs)
            else:
                always = const >= 0 and min(coeffs, default=0) >= 0
            if not always:
                conditions[(is_equality, const, coeffs)] = None
        conditions = tuple(conditions)
        k = len(free)
        search = (tuple(eq for eq, _, _ in conditions),
                  tuple(const for _, const, _ in conditions),
                  tuple(tuple(coeffs[i] for _, _, coeffs in conditions) for i in range(k)),
                  tuple(tuple(max(coeffs[i:], default=0) for _, _, coeffs in conditions)
                        for i in range(k + 1)),
                  tuple(tuple(min(coeffs[i:], default=0) for _, _, coeffs in conditions)
                        for i in range(k + 1)))
        return cls(free, None if order is None else MappingProxyType(order),
                   MappingProxyType(lows), MappingProxyType(highs),
                   negative_constant, MappingProxyType(entry_box), search)

    def reduce(self, expr):
        """`expr` with each defined parameter replaced by its expression over
        the free parameters (none replaced when the definitions are cyclic);
        an int passes through."""
        return expr if type(expr) is int else expr.substitute(self.order or {})

    def bounds(self, expr):
        """(lower, upper) of `expr` over the box, ignoring joint constraints
        (sound); `verify.ParamBox.bounds` reads it.

        Either end may be infinite; a defined parameter left by `reduce`
        (cyclic definitions) ranges over [0, inf).  A monomial with a factor
        bounded above by 0 is bounded above by 0.  An int c, or a ParamExpr
        that names no parameter, gives (c, c)."""
        if type(expr) is not int and expr.terms.keys() <= {()}:
            expr = expr.constant()
        if type(expr) is int:
            return expr, expr
        return _box(self.reduce(expr), self.lows, self.highs)


def _box(expr, lows, highs):
    """(lower, upper) of a ParamExpr that `reduce` has already reduced, each
    parameter in [lows, highs] (a name in neither: [0, inf)); `bounds` and
    `ParamSystem.compile` both call it."""
    lo = hi = expr.constant()
    for mono, c in expr.terms.items():
        if not mono:
            continue
        lo_m = 1
        hi_m = 1
        for name in mono:
            lo_m *= lows.get(name, 0)
            high = highs.get(name, inf)
            hi_m = hi_m * high if hi_m and high else 0  # never 0 * inf
        if c > 0:
            lo += c * lo_m
            hi += c * hi_m
        else:
            lo += c * hi_m
            hi += c * lo_m
    return lo, hi


@lru_cache(maxsize=256)
def _counter(caps):
    """(room, count) for free parameters whose excesses are capped by
    `caps`: `room[i]`, the most excess parameters i.. hold together
    (room[k] = 0), and `count(i, r)`, the number of candidates below node
    (i, r) of the witness search, memoised.  A pure function of `caps`, so
    tables and bounds with equal caps share it."""
    k = len(caps)
    room = [0] * (k + 1)
    for i in reversed(range(k)):
        room[i] = room[i + 1] + caps[i]

    @cache
    def count(i, r):
        """Candidates below node (i, r): excesses of parameters i.. that
        sum to r within the caps (0 <= r <= room[i])."""
        if i == k:
            return 1
        return sum(count(i + 1, r - x)
                   for x in range(max(0, r - room[i + 1]), min(r, caps[i]) + 1))
    return tuple(room), count


# ---------------------------------------------------------------------------
# parse / emit

# an E7 or E8 label: phi{n,b} with up to two primes, in the principal, D4,
# E6[..] or E7[..] series, or the name of a cuspidal character E7[..], E8[..]
_E78_LABEL = re.compile(r"(?:(?:D4|E[67]\[[^\[\]:]+\]):)?phi\{\d+,\d+\}'{0,2}"
                        r"|E[78]\[[^\[\]:]+\]")


# FactoredPoly is frozen, so one parse per degree text can be shared
_parse_degree = cache(parse_factored)


_TABLE_KEYS = ("group", "d", "block", "degrees", "params", "constraints")


@lru_cache(maxsize=256)
def parse(text):
    """Parse one table file (grammar in the module docstring).

    Memoised on the exact text, for up to 256 texts (one process decodes
    about 50): every call with one text returns the same immutable table,
    so what the table caches (`system`, with its entry bounds and search
    tables, `below_diagonal`, `column_vectors`, `row_invariants`) is built
    once per text.  No check result is cached.
    An edited text is a new key, and a malformed one raises its TableError
    on every call, since exceptions are not cached.

    Whether the group has a catalog is decided once per text, by asking
    for its `catalog_map`.  Each distinct label text is then resolved once
    per file by `find_char`: the rows' texts first, then an entry's text on
    its first sight, into a dict from raw text to row index.  A label must
    name a character of the group's catalog, and is stored as that
    character's label text; for E7 and E8, which ship no catalog, no
    label goes to `find_char`, and one is stored as it is written once it
    matches `_E78_LABEL`.  `chars` holds the rows' characters, or None
    without a catalog.  An entry is an int unless it names a parameter
    (`parse_entry`, one shared object per text); each column's entries are
    stored read-only.  An error in a row, entry, column or constraint names
    its line: the row's, the column's, the `constraints =` line, and for an
    undeclared parameter the first line that uses it.
    """
    section = None
    meta = {}
    meta_line = {}
    row_lines = []
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
            k = k.strip()
            if k not in _TABLE_KEYS:
                raise TableError(f"line {lineno}: unknown key {k!r} in [table]")
            if k in meta:
                raise TableError(f"line {lineno}: key {k!r} repeated in [table] "
                                 f"(first on line {meta_line[k]})")
            meta[k] = v.strip()
            meta_line[k] = lineno
        elif section == "chars":
            if "|" in line:
                lab, deg = line.split("|", 1)
                row_lines.append((lab.strip(), deg.strip(), lineno))
            else:
                row_lines.append((line.strip(), "", lineno))
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
            entries = []
            for piece in body.split():
                if "=" not in piece:
                    raise TableError(f"line {lineno}: bad entry {piece!r}")
                lab, expr = piece.split("=", 1)
                try:
                    entries.append((lab, parse_entry(expr)))
                except TableError as exc:
                    raise TableError(f"line {lineno}: {exc}") from exc
            cols.append((series, tentative, entries, lineno))
        else:
            raise TableError(f"line {lineno}: text outside any section")
    if not row_lines:
        raise TableError("no rows")
    if "group" not in meta:
        raise TableError("no 'group' key in [table]")
    try:
        group = GroupDescriptor.parse(meta["group"])
    except UnsupportedGroupError as exc:
        raise TableError(f"line {meta_line['group']}: {exc}") from exc
    if "d" not in meta:
        raise TableError("no 'd' key in [table]")
    try:
        d = int(meta["d"])
    except ValueError:
        raise TableError(f"line {meta_line['d']}: d must be an integer, "
                         f"not {meta['d']!r}") from None
    if d < 1:
        raise TableError(f"line {meta_line['d']}: d must be positive, not {d}")
    params = tuple(meta.get("params", "").split())
    for i, name in enumerate(params):
        if name in params[:i]:
            raise TableError(f"line {meta_line['params']}: parameter {name!r} declared twice")
    try:
        constraints = tuple(parse_constraint(c)
                            for c in meta.get("constraints", "").split(";") if c.strip())
    except TableError as exc:
        raise TableError(f"line {meta_line['constraints']}: {exc}") from exc
    degrees_kind = meta.get("degrees", "none")
    if degrees_kind not in ("full", "leading", "none"):
        raise TableError(f"line {meta_line['degrees']}: degrees must be full, leading "
                         f"or none, not {degrees_kind!r}")

    try:
        catalog_map(group)
        cataloged = True
    except UnsupportedGroupError:  # E7 and E8 ship no catalog
        cataloged = False

    def lookup(text, lineno):
        # (character, label text): the catalog's text, so that vectors
        # computed from the catalogs match up with the table rows
        if not cataloged:
            if not _E78_LABEL.fullmatch(text):
                raise TableError(f"line {lineno}: bad {group} label {text!r}")
            return None, text
        try:
            char = find_char(group, text)
        except LabelError as exc:
            raise TableError(f"line {lineno}: {exc}") from exc
        return char, str(char.label)

    def degree(text, lineno):
        try:
            return _parse_degree(text)
        except CycloError as exc:
            raise TableError(f"line {lineno}: {exc}") from exc

    row_chars, row_labels = zip(*(lookup(lab, lineno) for lab, _, lineno in row_lines))
    first = {}  # canonical label -> row index
    for i, lab in enumerate(row_labels):
        if lab in first:
            raise TableError(f"line {row_lines[i][2]}: duplicate row label {lab!r} "
                             f"(first on line {row_lines[first[lab]][2]})")
        first[lab] = i
    row_of = {raw: i for i, (raw, _, _) in enumerate(row_lines)}  # raw text -> row index
    row_degrees = tuple(degree(deg, lineno) if deg else None for _, deg, lineno in row_lines)
    columns = []
    used = {}  # parameter name -> first line that uses it
    for j, (series, tentative, entries, lineno) in enumerate(cols):
        by_index = {}
        for raw, expr in entries:
            i = row_of.get(raw)
            if i is None:
                _, lab = lookup(raw, lineno)
                if lab not in first:
                    raise TableError(f"line {lineno}: column {j + 1}: unknown label {lab!r}")
                i = row_of[raw] = first[lab]
            if i in by_index:
                raise TableError(f"line {lineno}: row {row_labels[i]!r} given twice "
                                 f"in one column")
            by_index[i] = expr
            if type(expr) is not int:
                for name in expr.names():
                    used.setdefault(name, lineno)
        columns.append(Column(series, tentative, MappingProxyType(by_index)))
    if len(columns) != len(row_labels):
        raise TableError(f"{len(columns)} columns for {len(row_labels)} rows")
    for j, col in enumerate(columns):
        if col.entries.get(j) != 1:
            raise TableError(f"line {cols[j][3]}: column {j + 1} has no diagonal 1 "
                             f"at {row_labels[j]!r}")
        if min(col.entries) < j:
            raise TableError(f"line {cols[j][3]}: column {j + 1} has entries above "
                             f"the diagonal")
    for c in constraints:
        for name in c.expr.names():
            used[name] = min(used.get(name, inf), meta_line["constraints"])
    unknown = sorted(set(used) - set(params))
    if unknown:
        line = min(used[name] for name in unknown)
        raise TableError(f"line {line}: undeclared parameters {unknown}")
    return DecompTable(group, d, meta.get("block", "principal"), degrees_kind, params,
                       constraints, row_labels, None if None in row_chars else row_chars,
                       row_degrees, tuple(columns))


def emit(table):
    out = ["[table]", f"group = {table.group}", f"d = {table.d}",
           f"block = {table.block}", f"degrees = {table.degrees_kind}"]
    if table.params:
        out.append("params = " + " ".join(table.params))
    if table.constraints:
        out.append("constraints = " + "; ".join(
            _emit_constraint(c, dfn) for c, dfn in
            zip(table.constraints, _definitions(table.constraints))))
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


def _emit_constraint(c, definition):
    # a definition (p, rest) as p=rest, or as -p=-rest where p has
    # coefficient -1, so that parsing it back gives the same expression and
    # defines p again; any other constraint with positive coefficients on
    # both sides
    if definition:
        name, rest = definition
        if c.expr.terms[(name,)] < 0:
            name, rest = f"-{name}", -rest
        const = rest.constant()
        return f"{name}={rest - const}{const:+d}" if const and rest.names() else f"{name}={rest}"
    pos = ParamExpr({m: v for m, v in c.expr.terms.items() if v > 0 and m != ()})
    neg = ParamExpr({m: -v for m, v in c.expr.terms.items() if v < 0 and m != ()})
    const = c.expr.constant()
    rel = "=" if c.rel == "=" else ">="
    if const < 0:
        return f"{pos - neg}{rel}{-const}"
    return f"{pos + const}{rel}{neg}"
