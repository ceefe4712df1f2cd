"""Counting simple modules of specialised Iwahori-Hecke algebras (types A, B).

H(B_n; q1; q2) has parameters (q1, -1) at the B_1-node and (q2, -1) on the
A-branch; H(A_n; q1) is the type-A algebra on n nodes.  After specialising q
to a d-th root of unity the simple modules are counted by crystal
combinatorics: e-regular partitions in type A, Uglov/Kleshchev bipartitions
of a level-2 Fock space in type B, with a Dipper-James splitting into a sum
of type-A pairs when the B_1-eigenvalue is not tied to the branch parameter.

Type D is out of computational scope beyond the semisimple case (the
number of irreducible characters of W(D_n)); the paper's |Irr H| counts at
an order-2 branch parameter are stored for the small ranks that appear in
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .labels import partitions


class HeckeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# crystal combinatorics

@lru_cache(maxsize=None)
def regular_count(n, e):
    """Number of e-regular partitions of n (all partitions when e is None)."""
    if e is None:
        return len(partitions(n))
    return sum(1 for p in partitions(n)
               if all(p.count(x) < e for x in set(p)))


def bipartition_count(n):
    return sum(len(partitions(k)) * len(partitions(n - k)) for k in range(n + 1))


def _addable(mp):
    out = []
    for m, lam in enumerate(mp):
        for i in range(len(lam) + 1):
            j = lam[i] if i < len(lam) else 0
            above = lam[i - 1] if i > 0 else None
            if above is None or j < above:
                out.append((m, i, j))  # new box at (row i, col j) 0-based
    return out


def _removable(mp):
    out = []
    for m, lam in enumerate(mp):
        for i, p in enumerate(lam):
            below = lam[i + 1] if i + 1 < len(lam) else 0
            if p > below:
                out.append((m, i, p - 1))
    return out


def _apply_f(mp, r, e, charges):
    """Kashiwara operator f_r on a multipartition; None if no good box.

    Boxes of residue r are read component by component, top row first;
    the signature (+ for addable, - for removable) is reduced by cancelling
    adjacent "+-" pairs and the first surviving + is the good box.
    """
    nodes = []
    for m, i, j in _addable(mp):
        if (charges[m] + j - i) % e == r % e:
            nodes.append((m, i, "+"))
    for m, i, j in _removable(mp):
        if (charges[m] + j - i) % e == r % e:
            nodes.append((m, i, "-"))
    nodes.sort(key=lambda t: (t[0], t[1]))
    kept = []
    for node in nodes:
        if node[2] == "-" and kept and kept[-1][2] == "+":
            kept.pop()
        else:
            kept.append(node)
    for m, i, sgn in kept:
        if sgn == "+":
            lam = list(mp[m])
            if i == len(lam):
                lam.append(1)
            else:
                lam[i] += 1
            out = list(mp)
            out[m] = tuple(lam)
            return tuple(out)
    return None


@lru_cache(maxsize=None)
def crystal_multipartitions(n, e, charges):
    """Vertices of degree n in the highest-weight crystal with the given charges."""
    level = len(charges)
    current = {tuple(() for _ in range(level))}
    for _ in range(n):
        nxt = set()
        for mp in current:
            for r in range(e):
                img = _apply_f(mp, r, e, charges)
                if img is not None:
                    nxt.add(img)
        current = nxt
    return frozenset(current)


def kleshchev_count(n, e, charges):
    return len(crystal_multipartitions(n, e, tuple(c % e for c in charges)))


# ---------------------------------------------------------------------------
# parameter bookkeeping

@dataclass(frozen=True)
class Param:
    """A Hecke parameter: q**exp, or the literal +1 / -1."""

    kind: str  # "pow" or "lit"
    value: int

    @classmethod
    def parse(cls, text):
        text = str(text).strip()
        if text in ("1", "+1"):
            return cls("lit", 1)
        if text == "-1":
            return cls("lit", -1)
        if text == "q":
            return cls("pow", 1)
        if text.startswith("q^") and text[2:].isdigit():
            return cls("pow", int(text[2:]))
        raise HeckeError(f"cannot parse Hecke parameter {text!r}")

    def __str__(self):
        if self.kind == "lit":
            return str(self.value)
        return "q" if self.value == 1 else f"q^{self.value}"


@dataclass(frozen=True)
class HeckeSpec:
    coxeter_type: str  # "A", "B" or "D"
    rank: int
    b1: Param | None  # B_1-node parameter (type B only)
    branch: Param | None

    def __str__(self):
        if self.coxeter_type == "B":
            return f"H(B{self.rank};{self.b1};{self.branch})"
        return f"H({self.coxeter_type}{self.rank};{self.branch})"


class _Mu:
    """Element bookkeeping in <q> union -<q> for q of order d."""

    def __init__(self, d, param):
        self.d = d
        if param.kind == "pow":
            self.exp, self.negated = param.value % d, False
        else:
            if param.value == 1:
                self.exp, self.negated = 0, False
            elif d % 2 == 0:
                self.exp, self.negated = d // 2, False
            else:
                self.exp, self.negated = 0, True  # -1 itself, outside <q>

    def order(self):
        if self.negated:  # -1 itself, which __init__ only builds with exp 0
            return 2
        return self.d // gcd(self.exp, self.d) if self.exp else 1


@dataclass(frozen=True)
class FockCharge:
    e: int
    charges: tuple


@dataclass(frozen=True)
class SemisimpleMarker:
    count_kind: str  # "bipartitions" | "partitions" | "split"
    e: int | None = None


def specialize(spec, d):
    """Charge data of the specialised algebra, or a splitting/semisimple marker."""
    if d < 1:
        raise HeckeError("d must be >= 1")
    if spec.coxeter_type == "A":
        v = _Mu(d, spec.branch)
        e = v.order()
        if e == 1:
            return SemisimpleMarker("partitions")
        return FockCharge(e, (0,))
    if spec.coxeter_type != "B":
        raise HeckeError(f"specialize does not handle type {spec.coxeter_type}")
    v = _Mu(d, spec.branch)
    Q = _Mu(d, spec.b1)
    ev = v.order()
    if ev == 1:
        # branch parameter is 1: the branch factor is a symmetric group
        # algebra in large characteristic
        if not Q.negated and Q.exp == 0:
            return SemisimpleMarker("bipartitions")
        if (Q.negated and Q.exp == 0) or (not Q.negated and d % 2 == 0 and Q.exp == d // 2):
            # eigenvalues of T_0 collide at -1: one partition per simple
            return SemisimpleMarker("partitions")
        return SemisimpleMarker("split", e=None)
    # -Q in <v>?  c*k = exp(-Q) (mod d) solvable in k
    c = v.exp if v.exp else d  # ord issues: exp 0 handled above
    if Q.negated:
        minus_q_exp, outside = Q.exp, False  # -Q = q^exp
    else:
        if d % 2 == 0:
            minus_q_exp, outside = (Q.exp + d // 2) % d, False
        else:
            minus_q_exp, outside = None, True
    if not outside:
        g = gcd(c, d)
        if minus_q_exp % g == 0:
            # solve k*c = minus_q_exp mod d
            k = (minus_q_exp // g) * pow(c // g, -1, d // g) % (d // g)
            return FockCharge(ev, (k % ev, 0))
    return SemisimpleMarker("split", e=ev)


def count_simples(spec, d):
    """Number of simple modules of the specialised algebra."""
    n = spec.rank
    if spec.coxeter_type == "A":
        res = specialize(spec, d)
        if isinstance(res, SemisimpleMarker):
            return regular_count(n + 1, None)
        return regular_count(n + 1, res.e)
    if spec.coxeter_type == "D":
        return d_reference_count(spec, d)
    if n == 0:
        return 1
    res = specialize(spec, d)
    if isinstance(res, SemisimpleMarker):
        if res.count_kind == "bipartitions":
            return bipartition_count(n)
        if res.count_kind == "partitions":
            return len(partitions(n))
        e = res.e
        return sum(regular_count(i, e) * regular_count(n - i, e) for i in range(n + 1))
    return kleshchev_count(n, res.e, res.charges)


# ---------------------------------------------------------------------------
# type D counts

#: The paper's |Irr H| counts of type D_n when the branch parameter
#: specialises to an element of order 2 (not recomputed).
_D_ORDER_2 = {4: 3, 5: 4, 6: 6}


def _w_d_class_count(n):
    """|Irr W(D_n)|: unordered bipartitions of n, each {lambda, lambda} counted twice."""
    twins = len(partitions(n // 2)) if n % 2 == 0 else 0
    return (bipartition_count(n) + 3 * twins) // 2


def d_reference_count(spec, d):
    """Type-D counts: D_1..D_3 fold to type A.  From D_4 on, a branch
    parameter that specialises to 1 leaves the group algebra of W(D_n),
    whose classes are counted; order 2 reads stored data."""
    n = spec.rank
    v = _Mu(d, spec.branch)
    ev = v.order()
    if n <= 1:
        return 1
    if n == 2:
        return regular_count(2, None if ev == 1 else ev) ** 2
    if n == 3:
        return regular_count(4, None if ev == 1 else ev)
    if ev == 1:
        return _w_d_class_count(n)
    if ev == 2 and n in _D_ORDER_2:
        return _D_ORDER_2[n]
    raise HeckeError(f"type D_{spec.rank} count not available for this specialisation")


def product_count(specs, d):
    out = 1
    for s in specs:
        out *= count_simples(s, d)
    return out


def parse_spec(text):
    """Parse e.g. 'B4;q^2;q', 'A1;q^9', 'D4;q' or products joined by 'x'."""
    out = []
    for piece in text.split("x"):
        piece = piece.strip()
        parts = [p.strip() for p in piece.split(";")]
        ctype, rank = parts[0][:1], parts[0][1:]
        if not rank.isdecimal():
            raise HeckeError(f"no rank in {piece!r}")
        rank = int(rank)
        if ctype == "B":
            if len(parts) != 3:
                raise HeckeError(f"type B spec needs two parameters: {piece!r}")
            out.append(HeckeSpec("B", rank, Param.parse(parts[1]), Param.parse(parts[2])))
        elif ctype in ("A", "D"):
            if len(parts) != 2:
                raise HeckeError(f"type {ctype} spec needs one parameter: {piece!r}")
            out.append(HeckeSpec(ctype, rank, None, Param.parse(parts[1])))
        else:
            raise HeckeError(f"unknown Coxeter type in {piece!r}")
    return out
