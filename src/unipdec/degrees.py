"""Generic character degrees, a/A-values, defects and the perversity function.

Classical-group degrees are computed from beta-symbols; the whole computation
stays in factored (cyclotomic) form so no polynomial ever gets expanded.
Exceptional-group degrees are static catalog data validated by the test
suite against printed leading terms and, for E6 and 2E6, against the degree
identities of their cyclic Phi_d-blocks.
"""

from __future__ import annotations

import importlib.resources
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cyclo import FactoredPoly, parse_factored, prod_factored
from .labels import (GroupDescriptor, LabelError, UnipLabel,
                     UnsupportedGroupError, classical_label_list, label_symbol,
                     parse_label, resolve_label)


@dataclass(frozen=True)
class UnipChar:
    group: GroupDescriptor
    label: UnipLabel
    degree: FactoredPoly
    hc_series: str

    def __str__(self):
        return f"{self.group}:{self.label}"


# ---------------------------------------------------------------------------
# small factored building blocks

@lru_cache(maxsize=None)
def _minus_divisors(k):
    """The e with Phi_e dividing q^k - 1."""
    return tuple(e for e in range(1, k + 1) if k % e == 0)


@lru_cache(maxsize=None)
def _plus_divisors(k):
    """The e with Phi_e dividing q^k + 1, k >= 1."""
    return tuple(e for e in range(1, 2 * k + 1) if (2 * k) % e == 0 and k % e != 0)


@lru_cache(maxsize=None)
def fp_qk_minus_1(k):
    """q^k - 1 in factored form."""
    return FactoredPoly.from_parts(1, 0, dict.fromkeys(_minus_divisors(k), 1))


@lru_cache(maxsize=None)
def fp_qk_plus_1(k):
    """q^k + 1 in factored form (the constant 2 for k = 0)."""
    if k == 0:
        return FactoredPoly.from_parts(2, 0, {})
    return FactoredPoly.from_parts(1, 0, dict.fromkeys(_plus_divisors(k), 1))


def _shift_exponent(ab):
    """q-power in the symbol degree denominator: sum of C(ab - 2i, 2)."""
    total = 0
    i = 1
    while ab - 2 * i >= 2:
        m = ab - 2 * i
        total += m * (m - 1) // 2
        i += 1
    return total


@lru_cache(maxsize=None)
def _entry_divisors(s):
    """Cyclotomic indices, with repetition, of prod_{h=1}^{s} (q^{2h} - 1)."""
    return tuple(e for h in range(1, s + 1) for e in _minus_divisors(2 * h))


# ---------------------------------------------------------------------------
# group order polynomials

_EXC_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
}


@lru_cache(maxsize=None)
def group_order_poly(g):
    s, n = g.series, g.rank
    if s == "A":
        return prod_factored([FactoredPoly.from_parts(1, n * (n + 1) // 2, {})]
                             + [fp_qk_minus_1(i) for i in range(2, n + 2)])
    if s == "2A":
        return ennola(group_order_poly(GroupDescriptor("A", n)))
    if s in ("B", "C"):
        return prod_factored([FactoredPoly.from_parts(1, n * n, {})]
                             + [fp_qk_minus_1(2 * i) for i in range(1, n + 1)])
    if s == "D":
        return prod_factored([FactoredPoly.from_parts(1, n * (n - 1), {}),
                              fp_qk_minus_1(n)]
                             + [fp_qk_minus_1(2 * i) for i in range(1, n)])
    if s == "2D":
        return prod_factored([FactoredPoly.from_parts(1, n * (n - 1), {}),
                              fp_qk_plus_1(n)]
                             + [fp_qk_minus_1(2 * i) for i in range(1, n)])
    if s == "2E6":
        return ennola(group_order_poly(GroupDescriptor("E6", 6)))
    degrees = _EXC_DEGREES[s]
    return prod_factored([FactoredPoly.from_parts(1, sum(d - 1 for d in degrees), {})]
                         + [fp_qk_minus_1(d) for d in degrees])


# ---------------------------------------------------------------------------
# Ennola transform  q -> -q  (normalised to positive leading coefficient)

def _ennola_index(e):
    if e == 1:
        return 2
    if e == 2:
        return 1
    if e % 2 == 1:
        return 2 * e
    if e % 4 == 2:
        return e // 2
    return e


def ennola(p):
    mults = {}
    sign = 1 if p.scalar > 0 else -1
    if p.q_exp % 2 == 1:
        sign = -sign
    for e, m in p.cyclo_mults:
        mults[_ennola_index(e)] = mults.get(_ennola_index(e), 0) + m
        if e in (1, 2) and m % 2 == 1:
            sign = -sign
    scalar = abs(p.scalar)
    # sign bookkeeping only records that |R(-q)| is again a degree polynomial
    return FactoredPoly.from_parts(scalar, p.q_exp, mults)


# ---------------------------------------------------------------------------
# symbol degrees

def symbol_degree(g, sym, degenerate=False):
    """Degree of the unipotent character with symbol `sym`, in factored form.

    The numerator is the order part of |G| times, over pairs s < s' in a row,
    q^s (q^(s'-s) - 1) and, over pairs (s, t) across the rows,
    q^min (q^|s-t| + 1); the denominator is 2^twolog q^shift times
    prod_{h=1}^{s} (q^(2h) - 1) for each entry s.  The q-powers, the powers
    of 2 and the cyclotomic exponents of each side are counted directly, and
    the quotient is taken once.
    """
    s, n = g.series, g.rank
    top, bottom = sym.top, sym.bottom
    a, b = len(top), len(bottom)
    twolog = (a + b - 1) // 2
    num = Counter()
    if s in ("B", "C"):
        num.update(_minus_divisors(2 * n))
    elif s == "D":
        num.update(_minus_divisors(n))
        twolog += 1 if degenerate else 0
    elif s == "2D":
        num.update(_plus_divisors(n))
    else:
        raise UnsupportedGroupError(f"symbol degrees undefined for {g}")
    for i in range(1, n):
        num.update(_minus_divisors(2 * i))
    num_q, twos = 0, 0
    for row in (top, bottom):
        for i, lo in enumerate(row):
            for hi in row[i + 1:]:
                num_q += lo
                num.update(_minus_divisors(hi - lo))
    for x in top:
        for y in bottom:
            lo, hi = (x, y) if x <= y else (y, x)
            num_q += lo
            if hi == lo:
                twos += 1
            else:
                num.update(_plus_divisors(hi - lo))
    den = Counter()
    for x in top + bottom:
        den.update(_entry_divisors(x))
    return FactoredPoly.from_parts(2 ** twos, num_q, num).divide(
        FactoredPoly.from_parts(2 ** twolog, _shift_exponent(a + b), den))


def _hooks(partition):
    """Multiset of hook lengths of a partition."""
    parts = list(partition)
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    out = []
    for i, p in enumerate(parts):
        for j in range(p):
            out.append(p - j + conj[j] - i - 1)
    return out


def gl_degree(lam):
    """Unipotent character degree of GL_N for a partition of N (hook formula)."""
    N = sum(lam)
    nval = sum(i * p for i, p in enumerate(lam))
    num = prod_factored([FactoredPoly.from_parts(1, nval, {})]
                        + [fp_qk_minus_1(i) for i in range(1, N + 1)])
    den = prod_factored([fp_qk_minus_1(h) for h in _hooks(lam)])
    return num.divide(den)


def degree_poly(g, label):
    """Exact factored degree of a classical-group unipotent character."""
    if isinstance(label, str):
        label = resolve_label(g, label)
    s = g.series
    if s == "A":
        return gl_degree(label.bip.left)
    if s == "2A":
        return ennola(gl_degree(label.bip.left))
    if s in ("B", "C", "D", "2D"):
        sym = label_symbol(g, label)
        if sym.rank() != g.rank:
            raise LabelError(f"label {label} has rank {sym.rank()}, not {g.rank}")
        return symbol_degree(g, sym, degenerate=(label.kind == "split"))
    raise UnsupportedGroupError(
        f"degree_poly only computes classical degrees; use catalog() for {g}")


# ---------------------------------------------------------------------------
# catalogs

def _series_tag(label):
    return label.core if label.kind == "core" else "ps"


def _load_exceptional(series):
    ref = importlib.resources.files("unipdec").joinpath(f"data/catalogs/{series}.tsv")
    if not ref.is_file():
        raise UnsupportedGroupError(f"no shipped catalog for {series}")
    rows = []
    for line in ref.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, tag, deg = [x.strip() for x in line.split("|")]
        rows.append((label, tag, parse_factored(deg)))
    return rows


@lru_cache(maxsize=None)
def catalog(g):
    """All unipotent characters of g, ordered by (a, A, label)."""
    chars = []
    if g.series in ("E6", "2E6", "F4", "E8"):
        for text, tag, deg in _load_exceptional(str(g)):
            chars.append(UnipChar(g, UnipLabel("named", text), deg, tag))
    elif g.series == "E7":
        raise UnsupportedGroupError("no E7 catalog is shipped")
    else:
        for lab in classical_label_list(g):
            chars.append(UnipChar(g, lab, degree_poly(g, lab), _series_tag(lab)))
    chars.sort(key=lambda c: (c.degree.a_value(), c.degree.A_value(), str(c.label)))
    return tuple(chars)


@lru_cache(maxsize=None)
def catalog_map(g):
    return {str(c.label): c for c in catalog(g)}


def find_char(g, text):
    label = parse_label(text, g)
    cm = catalog_map(g)
    if str(label) in cm:
        return cm[str(label)]
    if g.series == "D":
        canon = resolve_label(g, text)
        if str(canon) in cm:
            return cm[str(canon)]
    raise LabelError(f"label {text!r} not in catalog of {g}")


# ---------------------------------------------------------------------------
# invariants of a character

def a_value(c):
    return c.degree.a_value()


def A_value(c):
    return c.degree.A_value()


def defect(c, d):
    """Phi_d-defect: multiplicity in |G| minus multiplicity in the degree."""
    order = group_order_poly(c.group)
    out = order.root_multiplicity(d) - c.degree.root_multiplicity(d)
    if out < 0:
        raise ValueError(f"degree of {c} does not divide the group order at P{d}")
    return out


@lru_cache(maxsize=None)
def _small_arg_count(e, d):
    """#{k : 1 <= k < e, gcd(k, e) = 1, k/e < 1/d} (strict; ties excluded)."""
    return sum(1 for k in range(1, e) if gcd(k, e) == 1 and k * d < e)


def perversity(c, d):
    """Craven's pi_d: (A+a)/d + m(1,R)/2 + small-argument root count."""
    if d < 1:
        raise ValueError("d must be positive")
    deg = c.degree
    val = Fraction(deg.A_value() + deg.a_value(), d)
    val += Fraction(deg.root_multiplicity(1), 2)
    for e, m in deg.cyclo_mults:
        if e > 1:
            val += m * _small_arg_count(e, d)
    return val


def perversity_2_shortcut(c):
    """pi_2 via the printed simplification A - m(-1, R)/2."""
    return Fraction(c.degree.A_value()) - Fraction(c.degree.root_multiplicity(2), 2)
