"""Generic character degrees, a/A-values, defects and the perversity function.

Group orders, symbol degrees (types B, C, D, 2D) and the hook-formula degrees
of GL_n and GU_n are all products of factors q^k - 1 and q^k + 1.  Each is
counted into integer histograms by k, starting from the factors of |G|_{p'}
(`_order_factors`), and one kernel (`_from_counts`) turns the counts into
Phi_e multiplicities, so no polynomial ever gets expanded.
Exceptional-group degrees are static catalog data validated by the test
suite against printed leading terms and, for E6 and 2E6, against the degree
identities of their cyclic Phi_d-blocks.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .cyclo import CycloError, FactoredPoly, parse_factored
from .labels import (BetaSymbol, GroupDescriptor, LabelError, UnipLabel,
                     UnsupportedGroupError, classical_label_list, label_symbol,
                     resolve_label)


@dataclass(frozen=True)
class UnipChar:
    """A catalog character.  `symbol` is the reduced beta-symbol of a
    classical character (what `label_symbol` gives for its label), computed
    once with its degree; None for an exceptional character."""

    group: GroupDescriptor
    label: UnipLabel
    degree: FactoredPoly
    hc_series: str
    symbol: BetaSymbol | None = field(default=None, compare=False)

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


def _from_counts(scalar, q_exp, minus, plus):
    """scalar * q^q_exp * prod_k (q^k - 1)^minus[k] * (q^k + 1)^plus[k] in
    factored form, for histograms `minus` and `plus` of one length indexed
    by k >= 1.  A count may be negative (a denominator factor); one pass over
    the divisors of each k gives the Phi_e multiplicities.  A negative
    multiplicity, and then a negative q-power, raises CycloError.
    """
    mults = [0] * (2 * len(minus))
    for k in range(1, len(minus)):
        if minus[k]:
            for e in _minus_divisors(k):
                mults[e] += minus[k]
        if plus[k]:
            for e in _plus_divisors(k):
                mults[e] += plus[k]
    factors = []
    for e, m in enumerate(mults):
        if m:
            if m < 0:
                raise CycloError(f"P{e} does not divide")
            factors.append((e, m))
    if q_exp < 0:
        raise CycloError("q-power does not divide")
    return FactoredPoly(scalar, q_exp, tuple(factors))


def _shift_exponent(ab):
    """q-power in the symbol degree denominator: sum of C(ab - 2i, 2)."""
    total = 0
    i = 1
    while ab - 2 * i >= 2:
        m = ab - 2 * i
        total += m * (m - 1) // 2
        i += 1
    return total


# ---------------------------------------------------------------------------
# group order polynomials

_EXC_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
}


def _order_factors(g):
    """The factors (k, twisted) of |G|_{p'}: q^k + 1 if twisted, else q^k - 1.

    k runs over the degrees of the Weyl group (Carter 2.9).  2D_n twists its
    k = n factor; the Ennola duals 2A_n and 2E6 (q -> -q) twist every odd k.
    """
    s, n = g.series, g.rank
    if s in ("D", "2D"):
        return [(2 * i, False) for i in range(1, n)] + [(n, s == "2D")]
    if s in ("A", "2A"):
        degrees = range(2, n + 2)
    elif s in ("B", "C"):
        degrees = range(2, 2 * n + 1, 2)
    else:
        degrees = _EXC_DEGREES[s.removeprefix("2")]
    ennola = s in ("2A", "2E6")
    return [(k, ennola and k % 2 == 1) for k in degrees]


@lru_cache(maxsize=None)
def group_order_poly(g):
    """|G| = q^N |G|_{p'} in factored form, N = sum (k - 1) over the factors."""
    factors = _order_factors(g)
    size = max(k for k, _ in factors) + 1
    minus, plus = [0] * size, [0] * size
    for k, twisted in factors:
        (plus if twisted else minus)[k] += 1
    return _from_counts(1, sum(k - 1 for k, _ in factors), minus, plus)


def _ennola_index(e):
    """The d with Phi_e(-q) = +-Phi_d(q): Ennola duality exchanges Phi_e of
    G with Phi_d of its twisted form."""
    if e == 1:
        return 2
    if e == 2:
        return 1
    if e % 2 == 1:
        return 2 * e
    if e % 4 == 2:
        return e // 2
    return e


# ---------------------------------------------------------------------------
# symbol degrees

def symbol_degree(g, sym, degenerate=False):
    """Degree of the unipotent character with symbol `sym`, in factored form.

    The numerator is the order part of |G| times, over pairs s < s' in a row,
    q^s (q^(s'-s) - 1) and, over pairs (s, t) across the rows,
    q^min (q^|s-t| + 1); the denominator is 2^twolog q^shift times
    prod_{h=1}^{s} (q^(2h) - 1) for each entry s.  Each q^k - 1 and q^k + 1
    factor, starting from `_order_factors(g)`, is counted into an integer
    histogram by k, the denominator's q^(2h) - 1 with a negative count (one
    per entry >= h); `_from_counts` turns the histograms into the degree.  A
    negative multiplicity or q-power raises CycloError.
    """
    s, n = g.series, g.rank
    if s not in ("B", "C", "D", "2D"):
        raise UnsupportedGroupError(f"symbol degrees undefined for {g}")
    top, bottom = sym.top, sym.bottom
    a, b = len(top), len(bottom)
    twolog = (a + b - 1) // 2
    largest = max(top[-1] if top else 0, bottom[-1] if bottom else 0)
    size = max(2 * n, 2 * largest) + 1
    minus, plus = [0] * size, [0] * size  # count of q^k - 1 and q^k + 1 factors
    for k, twisted in _order_factors(g):
        (plus if twisted else minus)[k] += 1
    if s == "D" and degenerate:
        twolog += 1
    num_q, twos = 0, 0
    for row in (top, bottom):
        last = len(row) - 1
        for i, lo in enumerate(row):
            num_q += lo * (last - i)
            for hi in row[i + 1:]:
                minus[hi - lo] += 1
    for x in top:
        for y in bottom:
            if x < y:
                num_q += x
                plus[y - x] += 1
            elif y < x:
                num_q += y
                plus[x - y] += 1
            else:
                num_q += x
                twos += 1
    # entries >= h, for h = largest down to 1: each gives one q^(2h) - 1
    held = [0] * (largest + 1)
    for x in top + bottom:
        held[x] += 1
    at_least = 0
    for h in range(largest, 0, -1):
        at_least += held[h]
        minus[2 * h] -= at_least
    return _from_counts(Fraction(2) ** (twos - twolog), num_q - _shift_exponent(a + b),
                        minus, plus)


def _hooks(partition):
    """Multiset of hook lengths of a partition."""
    parts = list(partition)
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    out = []
    for i, p in enumerate(parts):
        for j in range(p):
            out.append(p - j + conj[j] - i - 1)
    return out


def _hook_degree(g, lam):
    """Degree of the unipotent character of GL_N (g of type A) or GU_N (type
    2A) labelled by the partition `lam` of N: the hook formula
    q^n(lam) prod_{i<=N} (q^i - 1) / prod_hooks (q^h - 1).  GU_N, the Ennola
    dual (q -> -q), reads q^k + 1 for q^k - 1 at every odd k.
    """
    size = sum(lam) + 1
    minus, plus = [0] + [1] * (size - 1), [0] * size
    for h in _hooks(lam):
        minus[h] -= 1
    if g.series == "2A":
        minus[1::2], plus[1::2] = plus[1::2], minus[1::2]
    return _from_counts(1, sum(i * p for i, p in enumerate(lam)), minus, plus)


def degree_poly(g, label):
    """Exact factored degree of a classical-group unipotent character."""
    if isinstance(label, str):
        label = resolve_label(g, label)
    s = g.series
    if s in ("A", "2A"):
        return _classical_degree(g, label, None)
    if s in ("B", "C", "D", "2D"):
        return _classical_degree(g, label, label_symbol(g, label))
    raise UnsupportedGroupError(
        f"degree_poly only computes classical degrees; use catalog() for {g}")


def _classical_degree(g, label, sym):
    """Degree of a classical character; `sym` is its reduced beta-symbol
    (not read in type A, whose degrees come from the hook formula)."""
    if g.series in ("A", "2A"):
        return _hook_degree(g, label.bip.left)
    if sym.rank() != g.rank:
        raise LabelError(f"label {label} has rank {sym.rank()}, not {g.rank}")
    return symbol_degree(g, sym, degenerate=(label.kind == "split"))


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


def catalog(g):
    """All unipotent characters of g, ordered by (a, A, label).

    Memoised, including the failure for a group without a catalog (E7, or
    E8 when its file is missing): that raises a fresh UnsupportedGroupError
    with the same message on every call, without a second attempt.
    `catalog.cache_info` reports the memo's hits and misses.
    """
    built = _catalog(g)
    if isinstance(built, UnsupportedGroupError):
        raise type(built)(*built.args)
    return built


@lru_cache(maxsize=None)
def _catalog(g):
    """The catalog of g, or the UnsupportedGroupError saying why there is none."""
    try:
        return _build_catalog(g)
    except UnsupportedGroupError as exc:
        return exc.with_traceback(None)


catalog.cache_info = _catalog.cache_info


def _build_catalog(g):
    chars = []
    if g.series in ("E6", "2E6", "F4", "E8"):
        for text, tag, deg in _load_exceptional(str(g)):
            chars.append(UnipChar(g, UnipLabel("named", text), deg, tag))
    elif g.series == "E7":
        raise UnsupportedGroupError("no E7 catalog is shipped")
    else:
        for lab in classical_label_list(g):
            sym = label_symbol(g, lab)
            chars.append(UnipChar(g, lab, _classical_degree(g, lab, sym), _series_tag(lab),
                                  sym))
    chars.sort(key=lambda c: (c.degree.a_value(), c.degree.A_value(), str(c.label)))
    return tuple(chars)


@lru_cache(maxsize=None)
def catalog_map(g):
    """Label text -> character of g's catalog, as a read-only mapping."""
    return MappingProxyType({str(c.label): c for c in catalog(g)})


@lru_cache(maxsize=None)
def find_char(g, text):
    """The catalog character of g labelled `text`, memoised per (g, text):
    the one step from a label text to its character.

    A catalog key is the canonical text of the label it names, so it is
    looked up as it is.  Any other text (spaces around it, `1111.` for
    `1^4.`, a swapped type-D orientation, `D4:.`, an unknown label, a group
    without a catalog) is resolved by `resolve_label`; a label not in the
    catalog raises LabelError, and a group without one UnsupportedGroupError.
    """
    try:
        return catalog_map(g)[text]
    except (KeyError, UnsupportedGroupError):
        pass
    label = resolve_label(g, text)
    cm = catalog_map(g)
    if str(label) in cm:
        return cm[str(label)]
    if label.kind == "named":  # an exceptional group's catalog names its labels
        raise LabelError(f"unknown label {text!r} (not in the {g} catalog)")
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
    """Craven's pi_d: (A+a)/d + m(1,R)/2 + small-argument root count.

    Every term is a multiple of 1/(2d), so the integer numerator
    2(A+a) + d*m(1,R) + 2d*count is summed and one Fraction built over 2d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    deg = c.degree
    count = sum(m * _small_arg_count(e, d) for e, m in deg.cyclo_mults if e > 1)
    num = 2 * (deg.A_value() + deg.a_value()) + d * deg.root_multiplicity(1) + 2 * d * count
    return Fraction(num, 2 * d)


def perversity_2_shortcut(c):
    """pi_2 via the printed simplification A - m(-1, R)/2."""
    return Fraction(c.degree.A_value()) - Fraction(c.degree.root_multiplicity(2), 2)
