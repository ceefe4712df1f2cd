"""Generic character degrees, a/A-values, defects and the perversity function.

Group orders, symbol degrees (types B, C, D, 2D) and the hook-formula degrees
of GL_n and GU_n are all products of factors q^k - 1 and q^k + 1.  Each is
counted into integer histograms by k, starting from the factors of |G|_{p'}
(`_order_factors`), and one kernel (`_from_counts`) turns the counts into
Phi_e multiplicities, so no polynomial ever gets expanded.
A classical character's degree is computed on its first read
(`UnipChar.degree`) and kept; a catalog is sorted by a and A in closed form
(`_symbol_a_A`, `_partition_a_A`), so building one computes no degree.
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
from operator import mul
from types import MappingProxyType

from .cyclo import CycloError, FactoredPoly, parse_factored
from .labels import (BetaSymbol, GroupDescriptor, LabelError, UnipLabel,
                     UnsupportedGroupError, classical_label_list, label_symbol,
                     resolve_label)


@dataclass(frozen=True, slots=True)
class UnipChar:
    """A catalog character.  `symbol` is the reduced beta-symbol of a
    classical character (what `label_symbol` gives for its label); None for
    an exceptional character.  Label text reaches one only through
    `find_char`, in any spelling of its label.

    `degree` is computed on its first read and kept on the character, which
    the memoised catalog shares with every caller: by `symbol_degree` from
    the symbol for B, C, D and 2D, by the hook formula for A and 2A.  An
    exceptional character's degree is its catalog row, given as `_degree`.
    Characters compare by group, label and HC series, never by degree."""

    group: GroupDescriptor
    label: UnipLabel
    hc_series: str
    symbol: BetaSymbol | None = field(default=None, compare=False)
    _degree: FactoredPoly | None = field(default=None, compare=False, repr=False)

    @property
    def degree(self):
        """The factored degree, computed on the first read and then kept."""
        deg = self._degree
        if deg is None:
            g, label = self.group, self.label
            if g.series in ("A", "2A"):
                deg = _hook_degree(g, label.bip.left)
            else:
                deg = symbol_degree(g, self.symbol, degenerate=(label.kind == "split"))
            object.__setattr__(self, "_degree", deg)
        return deg

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


@lru_cache(maxsize=None)
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


def _symbol_a_A(sym, order_deg):
    """(a, A) of `symbol_degree` of `sym`, in closed form, where `order_deg`
    is the degree of |G|_{p'} (the sum of k over `_order_factors`).

    With the L entries of both rows sorted, e_0 <= ... <= e_{L-1}, and
    shift = `_shift_exponent(L)`: a = sum_i e_i (L-1-i) - shift, Lusztig's
    a-function of a symbol, and A = sum_i e_i i - shift + order_deg -
    sum_i e_i (e_i + 1).  Each pair of entries puts q^min into the numerator
    times a factor of degree max - min, and each entry s puts
    prod_{h<=s} (q^(2h) - 1), of degree s (s + 1), into the denominator
    (G. Lusztig, Characters of reductive groups over a finite field, 1984,
    ch. 4).
    """
    entries = sorted(sym.top + sym.bottom)
    last = len(entries) - 1
    total = sum(entries)
    mins = sum(map(mul, entries, range(last, -1, -1)))  # sum_i e_i (L-1-i)
    maxes = last * total - mins  # sum_i e_i i
    shift = _shift_exponent(last + 1)
    return mins - shift, maxes - shift + order_deg - sum(map(mul, entries, entries)) - total


def _partition_a_A(lam):
    """(a, A) of `_hook_degree` of `lam`, in closed form: a = n(lam) and
    A = n(lam) + N(N + 1)/2 - sum of the hook lengths, N = |lam|."""
    n_lam, size = sum(i * p for i, p in enumerate(lam)), sum(lam)
    return n_lam, n_lam + size * (size + 1) // 2 - sum(_hooks(lam))


def degree_poly(g, label):
    """Exact factored degree of a classical-group unipotent character: the
    catalog degree of `find_char(g, str(label))`, for any spelling."""
    if g.series not in ("A", "2A", "B", "C", "D", "2D"):
        raise UnsupportedGroupError(
            f"degree_poly only computes classical degrees; use catalog() for {g}")
    return find_char(g, str(label)).degree


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
    """All unipotent characters of g, sorted by (a, A, label); memoised per
    group.  A classical character's a and A come in closed form, so no
    classical degree is computed here.  A group without a catalog (E7, or
    E8 when its file is missing) raises UnsupportedGroupError on every
    call; a table of such a group asks once per text (`tables.parse`)."""
    if g.series in ("E6", "2E6", "F4", "E8"):
        keyed = [(deg.a_value(), deg.A_value(), text,
                  UnipChar(g, UnipLabel("named", text), tag, _degree=deg))
                 for text, tag, deg in _load_exceptional(str(g))]
    elif g.series == "E7":
        raise UnsupportedGroupError("no E7 catalog is shipped")
    elif g.series in ("A", "2A"):
        keyed = [(*_partition_a_A(lab.bip.left), str(lab),
                  UnipChar(g, lab, _series_tag(lab), label_symbol(g, lab)))
                 for lab in classical_label_list(g)]
    else:
        order_deg = sum(k for k, _ in _order_factors(g))
        keyed = []
        for lab in classical_label_list(g):
            sym = label_symbol(g, lab)
            keyed.append((*_symbol_a_A(sym, order_deg), str(lab),
                          UnipChar(g, lab, _series_tag(lab), sym)))
    keyed.sort(key=lambda row: row[:3])
    return tuple(row[3] for row in keyed)


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


def perversity_numerator(deg, d):
    """2d * pi_d for a character of degree `deg`, as an int.

    Every term of pi_d is a multiple of 1/(2d), so this is the integer
    2(A+a) + d*m(1,R) + 2d*count; `perversity` divides it by 2d.
    """
    if d < 1:
        raise ValueError("d must be positive")
    count = sum(m * _small_arg_count(e, d) for e, m in deg.cyclo_mults if e > 1)
    return 2 * (deg.A_value() + deg.a_value()) + d * deg.root_multiplicity(1) + 2 * d * count


def perversity(c, d):
    """Craven's pi_d: (A+a)/d + m(1,R)/2 + small-argument root count, as
    the Fraction `perversity_numerator(c.degree, d)` / 2d."""
    return Fraction(perversity_numerator(c.degree, d), 2 * d)


def perversity_2_shortcut(c):
    """pi_2 via the printed simplification A - m(-1, R)/2."""
    return Fraction(c.degree.A_value()) - Fraction(c.degree.root_multiplicity(2), 2)
