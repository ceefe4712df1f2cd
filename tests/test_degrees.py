import json
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest

from unipdec.cyclo import CycloError, FactoredPoly, parse_factored
from unipdec.degrees import (A_value, UnipChar, UnsupportedGroupError, _hooks,
                             _minus_divisors, _order_factors, _partition_a_A,
                             _plus_divisors, _series_tag, _shift_exponent, _symbol_a_A,
                             a_value, catalog, catalog_map, defect, degree_poly, find_char,
                             group_order_poly, perversity, perversity_2_shortcut,
                             symbol_degree)
from unipdec.fourier import dl_multiplicity, family_fourier, family_of
from unipdec.hc import hc_induce
from unipdec.labels import (BetaSymbol, GroupDescriptor, LabelError, classical_label_list,
                            label_symbol, parse_label, resolve_label)
from unipdec.verify import corpus_trees
from unipdec.weyl import w0_class

D4 = GroupDescriptor.parse("D4")
B4 = GroupDescriptor.parse("B4")
B6 = GroupDescriptor.parse("B6")
D6 = GroupDescriptor.parse("D6")


def test_degree_poly_printed_examples():
    assert str(degree_poly(D4, ".1^4")) == "q^12"
    assert str(degree_poly(D4, "1.3")) == "q*P4^2"
    assert str(degree_poly(D6, ".6")) == "1"


def test_a_A_values():
    triv = find_char(D4, ".4")
    assert a_value(triv) == 0 and A_value(triv) == 0
    st6 = find_char(D6, ".1^6")
    assert a_value(st6) == 30 and A_value(st6) == 30
    c = find_char(D4, "1.3")
    assert a_value(c) == 1 and A_value(c) == 5


def test_group_orders():
    assert str(group_order_poly(GroupDescriptor.parse("A1"))) == "q*P1*P2"
    # multiply (q^4-1)^2 (q^2-1)(q^6-1) q^12 and refactor
    from unipdec.cyclo import DensePoly, factor_dense
    prod = DensePoly.monomial(12)
    for k in (4, 4, 2, 6):
        prod = prod * DensePoly([-1] + [0] * (k - 1) + [1])
    assert group_order_poly(D4) == factor_dense(prod)
    f4 = group_order_poly(GroupDescriptor.parse("F4"))
    prod = DensePoly.monomial(24)
    for k in (2, 6, 8, 12):
        prod = prod * DensePoly([-1] + [0] * (k - 1) + [1])
    assert f4 == factor_dense(prod)


def test_defect_examples():
    assert defect(find_char(D4, "1.21"), 2) == 0
    assert defect(find_char(D4, ".4"), 2) == 4
    tE6 = GroupDescriptor.parse("2E6")
    assert defect(find_char(tE6, "phi{16,5}"), 2) == 2


def test_perversity_trivial_and_steinberg():
    for g in (D4, B4, GroupDescriptor.parse("E6")):
        triv = min(catalog(g), key=lambda c: c.degree.A_value())
        for d in (1, 2, 3, 6):
            assert perversity(triv, d) == 0
    st = find_char(D4, ".1^4")
    assert perversity(st, 2) == 12


def test_perversity_pi6_table_for_B6():
    rows = ["B6", "21^3.1", "B2:1.21", "1^3.21", "1^4.1^2", "B2:.2^2",
            "21^4.", ".31^3", ".21^4", "1^6.", ".1^6"]
    want = [11, 10, 10, 10, 11, 11, 11, 10, 11, 12, 12]
    got = [perversity(find_char(B6, r), 6) for r in rows]
    assert got == want


def test_pi2_simplification_all_catalogs():
    for name in ("B4", "D4", "D5", "2D4", "2D5", "B6", "D6", "E6", "2E6", "F4"):
        g = GroupDescriptor.parse(name)
        for c in catalog(g):
            assert perversity(c, 2) == perversity_2_shortcut(c), str(c)


def test_pi_d_integral_on_principal_series():
    # within one d-Harish-Chandra series differences are integers; the
    # principal-block members of the shipped B6 d=6 table in series 'ps'
    for c in catalog(B6):
        if c.hc_series == "ps":
            assert perversity(c, 2).denominator == 1


def test_degree_divides_order():
    for name in ("B4", "D6", "2D5", "E6", "2E6", "F4"):
        g = GroupDescriptor.parse(name)
        order = group_order_poly(g)
        for q0 in (2, 3, 5, 7):
            oq = order.evaluate(q0)
            for c in catalog(g):
                val = c.degree.evaluate(q0)
                assert val.denominator == 1 and val > 0 and oq % int(val) == 0


def test_catalog_positive_integer_degrees():
    for c in catalog(D6):
        for q0 in (2, 3, 4, 5):
            v = c.degree.evaluate(q0)
            assert v.denominator == 1 and v > 0


def test_no_e7_catalog():
    with pytest.raises(UnsupportedGroupError):
        catalog(GroupDescriptor.parse("E7"))


@pytest.mark.parametrize("name,d,torus,e", [
    ("E6", 8, "P1*P2*P8", 8), ("E6", 9, "P9", 9), ("E6", 12, "P3*P12", 12),
    ("2E6", 8, "P1*P2*P8", 8), ("2E6", 18, "P18", 9), ("2E6", 12, "P6*P12", 12),
])
def test_cyclic_phi_d_blocks_e6_2e6(name, d, torus, e):
    # Phi_d divides |G| once, so the Phi_d-free unipotent characters are the
    # e = |N_G(T_d)/T_d| constituents of R_{T_d}^G(1), whose degree is
    # +-|G|_{p'}/|T_d|.  For 2E6, e is that of the Ennola-dual d of E6.
    g = GroupDescriptor.parse(name)
    free = [c.degree for c in catalog(g) if c.degree.root_multiplicity(d) == 0]
    assert len(free) == e
    order = group_order_poly(g)
    target = FactoredPoly.from_parts(order.scalar, 0, order.mults()) \
        .divide(parse_factored(torus)).expand()
    polys = [deg.expand() for deg in free]
    q0 = 1009  # candidates are screened at q0, then confirmed exactly
    values = [p(q0) for p in polys]
    for signs in product((1, -1), repeat=e):
        if sum(s * v for s, v in zip(signs, values)) == target(q0):
            total = polys[0] if signs[0] > 0 else -polys[0]
            for s, p in zip(signs[1:], polys[1:]):
                total = total + p if s > 0 else total - p
            if total == target:
                return
    pytest.fail(f"no signed sum of the Phi_{d}-free degrees of {name} is {target}")


# The former symbol-degree construction, one FactoredPoly per factor, kept as
# the reference for the one-pass count in degrees.symbol_degree.

def _ref_prod(factors):
    out = FactoredPoly.one()
    for f in factors:
        out = out * f
    return out


def _ref_qk_minus_1(k):
    return FactoredPoly.from_parts(1, 0, {e: 1 for e in range(1, k + 1) if k % e == 0})


def _ref_qk_plus_1(k):
    if k == 0:
        return FactoredPoly.from_parts(2, 0, {})
    return FactoredPoly.from_parts(
        1, 0, {e: 1 for e in range(1, 2 * k + 1) if (2 * k) % e == 0 and k % e != 0})


def _ref_symbol_degree(g, sym, degenerate):
    s, n = g.series, g.rank
    top, bottom = sym.top, sym.bottom
    a, b = len(top), len(bottom)
    order = [_ref_qk_minus_1(2 * i) for i in range(1, n)]
    if s in ("B", "C"):
        first = _ref_prod(order + [_ref_qk_minus_1(2 * n)])
    elif s == "D":
        first = _ref_prod([_ref_qk_minus_1(n)] + order)
    else:
        first = _ref_prod([_ref_qk_plus_1(n)] + order)
    twolog = (a + b - 1) // 2 + (1 if s == "D" and degenerate else 0)
    pairs = [FactoredPoly.from_parts(1, x, {}) * _ref_qk_minus_1(y - x)
             for row in (top, bottom) for i, x in enumerate(row) for y in row[i + 1:]]
    cross = [FactoredPoly.from_parts(1, min(x, y), {}) * _ref_qk_plus_1(abs(x - y))
             for x in top for y in bottom]
    shift = sum((a + b - 2 * i) * (a + b - 2 * i - 1) // 2
                for i in range(1, (a + b) // 2) if a + b - 2 * i >= 2)
    entries = [_ref_qk_minus_1(2 * h) for x in top + bottom for h in range(1, x + 1)]
    num = first * _ref_prod(pairs) * _ref_prod(cross)
    den = FactoredPoly.from_parts(2 ** twolog, shift, {}) * _ref_prod(entries)
    return num.divide(den)


@pytest.mark.parametrize("series, ranks", [
    ("B", range(2, 9)), ("C", range(2, 9)), ("D", range(4, 9)), ("2D", range(4, 9)),
])
def test_symbol_degree_matches_per_factor_reference(series, ranks):
    from unipdec.degrees import symbol_degree
    from unipdec.labels import classical_label_list, label_symbol
    for n in ranks:
        g = GroupDescriptor(series, n)
        degrees = {str(c.label): c.degree for c in catalog(g)}
        labels = classical_label_list(g)
        assert len(labels) == len(degrees)
        for lab in labels:
            sym = label_symbol(g, lab)
            degenerate = lab.kind == "split"
            want = _ref_symbol_degree(g, sym, degenerate)
            assert symbol_degree(g, sym, degenerate) == want, (str(g), str(lab))
            assert degrees[str(lab)] == want


@pytest.mark.parametrize("group", ["B2", "C2"])
def test_find_char_bare_b2_core(group):
    # the cuspidal unipotent character of B2/C2 is catalogued as `B2:.`;
    # the bare core `B2` names the same character
    g = GroupDescriptor.parse(group)
    cusp = [c for c in catalog(g) if c.label.kind == "core"]
    assert [str(c.label) for c in cusp] == ["B2:."]
    assert find_char(g, "B2:.") is cusp[0]
    assert find_char(g, "B2") is cusp[0]
    assert str(cusp[0].degree) == "1/2*q*P1^2"
    # the other bare cores keep their bare catalog names
    assert str(find_char(B6, "B6").label) == "B6"
    assert str(find_char(B6, "B6:.").label) == "B6"
    assert str(find_char(D4, "D4:.").label) == "D4"
    assert str(find_char(B4, "B2:.2").label) == "B2:.2"


# ---------------------------------------------------------------------------
# The Counter-based symbol degree that the integer histograms replaced, kept
# verbatim (renamed) as the reference, with the catalog build that used it.

def _entry_divisors(s):
    """Cyclotomic indices, with repetition, of prod_{h=1}^{s} (q^{2h} - 1)."""
    return tuple(e for h in range(1, s + 1) for e in _minus_divisors(2 * h))


def _counter_symbol_degree(g, sym, degenerate=False):
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


def _counter_catalog(g):
    """`degrees.catalog` of a classical group, on the reference
    degrees: (label, degree, HC series) sorted by the degree's (a, A, label)."""
    rows = []
    for lab in classical_label_list(g):
        sym = label_symbol(g, lab)
        rows.append((lab, _counter_symbol_degree(g, sym, degenerate=(lab.kind == "split")),
                     _series_tag(lab)))
    rows.sort(key=lambda row: (row[1].a_value(), row[1].A_value(), str(row[0])))
    return rows


def _catalog_rows(g):
    """(label, degree, HC series) of each character of `catalog(g)`, in order."""
    return [(c.label, c.degree, c.hc_series) for c in catalog(g)]


@pytest.mark.parametrize("series", ["B", "C", "D", "2D"])
def test_catalog_matches_counter_reference(series):
    for n in range(2, 11):
        g = GroupDescriptor(series, n)
        assert _catalog_rows(g) == _counter_catalog(g), str(g)


def test_symbol_degree_raises_as_the_counter_reference():
    # every symbol with small entries, of any rank: where the quotient is not
    # a polynomial both raise CycloError with the same message (the first
    # Phi_e the numerator holds too few times); elsewhere the degrees agree
    seen = Counter()
    for g in (GroupDescriptor("B", 6), GroupDescriptor("D", 4), GroupDescriptor("2D", 5),
              GroupDescriptor("C", 2)):
        for top, bottom in product((r for a in range(5) for r in combinations(range(6), a)),
                                   (r for b in range(4) for r in combinations(range(5), b))):
            sym = BetaSymbol(top, bottom)
            try:
                want = _counter_symbol_degree(g, sym)
            except CycloError as exc:
                with pytest.raises(CycloError) as got:
                    symbol_degree(g, sym)
                assert str(got.value) == str(exc), (str(g), str(sym))
                seen["raised"] += 1
            else:
                assert symbol_degree(g, sym) == want, (str(g), str(sym))
                seen["agreed"] += 1
    assert seen["raised"] > 1000 and seen["agreed"] > 1000, seen


# ---------------------------------------------------------------------------
# The per-factor group orders and type-A degrees that the count kernel
# replaced, kept verbatim (renamed) as the reference: one FactoredPoly per
# q^k -+ 1 factor, multiplied out, and 2A and 2E6 rebuilt by the Ennola
# transform.

def _ref_prod_factored(factors):
    """The product of `factors`, built as one FactoredPoly."""
    scalar, q_exp, mults = Fraction(1), 0, {}
    for f in factors:
        scalar *= f.scalar
        q_exp += f.q_exp
        for d, m in f.cyclo_mults:
            mults[d] = mults.get(d, 0) + m
    return FactoredPoly.from_parts(scalar, q_exp, mults)


@lru_cache(maxsize=None)
def _ref_fp_qk_minus_1(k):
    """q^k - 1 in factored form."""
    return FactoredPoly.from_parts(1, 0, dict.fromkeys(_minus_divisors(k), 1))


@lru_cache(maxsize=None)
def _ref_fp_qk_plus_1(k):
    """q^k + 1 in factored form (the constant 2 for k = 0)."""
    if k == 0:
        return FactoredPoly.from_parts(2, 0, {})
    return FactoredPoly.from_parts(1, 0, dict.fromkeys(_plus_divisors(k), 1))


_REF_EXC_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
}


@lru_cache(maxsize=None)
def _ref_group_order_poly(g):
    s, n = g.series, g.rank
    if s == "A":
        return _ref_prod_factored([FactoredPoly.from_parts(1, n * (n + 1) // 2, {})]
                                  + [_ref_fp_qk_minus_1(i) for i in range(2, n + 2)])
    if s == "2A":
        return _ref_ennola(_ref_group_order_poly(GroupDescriptor("A", n)))
    if s in ("B", "C"):
        return _ref_prod_factored([FactoredPoly.from_parts(1, n * n, {})]
                                  + [_ref_fp_qk_minus_1(2 * i) for i in range(1, n + 1)])
    if s == "D":
        return _ref_prod_factored([FactoredPoly.from_parts(1, n * (n - 1), {}),
                                   _ref_fp_qk_minus_1(n)]
                                  + [_ref_fp_qk_minus_1(2 * i) for i in range(1, n)])
    if s == "2D":
        return _ref_prod_factored([FactoredPoly.from_parts(1, n * (n - 1), {}),
                                   _ref_fp_qk_plus_1(n)]
                                  + [_ref_fp_qk_minus_1(2 * i) for i in range(1, n)])
    if s == "2E6":
        return _ref_ennola(_ref_group_order_poly(GroupDescriptor("E6", 6)))
    degrees = _REF_EXC_DEGREES[s]
    return _ref_prod_factored([FactoredPoly.from_parts(1, sum(d - 1 for d in degrees), {})]
                              + [_ref_fp_qk_minus_1(d) for d in degrees])


def _ref_ennola(p):
    mults = {}
    sign = 1 if p.scalar > 0 else -1
    if p.q_exp % 2 == 1:
        sign = -sign
    for e, m in p.cyclo_mults:
        # q -> -q sends Phi_e to +-Phi_f, f the order of -q for q of order
        # e: the denominator of the angle 1/e + 1/2
        f = ((Fraction(1, e) + Fraction(1, 2)) % 1).denominator
        mults[f] = mults.get(f, 0) + m
        if e in (1, 2) and m % 2 == 1:
            sign = -sign
    scalar = abs(p.scalar)
    # sign bookkeeping only records that |R(-q)| is again a degree polynomial
    return FactoredPoly.from_parts(scalar, p.q_exp, mults)


def _ref_gl_degree(lam):
    """Unipotent character degree of GL_N for a partition of N (hook formula)."""
    N = sum(lam)
    nval = sum(i * p for i, p in enumerate(lam))
    num = _ref_prod_factored([FactoredPoly.from_parts(1, nval, {})]
                             + [_ref_fp_qk_minus_1(i) for i in range(1, N + 1)])
    den = _ref_prod_factored([_ref_fp_qk_minus_1(h) for h in _hooks(lam)])
    return num.divide(den)


def _ref_type_a_catalog(g):
    """`degrees.catalog` of a type-A or 2A group, on the reference
    degrees: (label, degree, HC series) sorted by the degree's (a, A, label)."""
    rows = []
    for lab in classical_label_list(g):
        deg = _ref_gl_degree(lab.bip.left)
        if g.series == "2A":
            deg = _ref_ennola(deg)
        rows.append((lab, deg, _series_tag(lab)))
    rows.sort(key=lambda row: (row[1].a_value(), row[1].A_value(), str(row[0])))
    return rows


def _exact_parts(p):
    """A FactoredPoly's data with the scalar's type: equal parts print alike."""
    return type(p.scalar), p.scalar, p.q_exp, p.cyclo_mults, repr(p)


_ORDER_GROUPS = ([GroupDescriptor("A", n) for n in range(1, 11)]
                 + [GroupDescriptor("2A", n) for n in range(2, 11)]
                 + [GroupDescriptor(s, n) for s in ("B", "C", "D", "2D") for n in range(2, 11)]
                 + [GroupDescriptor.parse(s) for s in ("E6", "2E6", "E7", "E8", "F4")])


@pytest.mark.parametrize("g", _ORDER_GROUPS, ids=str)
def test_group_order_matches_per_factor_reference(g):
    assert _exact_parts(group_order_poly(g)) == _exact_parts(_ref_group_order_poly(g))


_CLASSICAL_GROUPS = ([GroupDescriptor("A", n) for n in range(1, 11)]
                     + [GroupDescriptor("2A", n) for n in range(2, 11)]
                     + [GroupDescriptor(s, n) for s in ("B", "C", "D", "2D")
                        for n in range(2, 11)])


@pytest.mark.parametrize("g", _CLASSICAL_GROUPS, ids=str)
def test_closed_form_sort_key_is_the_degrees_a_and_A(g):
    # a classical catalog is sorted by closed forms for a and A, so that its
    # build computes no degree; they are the degree's own a- and A-values
    order_deg = sum(k for k, _ in _order_factors(g))
    for c in catalog(g):
        key = (_partition_a_A(c.label.bip.left) if g.series in ("A", "2A")
               else _symbol_a_A(c.symbol, order_deg))
        assert key == (c.degree.a_value(), c.degree.A_value()), (str(g), str(c.label))


_LAZY_SCRIPT = """
import json
from unipdec import degrees, fourier, hc
from unipdec.labels import GroupDescriptor
from unipdec.weyl import w0_class

computed = []


def counted(fn):
    def wrapper(*args, **kwargs):
        computed.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper


degrees.symbol_degree = counted(degrees.symbol_degree)
degrees._hook_degree = counted(degrees._hook_degree)
G = GroupDescriptor.parse


def read_every_degree_twice(g):
    for _ in range(2):
        for c in degrees.catalog(g):
            c.degree


steps = {
    "dl_vector B8 w0": lambda: fourier.dl_vector(G("B8"), w0_class(8)),
    "family_of B5": lambda: fourier.family_of(G("B5"), "21.1^2"),
    "induction_matrix B3 B4": lambda: hc.induction_matrix(G("B3"), G("B4")),
    "B6 degrees twice": lambda: read_every_degree_twice(G("B6")),
    "A5 degrees twice": lambda: read_every_degree_twice(G("A5")),
}
counts = {}
for name, step in steps.items():
    before = len(computed)
    step()
    counts[name] = len(computed) - before
print(json.dumps(counts))
"""


def test_degrees_are_computed_on_first_read_only():
    # a fresh interpreter, so that no other test has read these degrees yet
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCRIPT], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "dl_vector B8 w0": 0, "family_of B5": 0, "induction_matrix B3 B4": 0,
        "B6 degrees twice": len(catalog(B6)), "A5 degrees twice": 11}
    assert len(catalog(B6)) == 86


def test_characters_compare_without_their_degree():
    c = find_char(B4, "21.1")
    assert c.degree is c.degree  # computed once, then kept
    other = UnipChar(c.group, c.label, c.hc_series, c.symbol, group_order_poly(B4))
    assert other.degree == group_order_poly(B4) != c.degree
    assert other == c and hash(other) == hash(c)


def test_order_factors_twist_one_factor_of_2d():
    # for even n the 2D_n order has two factors with k = n; only one is q^n + 1
    assert _order_factors(GroupDescriptor("2D", 4)) == [
        (2, False), (4, False), (6, False), (4, True)]
    assert _order_factors(GroupDescriptor("2A", 3)) == [(2, False), (3, True), (4, False)]
    assert [k for k, twisted in _order_factors(GroupDescriptor.parse("2E6")) if twisted] \
        == [5, 9]


@pytest.mark.parametrize("g", [GroupDescriptor("A", n) for n in range(1, 11)]
                         + [GroupDescriptor("2A", n) for n in range(2, 11)], ids=str)
def test_type_a_catalog_matches_per_factor_reference(g):
    got, want = _catalog_rows(g), _ref_type_a_catalog(g)
    assert got == want
    assert [_exact_parts(deg) for _, deg, _ in got] == [_exact_parts(deg) for _, deg, _ in want]


# ---------------------------------------------------------------------------
# find_char looks a catalog key up as it is; every other text is parsed

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "unipdec" / "data"


def _raw_label_texts():
    """(group, label text as written) for every row and entry of every
    shipped table and every vertex of every shipped tree, E8 (no catalog)
    left out."""
    out = set()
    for path in sorted(DATA.rglob("*.dmx")):
        section, group = None, None
        for line in path.read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line in ("[table]", "[chars]", "[cols]"):
                section = line
            elif section == "[table]" and line.startswith("group"):
                group = GroupDescriptor.parse(line.split("=", 1)[1])
            elif section == "[chars]" and line:
                out.add((group, line.split("|", 1)[0].strip()))
            elif section == "[cols]" and line:
                out.update((group, piece.split("=", 1)[0])
                           for piece in line.partition(":")[2].split())
    out.update((t.group, lab) for _, t in corpus_trees(str(DATA)) for lab in t.characters())
    return sorted(((g, text) for g, text in out if str(g) != "E8"),
                  key=lambda pair: (str(pair[0]), pair[1]))


def test_find_char_of_every_shipped_label_text():
    texts = _raw_label_texts()
    assert len(texts) > 500
    for g, text in texts:
        if g.series in ("E6", "2E6", "F4"):
            want = catalog_map(g)[text]  # an exceptional text is an exact key
        else:
            want = catalog_map(g)[str(resolve_label(g, text))]
        assert find_char(g, text) is want, (str(g), text)


def test_every_catalog_key_parses_to_its_own_text():
    # what lets find_char return catalog_map(g)[text] without parsing a key
    groups = [GroupDescriptor(s, n) for s in ("A", "2A", "B", "C", "D", "2D") for n in range(2, 8)]
    for g in groups + [GroupDescriptor.parse(s) for s in ("E6", "2E6", "F4")]:
        for key, c in catalog_map(g).items():
            assert str(parse_label(key, g)) == key == str(c.label), (str(g), key)


def test_find_char_of_texts_that_are_not_keys():
    assert find_char(D4, "D4:.") is catalog_map(D4)["D4"]
    assert "3.1" not in catalog_map(D4)  # the swapped type-D orientation
    assert find_char(D4, "3.1") is find_char(D4, "1.3")
    b2 = GroupDescriptor.parse("B2")
    assert find_char(b2, "B2") is catalog_map(b2)["B2:."]
    assert find_char(D4, " 1.3 ") is find_char(D4, "1.3")
    b4 = GroupDescriptor.parse("B4")
    assert "1111." not in catalog_map(b4)  # repeated parts written out
    assert find_char(b4, "1111.") is find_char(b4, "1^4.") is catalog_map(b4)["1^4."]
    assert find_char(D4, "111.1") is find_char(D4, "1.1^3")  # respelled and swapped
    with pytest.raises(LabelError, match=r"bad partition '310'"):
        find_char(b4, "310.")
    with pytest.raises(LabelError, match=r"label '5.' not in catalog of D4"):
        find_char(D4, "5.")
    with pytest.raises(LabelError, match="empty label"):
        find_char(GroupDescriptor.parse("E8"), " ")
    with pytest.raises(UnsupportedGroupError, match="no shipped catalog for E8"):
        find_char(GroupDescriptor.parse("E8"), "phi{1,0}")


B3 = GroupDescriptor.parse("B3")

#: every public function that takes a character's label text, on one text
LABEL_ENTRY_POINTS = {
    "degree_poly": degree_poly,
    "hc_induce": lambda g, text: hc_induce(g, {text: 1}, GroupDescriptor(g.series, g.rank + 1)),
    "dl_multiplicity": lambda g, text: dl_multiplicity(g, text, w0_class(g.rank)),
    "family_of": family_of,
    "family_fourier": family_fourier,
}


@pytest.mark.parametrize("name", LABEL_ENTRY_POINTS)
def test_every_label_entry_point_reads_text_with_find_char(name):
    fn = LABEL_ENTRY_POINTS[name]
    for g, text, canonical in ((B4, "1111.", "1^4."), (D4, "3.1", "1.3"),
                               (B4, " 21.1 ", "21.1"), (D4, " 1^2+", "1^2+")):
        assert fn(g, text) == fn(g, canonical), (str(g), text)
    # text naming no character of the group raises, also as an HC source
    # label ("4." and "2.2" are valid label syntax, so parsing alone passes)
    for g, text in ((B3, "zz"), (B3, "4."), (B3, "21.1"), (D4, "2.2")):
        with pytest.raises(LabelError, match=re.escape(repr(text))):
            fn(g, text)
