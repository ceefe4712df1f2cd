from fractions import Fraction
from itertools import product

import pytest

from unipdec.cyclo import FactoredPoly, parse_factored
from unipdec.degrees import (A_value, UnsupportedGroupError, a_value, catalog,
                             defect, degree_poly, find_char, group_order_poly,
                             perversity, perversity_2_shortcut)
from unipdec.labels import GroupDescriptor

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
