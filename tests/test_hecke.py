from fractions import Fraction

import pytest

from unipdec.hecke import (HeckeError, HeckeSpec, Param, SemisimpleMarker,
                           bipartition_count, count_simples, crystal_multipartitions,
                           parse_spec, product_count, regular_count, specialize)


def B(n, b1, branch):
    return HeckeSpec("B", n, Param.parse(b1), Param.parse(branch))


def A(n, p):
    return HeckeSpec("A", n, None, Param.parse(p))


def row(b1, branch, d, upto):
    return [count_simples(B(n, b1, branch), d) for n in range(1, upto + 1)]


def test_type_b_rows_of_the_irr_table():
    assert row("1", "1", 2, 6) == [2, 5, 10, 20, 36, 65]
    assert row("-1", "1", 2, 5) == [1, 2, 3, 5, 7]
    assert row("1", "-1", 2, 6) == [2, 2, 4, 6, 8, 12]
    assert row("-1", "-1", 2, 6) == [1, 2, 3, 4, 6, 9]


@pytest.mark.parametrize("b1, branch", [("1", "-1"), ("-1", "-1"), ("1", "1"), ("-1", "1")])
def test_literal_parameters_do_not_depend_on_d(b1, branch):
    # 1 and -1 specialise to themselves at every d, so the algebra, and its
    # Fock charges, are those of d = 2
    want = row(b1, branch, 2, 6)
    for d in range(1, 9):
        assert row(b1, branch, d, 6) == want, d


def test_d6_specialisation_rows():
    assert row("1", "q", 6, 5) == [2, 5, 10, 18, 32]
    assert row("q", "q", 6, 5) == [2, 5, 9, 18, 30]
    assert row("q^2", "q", 6, 5) == [2, 4, 8, 15, 26]
    assert row("q^3", "q", 6, 5) == [1, 3, 5, 10, 16]
    assert row("q^4", "q", 6, 5) == [2, 4, 8, 15, 26]


def test_specialize_examples():
    # (A1; q^9) at d=2: the parameter becomes -1, a single simple module
    assert count_simples(A(1, "q^9"), 2) == 1
    # (B_n; 1; q) at d=3: -1 is not a power of a cube root of unity
    res = specialize(B(3, "1", "q"), 3)
    assert isinstance(res, SemisimpleMarker) and res.count_kind == "split"
    # (B_2; q^2; q) at d=2
    res = specialize(B(2, "q^2", "q"), 2)
    assert res.e == 2 and count_simples(B(2, "q^2", "q"), 2) == 2


def test_semisimple_counts_bipartitions():
    # all parameters of large order: number of bipartitions of n
    for n in (2, 3, 4):
        assert count_simples(B(n, "q^2", "q"), 40) == bipartition_count(n)


def test_count_at_most_bipartitions():
    for n in (1, 2, 3, 4, 5):
        for b1 in ("1", "-1", "q", "q^2", "q^3"):
            for d in (2, 3, 6):
                assert count_simples(B(n, b1, "q"), d) <= bipartition_count(n)


def test_crystal_generation_closed():
    # the generated layer n is exactly the image of layer n-1 under the
    # crystal operators (generation fixpoint by construction)
    from unipdec.hecke import _apply_f
    e, charges = 6, (3, 0)
    prev = crystal_multipartitions(3, e, charges)
    nxt = crystal_multipartitions(4, e, charges)
    images = set()
    for mp in prev:
        for r in range(e):
            img = _apply_f(mp, r, e, charges)
            if img:
                images.add(img)
    assert images == set(nxt)


def test_product_counts_from_the_paper_tables():
    d = 2
    # rows of the D_n / E6 / B4 Hecke tables built from A/B/D<=3 factors
    assert product_count(parse_spec("A1;q x D2;q"), d) == 1
    assert product_count(parse_spec("A1;q x D3;q"), d) == 2
    assert product_count(parse_spec("B2;q^2;q x D2;q"), d) == 2
    assert product_count(parse_spec("B3;q;q^2"), d) == 3
    assert product_count(parse_spec("B2;q^2;q"), d) == 2
    assert product_count(parse_spec("B3;q^2;q"), d) == 4
    assert product_count(parse_spec("B4;q^2;q"), d) == 6
    assert product_count(parse_spec("A1;q x B2;q^2;q"), d) == 2
    assert product_count(parse_spec("B1;q^4;q"), d) == 2
    assert product_count(parse_spec("B2;q^4;q"), d) == 2
    assert product_count(parse_spec("A1;q^9 x B1;q^4;q"), d) == 1 * 2
    assert product_count(parse_spec("A5;q"), d) == 4
    assert product_count(parse_spec("A1;q x A2;q^2"), d) == 3
    assert product_count(parse_spec("A2;q^4"), d) == 3
    assert product_count(parse_spec("A2;q^2"), d) == 3
    assert product_count(parse_spec("B3;q;q"), d) == 3
    assert product_count(parse_spec("B2;q;q"), d) == 2
    assert product_count(parse_spec("A1;q^3 x B1;q^2;q"), d) == 1 * 2
    # type D reference data
    assert product_count(parse_spec("A1;q x D4;q"), d) == 3
    # d = 6 rows
    assert product_count(parse_spec("B2;q^4;q"), 6) == 4
    assert product_count(parse_spec("A1;q^3 x D1;q"), 6) == 1
    assert product_count(parse_spec("B1;q;q"), 6) == 2
    assert product_count(parse_spec("B2;q;q"), 6) == 5
    assert product_count(parse_spec("B2;q^3;q"), 6) == 3
    assert product_count(parse_spec("B3;q^3;q"), 6) == 5
    assert product_count(parse_spec("B3;1;q"), 6) == 10
    assert product_count(parse_spec("B4;1;q"), 6) == 18


def test_b6_question_mark_is_recorded_not_asserted():
    # the table prints '?' here; the crystal produces a number
    assert count_simples(B(6, "-1", "1"), 2) >= 1


def test_bad_spec():
    with pytest.raises(HeckeError):
        parse_spec("B4;q")
    with pytest.raises(HeckeError):
        Param.parse("q^")


def angle_order(param, d):
    """The order of `param` at a primitive d-th root of unity q: the
    denominator of its angle as a fraction of a turn (q^j at j/d, the
    literal 1 at 0 and -1 at 1/2)."""
    if param.kind == "pow":
        turn = Fraction(param.value, d)
    else:
        turn = Fraction(0 if param.value == 1 else 1, 2)
    return (turn % 1).denominator


def reference_d_count(spec, d):
    """d_reference_count with both rows of the paper's type-D table stored."""
    table = {1: {1: 1, 2: 2, 3: 3, 4: 13, 5: 18, 6: 37},
             2: {1: 1, 2: 1, 3: 2, 4: 3, 5: 4, 6: 6}}
    n = spec.rank
    ev = angle_order(spec.branch, d)
    if n <= 1:
        return 1
    if n == 2:
        return regular_count(2, None if ev == 1 else ev) ** 2
    if n == 3:
        return regular_count(4, None if ev == 1 else ev)
    if ev in table and n in table[ev]:
        return table[ev][n]
    raise HeckeError("not available")


def test_type_d_counts_unchanged_for_small_ranks():
    from unipdec.hecke import d_reference_count
    for n in range(1, 7):
        for branch in ("1", "-1", "q", "q^2", "q^3"):
            for d in (1, 2, 3, 4, 6):
                spec = HeckeSpec("D", n, None, Param.parse(branch))
                try:
                    want = reference_d_count(spec, d)
                except HeckeError:
                    with pytest.raises(HeckeError):
                        d_reference_count(spec, d)
                    continue
                assert d_reference_count(spec, d) == want, (n, branch, d)


def test_type_d_semisimple_count_is_irr_w_d():
    # |Irr W(D_n)|: unordered bipartitions, each {lambda, lambda} counted twice
    from unipdec.hecke import d_reference_count
    want = {2: 4, 3: 5, 4: 13, 5: 18, 6: 37, 7: 55, 8: 100}
    for n, count in want.items():
        assert d_reference_count(HeckeSpec("D", n, None, Param.parse("1")), 2) == count
