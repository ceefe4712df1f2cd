"""Differential tests for the canonical-form fast paths of the value types.

Each test keeps the general route (a dict merge, a sort, a per-term sum, a
fresh product) verbatim as the reference, and checks that the fast path
gives the same canonical form and rejects the same input.
"""

import pathlib
import random
import re
from fractions import Fraction

import pytest

from unipdec import cyclo, tables, verify
from unipdec.cyclo import CycloError, DensePoly, FactoredPoly, cyclotomic
from unipdec.degrees import catalog
from unipdec.labels import (BetaSymbol, Bipartition, GroupDescriptor, LabelError,
                            check_partition, label_symbol)
from unipdec.tables import ParamExpr, TableError

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "unipdec" / "data"


# ---------------------------------------------------------------------------
# FactoredPoly: the dict/sort route every construction used to take

def reference_canonical(scalar, mults):
    if scalar == 0:
        raise CycloError("FactoredPoly scalar must be nonzero")
    out = tuple(sorted((int(d), int(m)) for d, m in dict(mults).items() if m != 0))
    for d, m in out:
        if d < 1 or m < 0:
            raise CycloError(f"bad cyclotomic factor P{d}^{m}")
    return Fraction(scalar), out


def reference_product(a, b):
    mults = dict(a.cyclo_mults)
    for d, m in b.cyclo_mults:
        mults[d] = mults.get(d, 0) + m
    return reference_canonical(a.scalar * b.scalar, sorted(mults.items()))


def reference_divide(a, b):
    mults = dict(a.cyclo_mults)
    for d, m in b.cyclo_mults:
        mults[d] = mults.get(d, 0) - m
        if mults[d] < 0:
            raise CycloError(f"P{d} does not divide")
    if a.q_exp < b.q_exp:
        raise CycloError("q-power does not divide")
    return reference_canonical(a.scalar / b.scalar, sorted(mults.items()))


def reference_expand(p):
    acc = DensePoly([1])
    for d, m in p.cyclo_mults:
        for _ in range(m):
            acc = acc * cyclotomic(d)
    acc = acc * DensePoly.monomial(p.q_exp)
    return acc * p.scalar


def canonical_parts(p):
    assert type(p.scalar) is Fraction
    assert type(p.cyclo_mults) is tuple
    assert all(type(pair) is tuple and type(pair[0]) is int and type(pair[1]) is int
               for pair in p.cyclo_mults)
    return p.scalar, p.cyclo_mults


def random_mults(rng, allow_zero=True):
    pairs = [(rng.randint(1, 12), rng.randint(0 if allow_zero else 1, 3))
             for _ in range(rng.randint(0, 6))]
    rng.shuffle(pairs)
    return pairs


def random_scalar(rng):
    return rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-3, 4), Fraction(6, 3)])


def random_poly(rng):
    return FactoredPoly.from_parts(random_scalar(rng), rng.randint(0, 4),
                                   dict(random_mults(rng)))


def test_fast_path_matches_dict_sort_route():
    rng = random.Random(1)
    for _ in range(2000):
        pairs = random_mults(rng)
        scalar = random_scalar(rng)
        shapes = [tuple(pairs), list(pairs), dict(pairs),
                  tuple(sorted(dict(pairs).items()))]
        for mults in shapes:
            p = FactoredPoly(scalar, 2, mults)
            assert canonical_parts(p) == reference_canonical(scalar, mults)
            assert p == FactoredPoly(p.scalar, 2, p.cyclo_mults)
        p = FactoredPoly.from_parts(scalar, 1, dict(pairs))
        assert canonical_parts(p) == reference_canonical(scalar, dict(pairs))


def test_non_int_entries_take_the_general_route():
    p = FactoredPoly(Fraction(2), 0, ((True, 2), (3, Fraction(1))))
    assert canonical_parts(p) == (Fraction(2), ((1, 2), (3, 1)))
    q = FactoredPoly(1, 0, ([2, 1], [1, 1]))
    assert canonical_parts(q) == (Fraction(1), ((1, 1), (2, 1)))


@pytest.mark.parametrize("mults", [((0, 1),), ((1, -1),), {3: 1, 0: 2}, ((2, 1), (-1, 1)),
                                   [(2, -3)], ((1, 1), (1, -1), (4, -2))])
def test_bad_factors_raise(mults):
    with pytest.raises(CycloError) as fast:
        FactoredPoly(1, 0, mults)
    with pytest.raises(CycloError) as ref:
        reference_canonical(1, mults)
    assert str(fast.value) == str(ref.value)


def test_zero_scalar_raises():
    for scalar in (0, Fraction(0)):
        with pytest.raises(CycloError, match="nonzero"):
            FactoredPoly(scalar, 0, ((1, 1),))


def test_products_and_quotients_match_reference():
    rng = random.Random(2)
    for _ in range(1500):
        a, b = random_poly(rng), random_poly(rng)
        ab = a * b
        assert canonical_parts(ab) == reference_product(a, b)
        assert ab.q_exp == a.q_exp + b.q_exp
        try:
            want = reference_divide(a, b)
        except CycloError as exc:
            with pytest.raises(CycloError) as got:
                a.divide(b)
            assert str(got.value) == str(exc)
        else:
            assert canonical_parts(a.divide(b)) == want
        assert canonical_parts(ab.divide(b)) == canonical_parts(a)
        k = rng.choice([2, -1, Fraction(1, 3)])
        assert canonical_parts(a * k) == reference_canonical(a.scalar * k, a.cyclo_mults)
        for e in range(1, 14):
            assert a.root_multiplicity(e) == dict(a.cyclo_mults).get(e, 0)
        assert a.A_value() == a.q_exp + sum(m * cyclotomic(d).degree()
                                            for d, m in a.cyclo_mults)
        assert a.A_value() == a.expand().degree()


def test_memoised_expansion_equals_naive_product():
    rng = random.Random(3)
    polys = [random_poly(rng) for _ in range(300)]
    for g in ("B5", "D6", "2D5", "A6", "2A4", "E6", "2E6", "F4"):
        polys.extend(c.degree for c in catalog(GroupDescriptor.parse(g)))
    for p in polys:
        first = p.expand()
        assert first == reference_expand(p)
        assert p.expand() == first  # a memo hit gives the same polynomial
        assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
                   for c in first.coeffs)
    # the memo is shared by every scalar multiple of one monic product
    before = cyclo._monic_expansion.cache_info().misses
    base = FactoredPoly.from_parts(1, 3, {1: 2, 5: 1, 9: 1})
    for k in (1, -3, Fraction(5, 7)):
        assert (base * k).expand() == reference_expand(base * k)
    assert cyclo._monic_expansion.cache_info().misses <= before + 1


# ---------------------------------------------------------------------------
# labels: the validators as they read before the one-pass form

def reference_check_partition(parts):
    parts = tuple(int(p) for p in parts if int(p) != 0)
    if any(p < 0 for p in parts) or any(parts[i] < parts[i + 1]
                                        for i in range(len(parts) - 1)):
        raise LabelError(f"not a partition: {parts}")
    return parts


def reference_row_ok(row):
    return not (any(row[i] >= row[i + 1] for i in range(len(row) - 1))
                or any(x < 0 for x in row))


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except LabelError as exc:
        return ("error", str(exc))


def test_partition_and_symbol_validators_match_reference():
    rng = random.Random(4)
    rows = [(), (0,), (-1,), (3, 3), (3, 2, 1), (1, 2), (0, 0), (2, 0, 1), (1, -1),
            (-2, -1), (0, 1, 1), (4, 2, 2, 0)]
    rows += [tuple(rng.randint(-2, 5) for _ in range(rng.randint(0, 5)))
             for _ in range(3000)]
    for row in rows:
        assert outcome(check_partition, row) == outcome(reference_check_partition, row)
        assert outcome(check_partition, list(map(str, row))) == outcome(
            reference_check_partition, list(map(str, row)))
        sym = outcome(BetaSymbol, row, ())
        assert (sym[0] == "ok") == reference_row_ok(row)
        assert (outcome(BetaSymbol, (), row)[0] == "ok") == reference_row_ok(row)
        bip = outcome(Bipartition, row, (1,))
        ref = outcome(reference_check_partition, row)
        assert bip[0] == ref[0]
        if bip[0] == "ok":
            assert bip[1].left == ref[1]


@pytest.mark.parametrize("row", [(2, 1), (1, 1), (0, -1), (-1, 0), (0, 2, 2)])
def test_symbol_rows_must_increase_strictly_from_zero(row):
    with pytest.raises(LabelError, match="bad symbol row"):
        BetaSymbol(row, (0, 1))
    with pytest.raises(LabelError, match="bad symbol row"):
        BetaSymbol((0, 1), row)


@pytest.mark.parametrize("parts", [(1, 2), (2, 2, 3), (3, -1), (-1,), (1, 0, 2)])
def test_partitions_must_not_increase_or_go_negative(parts):
    with pytest.raises(LabelError, match="not a partition"):
        check_partition(parts)
    with pytest.raises(LabelError, match="not a partition"):
        Bipartition(parts, ())


def test_reduced_strips_the_whole_common_shift():
    def reference_reduced(sym):
        top, bottom = list(sym.top), list(sym.bottom)
        while top and bottom and top[0] == 0 and bottom[0] == 0:
            top = [x - 1 for x in top[1:]]
            bottom = [x - 1 for x in bottom[1:]]
        return BetaSymbol(tuple(top), tuple(bottom))

    rng = random.Random(5)
    for _ in range(2000):
        top = tuple(sorted(rng.sample(range(7), rng.randint(0, 5))))
        bottom = tuple(sorted(rng.sample(range(7), rng.randint(0, 5))))
        sym = BetaSymbol(top, bottom)
        assert sym.reduced() == reference_reduced(sym)
        assert sym.shifted(rng.randint(1, 3)).reduced() == sym.reduced()
    listed = BetaSymbol([1, 2], [3])
    assert type(listed.reduced().top) is tuple


CLASSICAL = ([f"A{n}" for n in range(1, 9)] + [f"2A{n}" for n in range(2, 9)]
             + [f"{s}{n}" for s in ("B", "C", "D", "2D") for n in range(2, 9)])


@pytest.mark.parametrize("name", CLASSICAL)
def test_catalog_symbol_equals_label_symbol(name):
    g = GroupDescriptor.parse(name)
    for c in catalog(g):
        assert c.symbol == label_symbol(g, c.label), c


def test_exceptional_characters_carry_no_symbol():
    for name in ("E6", "2E6", "F4"):
        assert all(c.symbol is None for c in catalog(GroupDescriptor.parse(name)))


# ---------------------------------------------------------------------------
# parse_expr: one ParamExpr per term, summed with +

_TERM_RE = re.compile(r"([+-]?)(\d*)([a-z][a-z0-9]*)?")


def reference_parse_expr(text):
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


def corpus_expressions(monkeypatch):
    """Every expression text of the corpus: the entries, which parse hands
    to parse_entry, and both sides of every constraint, to parse_expr."""
    seen = []

    def recording(real):
        def parse_recorded(text):
            seen.append(text)
            return real(text)
        return parse_recorded

    monkeypatch.setattr(tables, "parse_expr", recording(tables.parse_expr))
    monkeypatch.setattr(tables, "parse_entry", recording(tables.parse_entry))
    tables.parse.cache_clear()  # parse is memoised per text: decode each one here
    n = sum(1 for _ in verify.corpus_tables())
    for f in sorted((DATA / "levi").glob("*.dmx")):
        tables.parse(f.read_text())
    monkeypatch.undo()
    assert n == 26
    return seen


def test_parse_expr_matches_reference_on_corpus(monkeypatch):
    texts = corpus_expressions(monkeypatch)
    assert len(texts) > 2000
    assert any("=" not in t and re.search("[a-z]", t) for t in texts)
    for text in set(texts):
        got, want = tables.parse_expr(text), reference_parse_expr(text)
        assert list(got.terms.items()) == list(want.terms.items()), text


def test_parse_expr_matches_reference_on_cancelling_and_malformed_text():
    rng = random.Random(6)
    pieces = ["a", "b", "2a", "c17", "3", "0", "0a", "12", "x1", "10b"]
    texts = ["a+b-a+a", "a-a", "3-3", "0", "2-d", " 24 -15c17- 5c18+6c19 ", "b+a-b+b-a"]
    for _ in range(1500):
        text = ""
        for _ in range(rng.randint(1, 6)):
            text += rng.choice(["+", "-", ""] if text else ["", "-", "+"])
            text += rng.choice(pieces)
        texts.append(text)
    texts += ["", "  ", "+", "-", "2-", "a+-b", "3*a", "1.5", "a+", "A", "a b", "(a)",
              "--a", "2++3", "a_1", "-+"]
    for text in texts:
        try:
            want = reference_parse_expr(text)
        except TableError as exc:
            with pytest.raises(TableError) as got:
                tables.parse_expr(text)
            assert str(got.value) == str(exc), text
        else:
            got = tables.parse_expr(text)
            assert list(got.terms.items()) == list(want.terms.items()), text


def test_param_expr_arithmetic_keeps_term_order():
    def reference_add(x, y):
        out = dict(x.terms)
        for m, c in y.terms.items():
            out[m] = out.get(m, 0) + c
        return ParamExpr(out)

    rng = random.Random(7)
    names = ["a", "b", "c"]

    def rand():
        return ParamExpr({tuple(sorted(rng.sample(names, rng.randint(0, 2)))):
                          rng.randint(-3, 3) for _ in range(rng.randint(0, 4))})

    for _ in range(1000):
        x, y = rand(), rand()
        assert list((x + y).terms.items()) == list(reference_add(x, y).terms.items())
        assert list((-x).terms.items()) == [(m, -c) for m, c in x.terms.items()]
        k = rng.randint(-2, 2)
        assert list((x * k).terms.items()) == [(m, c * k) for m, c in x.terms.items()
                                               if c * k]
        assert (x - y) + y == x
