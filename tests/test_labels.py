import re
from itertools import product

import pytest

from unipdec.degrees import catalog_map, find_char
from unipdec.labels import (BetaSymbol, Bipartition, GroupDescriptor, LabelError,
                            bipartition_to_symbol, bipartitions, check_partition,
                            classical_label_list, d_canonical_bip, parse_label,
                            parse_partition, partitions, symbol_to_bipartition)
from unipdec.weyl import sym_to_hyper


def test_bipartition_hash_is_that_of_a_fresh_equal_instance():
    # the hash is computed once, on the checked parts; every way of building
    # a bipartition must give the hash of an equal one built afresh
    built = [Bipartition.parse(t) for t in ("21.1^2", ".4", "3.", ".")]
    built += [b.swapped() for b in built] + [d_canonical_bip(b) for b in built]
    built += list(sym_to_hyper((2, 1))) + [Bipartition([2, 1, 0], (0,)), Bipartition((), [])]
    for b in built:
        fresh = Bipartition(tuple(b.left), tuple(b.right))
        assert b == fresh and hash(b) == hash(fresh) == hash((b.left, b.right)), b
        assert {fresh: 1}[b] == 1
    assert repr(Bipartition([2, 1, 0], ())) == "Bipartition(left=(2, 1), right=())"


def test_d_canonical_bip_returns_a_canonical_input_itself():
    # the smaller size on the left, the smaller partition at equal sizes
    for text in (".4", "1.3", "2.2", "1^2.2", ".", "1^2.21"):
        b = Bipartition.parse(text)
        assert d_canonical_bip(b) is b, text
    for text, want in (("4.", ".4"), ("3.1", "1.3"), ("2.1^2", "1^2.2"), ("21.1^2", "1^2.21")):
        b = Bipartition.parse(text)
        got = d_canonical_bip(b)
        assert got == Bipartition.parse(want) == b.swapped() and d_canonical_bip(got) is got


def test_partition_grammar():
    assert parse_partition("21^3") == (2, 1, 1, 1)
    assert parse_partition("2^21^2") == (2, 2, 1, 1)
    assert parse_partition("3^21") == (3, 3, 1)
    assert parse_partition("") == ()
    with pytest.raises(LabelError):
        parse_partition("12")  # increasing parts are not a partition


@pytest.mark.parametrize("text", ["310", "1^0", "1^10", "0", "2^", "^2", "²"])
def test_partition_refuses_a_zero_or_a_non_digit(text):
    # a zero part or exponent is an error, not dropped: 310 is not 31
    with pytest.raises(LabelError, match=re.escape(f"bad partition {text!r}")):
        parse_partition(text)


@pytest.mark.parametrize("text, part", [("310.", "310"), ("1^0", "1^0"),
                                        ("3.1^10", "1^10"), ("B2:10.", "10"),
                                        ("310+", "310")])
def test_label_with_a_zero_part_is_refused(text, part):
    with pytest.raises(LabelError, match=re.escape(f"bad partition {part!r}")):
        parse_label(text)


@pytest.mark.parametrize("text, want", [
    ("1111.", "1^4."), (".2211", ".2^21^2"), ("111", "1^3"), ("11+", "1^2+"),
    ("B2:11.", "B2:1^2."), ("D4:.", "D4"), ("B2", "B2:."), (" 3.1 ", "3.1")])
def test_label_text_is_canonical(text, want):
    assert str(parse_label(text)) == want
    assert parse_label(text) == parse_label(want)


def _spelled_out(text):
    """`text` with every part a^k written as k copies of a."""
    return re.sub(r"(\d)\^(\d)", lambda m: m.group(1) * int(m.group(2)), text)


def test_parse_label_is_idempotent_on_respelled_catalog_labels():
    respelled = 0
    for s in ("A", "2A", "B", "C", "D", "2D"):
        for n in range(2, 8):
            g = GroupDescriptor(s, n)
            for key, char in catalog_map(g).items():
                text = _spelled_out(key)
                once = str(parse_label(text, g))
                assert str(parse_label(once, g)) == once == key, (str(g), text)
                assert find_char(g, text) is char
                respelled += text != key
    assert respelled == 651


def test_catalog_counts():
    assert len(classical_label_list(GroupDescriptor("D", 4))) == 14
    assert len(classical_label_list(GroupDescriptor("2D", 4))) == 10
    assert len(classical_label_list(GroupDescriptor("D", 6))) == 42
    assert len(classical_label_list(GroupDescriptor("B", 4))) == 25
    assert len(classical_label_list(GroupDescriptor("C", 4))) == 25
    assert len(classical_label_list(GroupDescriptor("A", 1))) == 2
    labels = {str(l) for l in classical_label_list(GroupDescriptor("A", 1))}
    assert labels == {"2", "1^2"}  # trivial and Steinberg


def test_bn_equals_cn():
    b = [str(l) for l in classical_label_list(GroupDescriptor("B", 5))]
    c = [str(l) for l in classical_label_list(GroupDescriptor("C", 5))]
    assert b == c


def test_split_labels_in_pairs():
    labels = [str(l) for l in classical_label_list(GroupDescriptor("D", 6))]
    plus = {l[:-1] for l in labels if l.endswith("+")}
    minus = {l[:-1] for l in labels if l.endswith("-")}
    assert plus == minus and plus


def test_symbol_of_reflection_family_member():
    # the paper lists the symbol of [n-1.1] as (0 n | 1)
    for n in (3, 5, 8):
        sym = bipartition_to_symbol(Bipartition((n - 1,), (1,)), 1)
        assert sym == BetaSymbol((0, n), (1,))


def test_trivial_symbol():
    assert bipartition_to_symbol(Bipartition((), ()), 1) == BetaSymbol((0,), ())


def test_symbol_roundtrip_exhaustive():
    # every bipartition of total <= 6, for the defects used by B/C, D and 2D
    for n in range(7):
        for bip in bipartitions(n):
            for defect in (0, 1, 2, 3, 4):
                sym = bipartition_to_symbol(bip, defect)
                assert sym.defect() == defect or (defect == 0 and bip.left == bip.right
                                                  and sym.defect() == 0)
                back = symbol_to_bipartition(sym)
                assert back == bip or back == bip.swapped()
                if defect > 0:
                    assert back == bip


def test_shift_equivalence_reduction():
    sym = BetaSymbol((0, 1, 4), (0, 2))
    assert sym.shifted(2).reduced() == sym.reduced()


def test_label_grammar():
    lab = parse_label("B2:2.")
    assert lab.core == "B2" and lab.bip == Bipartition((2,), ())
    lab = parse_label("3+")
    assert lab.kind == "split" and lab.sign == "+"
    lab = parse_label("D4")
    assert lab.core == "D4" and lab.bip.size() == 0
    g = GroupDescriptor.parse("E6")
    lab = parse_label("phi{20,10}", g)
    assert lab.kind == "named"


def test_beta_symbol_text_grammar():
    sym = BetaSymbol.parse("(0 1 5|-)")
    assert sym.top == (0, 1, 5) and sym.bottom == ()
    assert BetaSymbol.parse(str(sym)) == sym


def test_every_shipped_table_label_resolves():
    import pathlib
    from unipdec import tables
    from unipdec.degrees import UnsupportedGroupError, find_char
    data = pathlib.Path(__file__).resolve().parents[1] / "src" / "unipdec" / "data"
    for sub in list(data.glob("d*")) + [data / "levi"]:
        for f in sorted(sub.glob("*.dmx")):
            t = tables.parse(f.read_text())
            for lab in t.rows:
                try:
                    find_char(t.group, lab)
                except UnsupportedGroupError:
                    assert str(t.group) == "E8"  # only the degree-less E8 block


def test_bipartitions_is_a_memoised_tuple_in_enumeration_order():
    for n in range(11):
        got = bipartitions(n)
        want = [Bipartition(l, r) for k in range(n + 1)
                for l in partitions(k) for r in partitions(n - k)]
        assert type(got) is tuple and list(got) == want, n
        assert bipartitions(n) is got
    assert len(bipartitions(8)) == 185


# every tuple of length <= 4 with entries in -1..4
_SMALL_ROWS = [row for k in range(5) for row in product(range(-1, 5), repeat=k)]


def test_check_partition_accepts_exactly_the_partitions():
    # a partition is non-increasing and positive once its zeros are dropped
    accepted = 0
    for row in _SMALL_ROWS:
        parts = tuple(x for x in row if x)
        if all(x > 0 for x in parts) and all(a >= b for a, b in zip(parts, parts[1:])):
            assert check_partition(row) == parts and check_partition(list(row)) == parts
            accepted += 1
        else:
            with pytest.raises(LabelError) as exc:
                check_partition(row)
            assert str(exc.value) == f"not a partition: {parts}"
    assert accepted == 280


def test_beta_symbol_rows_are_strictly_increasing_and_nonnegative():
    accepted = 0
    for row in _SMALL_ROWS:
        good = all(x >= 0 for x in row) and all(a < b for a, b in zip(row, row[1:]))
        for top, bottom in ((row, ()), ((0, 2), row)):
            if good:
                sym = BetaSymbol(top, bottom)
                assert (sym.top, sym.bottom) == (top, bottom)
            else:
                with pytest.raises(LabelError) as exc:
                    BetaSymbol(top, bottom)
                assert str(exc.value) == f"bad symbol row {row}"
        accepted += good
    assert accepted == 31
