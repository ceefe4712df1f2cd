"""Lusztig families, Fourier rows and <rho, R_w>.

The `_ref_*` functions keep `families`, `family_fourier`,
`dl_multiplicity` and `dl_vector` as they were before the family
coordinates and the signed principal-series rows were memoised, verbatim
but for the `_ref_` prefixes, and the differential tests assert equal
values of the same type, or the same exception type and text.
"""

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import pytest

from unipdec import fourier, hc
from unipdec.degrees import UnsupportedGroupError, catalog
from unipdec.fourier import (FourierError, dl_multiplicity, dl_vector, families,
                             family_fourier, family_of)
from unipdec.labels import BetaSymbol, GroupDescriptor, LabelError
from unipdec.weyl import (SignedClass, WeylError, char_value_B, char_value_D, class_size,
                          coxeter_class, sign_value, signed_classes, w0_class)

B4 = GroupDescriptor.parse("B4")
D4 = GroupDescriptor.parse("D4")


def test_trivial_is_alone_in_its_family():
    for n in (2, 3, 5):
        g = GroupDescriptor("B", n)
        assert family_of(g, f"{n}.") == (f"{n}.",)


def test_four_element_family_of_Bn():
    # F = {[n-1.1], [.n], [(n-1,1).], [B2:n-2.]}
    for n in (3, 4, 6):
        g = GroupDescriptor("B", n)
        fam = set(family_of(g, f".{n}"))
        want = {f"{n - 1}.1", f".{n}", f"{n - 1}1." if n > 2 else "11.",
                f"B2:{n - 2}." if n > 3 else ("B2:1." if n == 3 else None)}
        if n == 4:
            want = {"3.1", ".4", "31.", "B2:2."}
        if n == 3:
            want = {"2.1", ".3", "21.", "B2:1."}
        if n == 6:
            want = {"5.1", ".6", "51.", "B2:4."}
        assert fam == want


def test_d4_cuspidal_family():
    fam = set(family_of(D4, "D4"))
    assert fam == {"D4", ".2^2", "1^2.2", "1.21"}
    row = family_fourier(D4, "D4")
    assert sorted(abs(v) for v in row.values()) == [Fraction(1, 2)] * 4


def test_fourier_row_is_half_integral_and_involutive_on_4_family():
    labels = family_of(B4, ".4")
    mat = {a: family_fourier(B4, a) for a in labels}
    for a in labels:
        for b in labels:
            s = sum(mat[a][c] * mat[b][c] for c in labels)
            assert s == (1 if a == b else 0)
            assert mat[a][b] == mat[b][a]


def test_multw0():
    for n in range(2, 9):
        g = GroupDescriptor("B", n)
        w0 = w0_class(n)
        assert dl_multiplicity(g, f".{n}", w0) == -n + (1 if n % 2 == 0 else 0)
        lab = f"B2:{n - 2}." if n > 3 else ("B2:1." if n == 3 else "B2:.")
        if n == 2:
            lab = "B2:."
        assert dl_multiplicity(g, lab, w0) == -n + (1 if n % 2 == 1 else 0)


def test_trivial_and_steinberg_multiplicities():
    for n in (2, 3, 4):
        g = GroupDescriptor("B", n)
        st = "." + ("1" if n == 1 else f"1^{n}")
        for cls in signed_classes(n):
            assert dl_multiplicity(g, f"{n}.", cls) == 1
            assert dl_multiplicity(g, st, cls) == sign_value(cls)
    # n = 5 spot checks on a few classes
    g = GroupDescriptor("B", 5)
    for cls in (w0_class(5), coxeter_class(5), SignedClass((3, 2), ()),
                SignedClass((2,), (2, 1))):
        assert dl_multiplicity(g, "5.", cls) == 1
        assert dl_multiplicity(g, ".1^5", cls) == sign_value(cls)


def test_dl_orthogonality():
    # sum over unipotent rho of <rho,R_w><rho,R_w'> = delta * |C_W(w)|
    for n in (2, 3):
        g = GroupDescriptor("B", n)
        order = 2 ** n * math.factorial(n)
        labels = [str(c.label) for c in catalog(g)]
        for c1 in signed_classes(n):
            for c2 in signed_classes(n):
                s = sum(dl_multiplicity(g, lab, c1) * dl_multiplicity(g, lab, c2)
                        for lab in labels)
                want = order // class_size(n, c1) if c1 == c2 else 0
                assert s == want


def test_twisted_unsupported():
    from unipdec.degrees import UnsupportedGroupError
    with pytest.raises(UnsupportedGroupError):
        dl_multiplicity(GroupDescriptor.parse("2D4"), "3.", w0_class(4))


def test_dl_orthogonality_n4():
    g = GroupDescriptor.parse("B4")
    order = 2 ** 4 * math.factorial(4)
    labels = [str(c.label) for c in catalog(g)]
    classes = signed_classes(4)
    vals = {lab: {cls: dl_multiplicity(g, lab, cls) for cls in classes}
            for lab in labels}
    for c1 in classes:
        for c2 in classes:
            s = sum(vals[lab][c1] * vals[lab][c2] for lab in labels)
            want = order // class_size(4, c1) if c1 == c2 else 0
            assert s == want


def test_fourier_caches_are_read_only():
    # the memoised families and Fourier rows are shared by every caller, so
    # writing into them must fail rather than change later multiplicities
    B3 = GroupDescriptor.parse("B3")
    w0 = w0_class(3)
    before = dl_multiplicity(B3, "3.", w0)
    assert before == 1
    row = family_fourier(B3, "3.")
    with pytest.raises(TypeError):
        row["3."] = 7
    keyed, fams = families(B3)
    with pytest.raises(TypeError):
        keyed["3."] = keyed[".3"]
    with pytest.raises(TypeError):
        fams[next(iter(fams))] = ()
    assert all(isinstance(labs, tuple) for labs in fams.values())
    assert dl_multiplicity(B3, "3.", w0) == before
    assert family_fourier(B3, "3.") is row
    # the family coordinates, the signed principal-series rows and the HC
    # covers per source label
    coords, den = fourier._family(B3, keyed["3."].entries())
    with pytest.raises(TypeError):
        coords["3."] = frozenset({99})
    row_den, terms = fourier._signed_row(B3, ".3")
    with pytest.raises(TypeError):
        terms[0] = (1, terms[0][1], False)
    with pytest.raises(TypeError):
        terms[0][0] = -terms[0][0]
    core, cover = hc._label_cover(GroupDescriptor.parse("D4"), "1.3")
    with pytest.raises(TypeError):
        cover[0] = (cover[0][0], 7)
    with pytest.raises(TypeError):
        cover[0][1] = 7
    assert dl_multiplicity(B3, "3.", w0) == before
    assert fourier._signed_row(B3, ".3") == (row_den, terms)
    # the group's table of signed rows, and every row in it
    table = fourier._dl_table(B3)
    with pytest.raises(TypeError):
        table["3."] = table[".3"]
    with pytest.raises(TypeError):
        del table["3."]
    assert all(isinstance(row, tuple) and isinstance(row[1], tuple)
               and all(isinstance(term, tuple) for term in row[1]) for row in table.values())
    assert table[".3"] is fourier._signed_row(B3, ".3")
    assert dl_multiplicity(B3, "3.", w0) == before


def test_dl_vector_builds_one_table_and_reads_no_catalog_label(monkeypatch):
    # the group's table is built once, family by family, and a catalog label
    # is looked up in it as it is; only another spelling reaches find_char
    B6 = GroupDescriptor.parse("B6")
    read = []
    find_char = fourier.find_char
    monkeypatch.setattr(fourier, "find_char",
                        lambda group, text: read.append(text) or find_char(group, text))
    fourier._dl_table.cache_clear()
    w0 = w0_class(6)
    vector = dl_vector(B6, w0)
    assert fourier._dl_table.cache_info().misses == 1
    assert read == []
    assert list(vector) == [str(c.label) for c in catalog(B6)]
    assert list(fourier._dl_table(B6)) == list(vector)
    assert all(dl_multiplicity(B6, lab, w0) == value for lab, value in vector.items())
    assert read == [] and fourier._dl_table.cache_info().misses == 1
    assert dl_multiplicity(B6, ".111111", w0) == vector[".1^6"]
    assert read == [".111111"]


@pytest.mark.parametrize("name", [f"B{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)])
def test_families_shift_like_a_checked_symbol(name):
    # families shifts the checked reduced symbols without checking them
    # again; the result equals sym.shifted(k), key for key, in order
    g = GroupDescriptor.parse(name)
    parity = 1 if g.series == "B" else 0
    reduced = {str(c.label): fourier._entry_key(c.symbol, parity) for c in catalog(g)}
    maxlen = max(len(s.top) + len(s.bottom) for s in reduced.values())
    want = {lab: sym.shifted((maxlen - len(sym.top) - len(sym.bottom)) // 2)
            for lab, sym in reduced.items()}
    fams = {}
    for lab, sym in want.items():
        fams.setdefault(sym.entries(), []).append(lab)
    keyed, got_fams = families(g)
    assert list(keyed.items()) == list(want.items())
    assert all(type(s.top) is tuple and type(s.bottom) is tuple for s in keyed.values())
    assert list(got_fams.items()) == [(key, tuple(labs)) for key, labs in fams.items()]


def test_entry_key_rejects_wrong_parity():
    # a shift adds one entry to each row, so no number of shifts fixes the
    # parity: this used to loop for ever
    sym = BetaSymbol((0, 1), (2,))
    with pytest.raises(FourierError, match=r"symbol \(0 1\|2\) has 3 entries, "
                                           r"not a number of parity 0"):
        fourier._entry_key(sym, 0)
    assert fourier._entry_key(sym, 1) == sym.reduced()


# -- the old code, verbatim but for the _ref_ prefixes ----------------------

def _ref_entry_key(sym, parity):
    """Entry multiset after shifting the symbol to total size congruent to parity."""
    sym = sym.reduced()
    while (len(sym.top) + len(sym.bottom)) % 2 != parity % 2:
        sym = sym.shifted(1)
    # one extra normalising shift keeps tiny symbols comparable
    return sym


def _ref_family_parity(group):
    # B/C: odd number of entries; D/2D: even
    return 1 if group.series in ("B", "C") else 0


@lru_cache(maxsize=None)
def _ref_families(group):
    if group.series not in ("B", "C", "D"):
        raise UnsupportedGroupError(f"families implemented for untwisted classical {group}")
    parity = _ref_family_parity(group)
    chars = catalog(group)
    keyed = {}
    for c in chars:
        sym = _ref_entry_key(c.symbol, parity)
        # grow every symbol to a common size so multisets are comparable
        keyed[str(c.label)] = sym
    maxlen = max(len(s.top) + len(s.bottom) for s in keyed.values())
    fams = {}
    for lab, sym in keyed.items():
        while len(sym.top) + len(sym.bottom) < maxlen:
            sym = sym.shifted(1)
        keyed[lab] = sym
        key = tuple(sorted(sym.top + sym.bottom))
        fams.setdefault(key, []).append(lab)
    return (MappingProxyType(keyed),
            MappingProxyType({key: tuple(labs) for key, labs in fams.items()}))


def _ref_singles(entries):
    return tuple(sorted(e for e in set(entries) if entries.count(e) == 1))


def _ref_coords(sym, special_bottom, singles):
    m = set(sym.bottom) ^ set(special_bottom)
    m = m & set(singles)
    if len(m) % 2:
        m = set(singles) - m
    if singles and len(singles) % 2 == 0 and min(singles) in m:
        m = set(singles) - m
    return frozenset(m)


def _ref_special_symbol(entries):
    ent = sorted(entries)
    top = tuple(ent[0::2])
    bottom = tuple(ent[1::2])
    if len(top) < len(bottom):
        top, bottom = bottom, top
    return BetaSymbol(top, bottom)


@lru_cache(maxsize=None)
def _ref_family_fourier(group, label_text):
    keyed, fams = _ref_families(group)
    sym = keyed[label_text]
    entries = tuple(sorted(sym.top + sym.bottom))
    members = fams[entries]
    singles = _ref_singles(list(entries))
    twom = max(len(singles) - (1 if len(singles) % 2 else 2), 0)
    special = _ref_special_symbol(entries)
    me = _ref_coords(sym, special.bottom, singles)
    row = {}
    for lab in members:
        other = _ref_coords(keyed[lab], special.bottom, singles)
        inter = len(me & other)
        # representatives are only defined modulo complement for even |Z_1|
        row[lab] = Fraction((-1) ** (inter % 2), 2 ** (twom // 2))
    return MappingProxyType(row)


def _ref_dl_multiplicity(group, label_text, cls):
    if group.series not in ("B", "C", "D"):
        raise UnsupportedGroupError(
            f"Deligne-Lusztig multiplicities are not computed for {group}")
    if group.series == "D" and len(cls.negative) % 2:
        raise FourierError("class does not define an element of W(D_n)")
    row = _ref_family_fourier(group, label_text)
    total = Fraction(0)
    from unipdec.degrees import catalog_map
    cm = catalog_map(group)
    for lab, coef in row.items():
        c = cm[lab]
        if c.hc_series != "ps":
            continue
        bip = c.label.bip
        if group.series in ("B", "C"):
            val = char_value_B(group.rank, bip, cls)
        else:
            if c.label.kind == "split":
                val = char_value_D(group.rank, bip, cls)
            else:
                val = char_value_B(group.rank, bip, cls)
        total += coef * val
    return total


def _ref_dl_vector(group, cls):
    return {str(c.label): _ref_dl_multiplicity(group, str(c.label), cls)
            for c in catalog(group)}


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (UnsupportedGroupError, FourierError, WeylError, KeyError) as exc:
        return type(exc), str(exc)
    if isinstance(value, dict):
        return "ok", [(k, type(v), v) for k, v in value.items()]
    return "ok", (type(value), value)


DIFF_GROUPS = ([f"B{n}" for n in range(2, 8)] + [f"C{n}" for n in range(2, 8)]
               + [f"D{n}" for n in range(4, 8)])


@pytest.mark.parametrize("name", DIFF_GROUPS)
def test_matches_reference_at_every_signed_class(name):
    g = GroupDescriptor.parse(name)
    assert families(g) == _ref_families(g)
    labels = [str(c.label) for c in catalog(g)]
    for lab in labels:
        assert list(family_fourier(g, lab).items()) == list(_ref_family_fourier(g, lab).items())
    raised = 0
    for cls in signed_classes(g.rank):
        want = _outcome(_ref_dl_vector, g, cls)
        assert _outcome(dl_vector, g, cls) == want, (name, cls)
        raised += want[0] != "ok"
        for lab in labels:
            assert (_outcome(dl_multiplicity, g, lab, cls)
                    == _outcome(_ref_dl_multiplicity, g, lab, cls)), (name, lab, cls)
    # type D: the classes with an odd number of negative cycles, and the
    # split classes where a degenerate character has no value, raise
    assert (raised > 0) == (g.series == "D")


def test_errors_match_reference_off_the_classical_series():
    for name, lab in (("2D4", "3."), ("E6", "phi{1,0}")):
        g = GroupDescriptor.parse(name)
        cls = w0_class(g.rank)
        assert (_outcome(dl_multiplicity, g, lab, cls)
                == _outcome(_ref_dl_multiplicity, g, lab, cls)), name
    # the reference looks the raw text up in its family map; dl_multiplicity
    # reads it with find_char, which rejects text naming no character
    b3 = GroupDescriptor.parse("B3")
    assert _outcome(_ref_dl_multiplicity, b3, "no such label", w0_class(3))[0] is KeyError
    with pytest.raises(LabelError, match="no such label"):
        dl_multiplicity(b3, "no such label", w0_class(3))
    for name in ("2D4", "E6"):
        g = GroupDescriptor.parse(name)
        assert _outcome(dl_vector, g, w0_class(4)) == _outcome(_ref_dl_vector, g, w0_class(4))


@pytest.mark.parametrize("name, label", [("E7", "phi{1,0}"), ("E8", "phi{1,0}"),
                                         ("2D5", "5."), ("A3", "4")])
def test_dl_vector_refuses_a_series_before_reading_its_catalog(name, label):
    # both functions refuse the series first, with one message, so a group
    # without a catalog (E7, E8) is refused like one with a catalog, and
    # dl_vector never asks for the catalog
    g = GroupDescriptor.parse(name)
    cls = w0_class(g.rank)
    before = catalog.cache_info()
    want = f"Deligne-Lusztig multiplicities are not computed for {name}"
    assert _outcome(dl_vector, g, cls) == (UnsupportedGroupError, want)
    assert catalog.cache_info() == before
    assert _outcome(dl_multiplicity, g, label, cls) == (UnsupportedGroupError, want)
