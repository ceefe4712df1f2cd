"""Lusztig families of classical symbols and multiplicities in R_w.

A family consists of all symbols (of the defects admissible for the series)
sharing one entry multiset.  Members are coordinatised by even subsets of
the singles Z_1, and the Fourier pairing is (-1)^|M cap M'| / 2^m on those
coordinates.  Pairing a character against the Deligne-Lusztig character R_w
then reduces to Weyl-group character values through the almost characters
attached to the principal-series members of its family.

What is memoised, each handed out read-only: the families of a group
(`families`), the members' coordinates and 2^m of each family (`_family`,
per entry multiset), each character's Fourier row as Fractions over its
whole family (`family_fourier`), and one table per group (`_dl_table`),
built family by family, of every character's row as integer signs over
the principal-series members of its family with the common denominator
2^m.  So <rho, R_w> is one table lookup, one sum of signed Weyl values and
one Fraction, and `dl_vector` walks the table in catalog order and
computes each principal-series Weyl value once per call for all
characters.

A character's label text is looked up as it is once `families` has
accepted the group; only a text that is not a catalog label is read by
`degrees.find_char`: any other spelling of a catalog label, else
LabelError.

Only untwisted classical groups are supported; twisted and exceptional
multiplicities are deliberately not guessed at.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .degrees import catalog, catalog_map, find_char
from .labels import BetaSymbol, UnsupportedGroupError
from .weyl import char_value_B, char_value_D


class FourierError(ValueError):
    pass


def _size(sym):
    return len(sym.top) + len(sym.bottom)


def _entry_key(sym, parity):
    """The reduced symbol, checked to have a number of entries of the given parity.

    A shift adds one entry to each row, so it cannot fix the parity.
    """
    sym = sym.reduced()
    if _size(sym) % 2 != parity % 2:
        raise FourierError(f"symbol {sym} has {_size(sym)} entries, "
                           f"not a number of parity {parity % 2}")
    return sym


def _family_parity(group):
    # B/C: odd number of entries; D/2D: even
    return 1 if group.series in ("B", "C") else 0


@lru_cache(maxsize=None)
def families(group):
    """Partition of the catalog into families, keyed by shifted entry multisets.

    Returns read-only mappings (label -> shifted symbol, entry multiset ->
    tuple of labels): they are memoised and shared by every caller.
    """
    if group.series not in ("B", "C", "D"):
        raise UnsupportedGroupError(f"families implemented for untwisted classical {group}")
    parity = _family_parity(group)
    reduced = {str(c.label): _entry_key(c.symbol, parity) for c in catalog(group)}
    # grow every symbol to a common size so multisets are comparable
    maxlen = max(_size(s) for s in reduced.values())
    keyed = {lab: sym.shifted((maxlen - _size(sym)) // 2) for lab, sym in reduced.items()}
    fams = {}
    for lab, sym in keyed.items():
        fams.setdefault(sym.entries(), []).append(lab)
    return (MappingProxyType(keyed),
            MappingProxyType({key: tuple(labs) for key, labs in fams.items()}))


def _label_key(keys, group, label_text):
    """The catalog key of a character's label text: the text itself when it
    is one of `keys` (the catalog's labels), else the label `find_char`
    reads it as."""
    return label_text if label_text in keys else str(find_char(group, label_text).label)


def family_of(group, label_text):
    """All catalog labels in the family of the given character."""
    keyed, fams = families(group)
    return tuple(sorted(fams[keyed[_label_key(keyed, group, label_text)].entries()]))


def _singles(entries):
    return tuple(sorted(e for e in set(entries) if entries.count(e) == 1))


def _coords(sym, special_bottom, singles):
    """Even-subset coordinate of a symbol relative to the special one.

    For an even number of singles (type D) the subset is only defined modulo
    complement, so the representative avoiding the smallest single is taken.
    """
    m = set(sym.bottom) ^ set(special_bottom)
    m = m & set(singles)
    if len(m) % 2:
        m = set(singles) - m
    if singles and len(singles) % 2 == 0 and min(singles) in m:
        m = set(singles) - m
    return frozenset(m)


def _special_symbol(entries):
    """The interlaced symbol: entries sorted, alternating top/bottom."""
    ent = sorted(entries)
    top = tuple(ent[0::2])
    bottom = tuple(ent[1::2])
    if len(top) < len(bottom):
        top, bottom = bottom, top
    return BetaSymbol(top, bottom)


@lru_cache(maxsize=None)
def _family(group, entries):
    """The family with this entry multiset: a read-only mapping of each
    member label to its coordinate, in family order, and the denominator 2^m."""
    keyed, fams = families(group)
    singles = _singles(entries)
    twom = max(len(singles) - (1 if len(singles) % 2 else 2), 0)
    special = _special_symbol(entries)
    coords = {lab: _coords(keyed[lab], special.bottom, singles) for lab in fams[entries]}
    return MappingProxyType(coords), 2 ** (twom // 2)


def _sign(me, other):
    """(-1)^|M cap M'| for the coordinates of two members of a family."""
    return -1 if len(me & other) % 2 else 1


@lru_cache(maxsize=None)
def family_fourier(group, label_text):
    """Fourier pairing row of a character against its family.

    Returns a read-only mapping {member label: Fraction} with denominator
    2^m; it is memoised and shared by every caller.
    """
    keyed, _ = families(group)
    key = _label_key(keyed, group, label_text)
    coords, den = _family(group, keyed[key].entries())
    me = coords[key]
    return MappingProxyType({lab: Fraction(_sign(me, c), den) for lab, c in coords.items()})


@lru_cache(maxsize=None)
def _dl_table(group):
    """Every catalog character's Fourier row on the principal-series members
    of its family, built one family at a time: a read-only mapping, in
    catalog order, label -> (2^m, ((sign, bipartition, degenerate type-D
    label), ...)) with the members in family order."""
    keyed, fams = families(group)
    cm = catalog_map(group)
    rows = {}
    for entries, members in fams.items():
        coords, den = _family(group, entries)
        ps = [(coords[lab], cm[lab].label.bip,
               group.series == "D" and cm[lab].label.kind == "split")
              for lab in members if cm[lab].hc_series == "ps"]
        for lab in members:
            me = coords[lab]
            rows[lab] = den, tuple((_sign(me, c), bip, deg) for c, bip, deg in ps)
    return MappingProxyType({lab: rows[lab] for lab in keyed})


def _signed_row(group, label_text):
    """The Fourier row of a character on the principal-series members of its
    family, looked up in the group's table: (2^m, ((sign, bipartition,
    degenerate type-D label), ...)), in family order."""
    table = _dl_table(group)
    return table[_label_key(table, group, label_text)]


def _check_class(group, cls):
    if group.series not in ("B", "C", "D"):
        raise UnsupportedGroupError(
            f"Deligne-Lusztig multiplicities are not computed for {group}")
    if group.series == "D" and len(cls.negative) % 2:
        raise FourierError("class does not define an element of W(D_n)")


def _weyl_value(n, bip, degenerate, cls):
    """Value at cls of the Weyl character of a principal-series almost character."""
    return char_value_D(n, bip, cls) if degenerate else char_value_B(n, bip, cls)


def dl_multiplicity(group, label_text, cls):
    """<rho, R_w> for w of the given signed type, untwisted B/C/D only.

    Equals the Fourier row of rho paired with Weyl character values of the
    principal-series almost characters in its family.
    """
    _check_class(group, cls)
    den, terms = _signed_row(group, label_text)
    return Fraction(sum(s * _weyl_value(group.rank, bip, deg, cls) for s, bip, deg in terms),
                    den)


def dl_vector(group, cls):
    """<rho, R_w> for every catalog character, as a dict label -> Fraction."""
    _check_class(group, cls)
    values = {}
    out = {}
    for lab, (den, terms) in _dl_table(group).items():
        total = 0
        for s, bip, deg in terms:
            v = values.get((bip, deg))
            if v is None:
                v = values[bip, deg] = _weyl_value(group.rank, bip, deg, cls)
            total += s * v
        out[lab] = Fraction(total, den)
    return out
