"""Lusztig families of classical symbols and multiplicities in R_w.

A family consists of all symbols (of the defects admissible for the series)
sharing one entry multiset.  Members are coordinatised by even subsets of
the singles Z_1, and the Fourier pairing is (-1)^|M cap M'| / 2^m on those
coordinates.  Pairing a character against the Deligne-Lusztig character R_w
then reduces to Weyl-group character values through the almost characters
attached to the principal-series members of its family.

Only untwisted classical groups are supported; twisted and exceptional
multiplicities are deliberately not guessed at.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .degrees import catalog
from .labels import BetaSymbol, UnsupportedGroupError, label_symbol
from .weyl import char_value_B, char_value_D


class FourierError(ValueError):
    pass


def _entry_key(sym, parity):
    """Entry multiset after shifting the symbol to total size congruent to parity."""
    sym = sym.reduced()
    while (len(sym.top) + len(sym.bottom)) % 2 != parity % 2:
        sym = sym.shifted(1)
    # one extra normalising shift keeps tiny symbols comparable
    return sym


def _family_parity(group):
    # B/C: odd number of entries; D/2D: even
    return 1 if group.series in ("B", "C") else 0


@lru_cache(maxsize=None)
def families(group):
    """Partition of the catalog into families, keyed by shifted entry multisets."""
    if group.series not in ("B", "C", "D"):
        raise UnsupportedGroupError(f"families implemented for untwisted classical {group}")
    parity = _family_parity(group)
    chars = catalog(group)
    keyed = {}
    for c in chars:
        sym = _entry_key(label_symbol(group, c.label), parity)
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
    return keyed, fams


def family_of(group, label_text):
    """All catalog labels in the family of the given character."""
    keyed, fams = families(group)
    sym = keyed[label_text]
    key = tuple(sorted(sym.top + sym.bottom))
    return tuple(sorted(fams[key]))


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
def family_fourier(group, label_text):
    """Fourier pairing row of a character against its family.

    Returns a dict {member label: Fraction} with denominator 2^m.
    """
    keyed, fams = families(group)
    sym = keyed[label_text]
    entries = tuple(sorted(sym.top + sym.bottom))
    members = fams[entries]
    singles = _singles(list(entries))
    twom = max(len(singles) - (1 if len(singles) % 2 else 2), 0)
    special = _special_symbol(entries)
    me = _coords(sym, special.bottom, singles)
    row = {}
    for lab in members:
        other = _coords(keyed[lab], special.bottom, singles)
        inter = len(me & other)
        # representatives are only defined modulo complement for even |Z_1|
        row[lab] = Fraction((-1) ** (inter % 2), 2 ** (twom // 2))
    return row


def dl_multiplicity(group, label_text, cls):
    """<rho, R_w> for w of the given signed type, untwisted B/C/D only.

    Equals the Fourier row of rho paired with Weyl character values of the
    principal-series almost characters in its family.
    """
    if group.series not in ("B", "C", "D"):
        raise UnsupportedGroupError(
            f"Deligne-Lusztig multiplicities are not computed for {group}")
    if group.series == "D" and len(cls.negative) % 2:
        raise FourierError("class does not define an element of W(D_n)")
    row = family_fourier(group, label_text)
    total = Fraction(0)
    from .degrees import catalog_map
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


def dl_vector(group, cls):
    """<rho, R_w> for every catalog character, as a dict label -> Fraction."""
    return {str(c.label): dl_multiplicity(group, str(c.label), cls)
            for c in catalog(group)}
