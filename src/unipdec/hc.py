"""Harish-Chandra induction of unipotent-part vectors between classical groups.

Induction acts series by series: principal-series parts go through Weyl-group
induction (type D via the symmetrised B_n-cover), cuspidal-core parts (B2:,
B6:, D4:) through their relative type-B Weyl groups.  This is what the
(HCi)/(HCr) checks of the verification engine consume.

What is memoised, each handed out read-only: per (group, label text), the
HC series of a source label and its cover of W(B_n)-characters
(`_label_cover`), and the catalog character of a target label
(`degrees.find_char`); per (group, bipartition), how a W(B_n)-character of
a cover reads back as catalog labels of the target, halved or not, and
which swapped partner must carry the same coefficient in type D
(`_read_back`); the induction of one W(B_m)-character into W(B_n)
(`weyl.induce_char`, keyed by the bipartition, n and the GL-factor
partitions); and the induction matrix of a (source, target) pair
(`induction_matrix`, which `hc_restrict` reads on every call).
`hc_induce` itself is not memoised: it sums the source labels' covers over
the whole vector, in vector order, then sums the cached W(B_n)-characters
over that cover and only then reads the sum back as labels of the target.
The halving at a degenerate type-D label stays on that sum because a
coefficient there can be odd for one source label and even for the vector:
lam+ and lam- each put their coefficient once on the cover, the pair twice.
Halving label by label would raise on such vectors; an odd coefficient of
the summed vector is a real gap and raises HCError (the A3 -> D4 Levi table
is one).  The source must be of the target's series or of type A (a GL_n
Levi); any other source raises UnsupportedGroupError.

Coefficients are ints or `ParamExpr`s, mixed, in plain arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .degrees import catalog, find_char
from .labels import (_CORE_RANK, UnsupportedGroupError, d_canonical_bip,
                     format_partition, parse_label)
from .tables import ParamExpr
from .weyl import induce_char, sym_to_hyper


class HCError(ValueError):
    pass


@lru_cache(maxsize=None)
def _label_cover(group, text):
    """The ordinary HC series (core tag, "ps" for the principal series) of a
    source label and its cover: ((bipartition, multiplicity), ...).

    A GL-factor's S_k-character goes to the hyperoctahedral cover through
    all two-sided splittings; a type-D principal-series label is
    symmetrised, {lam, mu} contributing both orientations and each half of
    a degenerate pair its bipartition once.
    """
    label = parse_label(text, group)
    core = label.core or "ps"
    bip = label.bip
    if core != "ps":
        return core, ((bip, 1),)
    if group.series in ("A", "2A"):
        return core, tuple(sym_to_hyper(bip.left).items())
    if group.series == "D" and label.kind != "split":
        return core, ((bip, 1), (bip.swapped(), 1))
    return core, ((bip, 1),)


def _cover_rank(group):
    s, n = group.series, group.rank
    if s in ("B", "C", "D"):
        return n
    if s == "2D":
        return n - 1
    if s == "A":
        return None
    raise UnsupportedGroupError(f"HC induction not implemented for {group}")


def _rel_rank(group, core):
    base = _cover_rank(group)
    if base is None:  # a type-A target has no W(B_n) cover
        raise UnsupportedGroupError(f"HC induction into {group} not implemented")
    return base - _CORE_RANK.get(core, 0) if core != "ps" else base


@lru_cache(maxsize=None)
def _read_back(group, bip):
    """How a W(B_n)-character of a cover reads back as labels of the group:
    (catalog texts it lands on, whether it lands halved, the bipartition
    whose coefficient must equal its own or None).

    In type D a degenerate bipartition lands halved on its +/- pair, and
    the two orientations of any other land once, on the canonical one's
    label; each orientation names the other as its partner.
    """
    if group.series != "D":
        return (str(find_char(group, str(bip)).label),), False, None
    if bip.left == bip.right:
        half = format_partition(bip.left)
        return tuple(str(find_char(group, half + sgn).label) for sgn in "+-"), True, None
    texts = (str(find_char(group, str(bip)).label),) if bip == d_canonical_bip(bip) else ()
    return texts, False, bip.swapped()


def _from_b_cover(group, cover, out):
    """Add a symmetrised B-cover vector into `out`, read back as catalog
    labels of the group."""
    for bip, c in cover.items():
        texts, halved, partner = _read_back(group, bip)
        if partner is not None and cover.get(partner) != c:
            raise HCError("asymmetric cover vector for a type-D group")
        if halved:
            c = _half(c)
        for key in texts:
            out[key] = out.get(key, 0) + c


def _half(c):
    if isinstance(c, ParamExpr):
        if any(v % 2 for v in c.terms.values()):
            raise HCError("odd coefficient at a degenerate label")
        return ParamExpr._of_sorted({m: v // 2 for m, v in c.terms.items()})
    if c % 2:
        raise HCError("odd coefficient at a degenerate label")
    return c // 2


def hc_induce(source_group, vector, target_group, extra_a_factors=()):
    """Unipotent part of R_L^G applied to a unipotent-part vector.

    `vector` maps label strings of the source group to coefficients; the
    source sits inside the target as a Levi of the same classical family,
    optionally times GL-factors carrying the partitions in
    `extra_a_factors`; leftover rank is torus.  A source of another series
    than the target's (type A aside) raises UnsupportedGroupError.
    """
    if source_group.series not in (target_group.series, "A"):
        raise UnsupportedGroupError("mixed-series HC induction not supported")
    # the covers of the source labels, summed per series in vector order
    covers = {}
    for lab, c in vector.items():
        if not c:
            continue
        core, terms = _label_cover(source_group, lab)
        cover = covers.setdefault(core, {})
        for bip, k in terms:
            cover[bip] = cover.get(bip, 0) + c * k
    if covers:
        _cover_rank(source_group)  # raises for a source outside A, B, C, D, 2D
    a_factors = tuple(tuple(p) for p in extra_a_factors)
    out = {}
    for core, cover in covers.items():
        n = _rel_rank(target_group, core)
        acc = {}
        for bip, c in cover.items():
            for b2, k in induce_char(bip, n, a_factors).items():
                acc[b2] = acc.get(b2, 0) + c * k
        if core == "ps":
            _from_b_cover(target_group, acc, out)
            continue
        for bip, c in acc.items():
            key = str(find_char(target_group, f"{core}:{bip}" if bip.size() else core).label)
            out[key] = out.get(key, 0) + c
    return out


@lru_cache(maxsize=None)
def induction_matrix(source_group, target_group):
    """Multiplicity matrix of HC induction on the two catalogs, memoised.

    Returns (source labels, target labels, columns): two tuples and a
    read-only mapping from each source label to the read-only mapping of
    its induced vector.
    """
    src = tuple(str(c.label) for c in catalog(source_group))
    tgt = tuple(str(c.label) for c in catalog(target_group))
    cols = {lab: MappingProxyType(hc_induce(source_group, {lab: 1}, target_group))
            for lab in src}
    return src, tgt, MappingProxyType(cols)


def hc_restrict(target_group, vector, source_group):
    """Adjoint of hc_induce on unipotent-part vectors (Frobenius reciprocity)."""
    src, tgt, cols = induction_matrix(source_group, target_group)
    out = {}
    for lab in src:
        coef = 0
        for tlab, mult in cols[lab].items():
            if mult:
                coef = coef + vector.get(tlab, 0) * mult
        if coef:
            out[lab] = coef
    return out


def table_column_vector(table, j):
    """Column j as row label -> ParamExpr, the one place that still hands
    int entries out wrapped (callers read `.constant()`); the wrapper is
    built bare, as `ParamExpr.const` checks outside input."""
    out = {}
    for i, e in table.columns[j].entries.items():
        if type(e) is int:
            wrapped = ParamExpr.__new__(ParamExpr)
            wrapped.terms = {(): e} if e else {}
            e = wrapped
        out[table.rows[i]] = e
    return out
