"""Harish-Chandra induction of unipotent-part vectors between classical groups.

Induction acts series by series: principal-series parts go through Weyl-group
induction (type D via the symmetrised B_n-cover), cuspidal-core parts (B2:,
B6:, D4:, 2D9:) through their relative type-B Weyl groups.  A series of
symbol defect D in `labels.HC_SERIES` has the relative Weyl group W(B_m),
m = n - D*D // 4.  This is what the (HCi)/(HCr) checks of the verification
engine consume.

Every label text is read by `degrees.find_char`: a source label must name
a character of the source catalog, in any spelling, or LabelError is raised.

What is memoised, each handed out read-only: one integer kernel per
(source, target) pair (`_kernel`).  It numbers the pair's source-cover and
target-cover W(B_n)-characters (per HC series) once and holds, for each
source catalog text, its series and its cover (cover slots and their
multiplicities); for each cover slot, its induction into the target's
relative Weyl group (target slots and their multiplicities), from
`weyl.induce_char`; and for each target slot, how it reads back as
catalog labels of the target: the texts it lands on, whether it lands
halved, and the slot of the swapped partner that must carry the same
coefficient in type D.  Below the kernel: per
(group, label text), the HC series of a source label and its cover
(`_label_cover`); the catalog character of a label (`degrees.find_char`);
the induction of one W(B_m)-character into W(B_n) (`weyl.induce_char`);
and the induction matrix of a (source, target) pair (`induction_matrix`,
which `hc_restrict` reads on every call).  A pair whose kernel cannot be
built raises on every call and keeps no memo entry.
`hc_induce` itself is not memoised: it sums the source labels' covers over
the whole vector, in vector order, then sums the inductions of the summed
cover, slot by slot, and only then reads the sum back as labels of the
target, so every result keeps the key and term order of the plain dict
sums.  The halving at a degenerate type-D label stays on that sum because
a coefficient there can be odd for one source label and even for the
vector: lam+ and lam- each put their coefficient once on the cover, the pair twice.
Halving label by label would raise on such vectors; an odd coefficient of
the summed vector is a real gap and raises HCError (the A3 -> D4 Levi table
is one).  The source must be of the target's series or of type A (a GL_n
Levi); any other source raises UnsupportedGroupError.

Coefficients are ints or `ParamExpr`s, mixed, in plain arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .degrees import catalog, find_char
from .labels import HC_SERIES, UnsupportedGroupError, d_canonical_bip, format_partition
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
    char = find_char(group, text)
    core, label = char.hc_series, char.label
    bip = label.bip
    if core != "ps":
        return core, ((bip, 1),)
    if group.series in ("A", "2A"):
        return core, tuple(sym_to_hyper(bip.left).items())
    if group.series == "D" and label.kind != "split":
        return core, ((bip, 1), (bip.swapped(), 1))
    return core, ((bip, 1),)


def _rel_rank(group, core):
    """The rank m of the relative Weyl group W(B_m) of the group's series
    with this core ("ps" for the principal series): n - D*D // 4 for the
    series' symbol defect D in `HC_SERIES`.  None for type A, which has no
    W(B_n) cover; any other series raises UnsupportedGroupError."""
    if group.series == "A":
        return None
    for defect, c in HC_SERIES.get(group.series, ()):
        if (c or "ps") == core:
            return group.rank - defect * defect // 4
    raise UnsupportedGroupError(f"HC induction not implemented for {group}")


def _slot_read_back(group, core, bip):
    """How a W(B_n)-character of a cover of the series `core` reads back as
    labels of the group: (catalog texts it lands on, whether it lands
    halved, the bipartition whose coefficient must equal its own or None).

    A cuspidal series' character lands once on its core-prefixed label.  In
    type D a degenerate bipartition lands halved on its +/- pair, and the
    two orientations of any other land once, on the canonical one's label;
    each orientation names the other as its partner.
    """
    if core != "ps":
        return (str(find_char(group, f"{core}:{bip}" if bip.size() else core).label),), False, None
    if group.series != "D":
        return (str(find_char(group, str(bip)).label),), False, None
    if bip.left == bip.right:
        half = format_partition(bip.left)
        return tuple(str(find_char(group, half + sgn).label) for sgn in "+-"), True, None
    texts = (str(find_char(group, str(bip)).label),) if bip == d_canonical_bip(bip) else ()
    return texts, False, bip.swapped()


class _Kernel(NamedTuple):
    """HC induction of one (source, target) pair on numbered W(B_n)-characters.

    `labels` maps each source catalog text to (series, cover slots, their
    multiplicities); `inductions[s]` is (target slots, their multiplicities)
    for cover slot s; `read_backs[t]` is (texts, halved, partner slot or
    None) for target slot t, and `targets[t]` its (series, bipartition).
    Slots and multiplicities are kept as two parallel tuples rather than
    one tuple of pairs, which would take one more object per term.
    """
    labels: MappingProxyType
    inductions: tuple
    read_backs: tuple
    targets: tuple


@lru_cache(maxsize=None)
def _kernel(source_group, target_group):
    """The pair's `_Kernel`, built over the whole source catalog.

    A source outside A, B, C, D and 2D, a type-A target or one outside the
    classical series, and a target of too small a rank raise; lru_cache
    keeps nothing for a call that raises.
    """
    _rel_rank(source_group, "ps")
    covers, targets = {}, {}  # (series, bipartition) -> slot
    labels = {}
    for char in catalog(source_group):
        text = str(char.label)
        core, cover = _label_cover(source_group, text)
        labels[text] = (core,
                        tuple(covers.setdefault((core, bip), len(covers)) for bip, _ in cover),
                        tuple(k for _, k in cover))
    ranks = {}
    inductions = []
    for core, bip in covers:
        if core not in ranks:
            ranks[core] = _rel_rank(target_group, core)
            if ranks[core] is None:  # a type-A target has no W(B_n) cover
                raise UnsupportedGroupError(f"HC induction into {target_group} not implemented")
        induced = induce_char(bip, ranks[core])
        inductions.append((tuple(targets.setdefault((core, b2), len(targets)) for b2 in induced),
                           tuple(induced.values())))
    order = list(targets)
    read_backs = []
    for core, bip in order:  # a type-D partner met only here joins the end
        texts, halved, partner = _slot_read_back(target_group, core, bip)
        if partner is not None:
            key = core, partner
            if key not in targets:
                targets[key] = len(targets)
                order.append(key)
            partner = targets[key]
        read_backs.append((texts, halved, partner))
    return _Kernel(MappingProxyType(labels), tuple(inductions), tuple(read_backs), tuple(order))


def _read_back(kernel, acc, out):
    """Add a summed target-cover vector (target slot -> coefficient) into
    `out`, read back as catalog labels of the kernel's target."""
    read_backs = kernel.read_backs
    for t, c in acc.items():
        texts, halved, partner = read_backs[t]
        if partner is not None and acc.get(partner) != c:
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


def hc_induce(source_group, vector, target_group):
    """Unipotent part of R_L^G applied to a unipotent-part vector.

    `vector` maps source catalog labels, in any spelling, to coefficients;
    the source sits inside the target as a Levi of the same classical
    family, leftover rank torus.  A source of another series than the
    target's (type A aside) raises UnsupportedGroupError.
    """
    if source_group.series not in (target_group.series, "A"):
        raise UnsupportedGroupError("mixed-series HC induction not supported")
    terms = [(lab, c) for lab, c in vector.items() if c]
    if not terms:
        return {}
    try:
        kernel = _kernel(source_group, target_group)
    except ValueError:
        for lab, _ in terms:  # a bad source label is reported before a bad pair
            find_char(source_group, lab)
        raise
    labels, inductions = kernel.labels, kernel.inductions
    # the covers of the source labels, summed per series in vector order
    covers = {}
    for lab, c in terms:
        entry = labels.get(lab)
        if entry is None:
            entry = labels[str(find_char(source_group, lab).label)]
        core, slots, mults = entry
        cover = covers.setdefault(core, {})
        for s, k in zip(slots, mults):
            cover[s] = cover.get(s, 0) + c * k
    out = {}
    for cover in covers.values():
        acc = {}
        for s, c in cover.items():
            for t, k in zip(*inductions[s]):
                acc[t] = acc.get(t, 0) + c * k
        _read_back(kernel, acc, out)
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
    """Column j as a read-only mapping row label -> ParamExpr, int entries
    wrapped (callers read `.constant()`) as the shared `ParamExpr.const`, as
    `verify._expr` wraps the values of `decompose_in_columns` and
    `recompose`.  The mappings are built once per table
    (`DecompTable.column_vectors`), so one `tables.parse` text gives one
    mapping per column; copy it to change it."""
    return table.column_vectors[j]
