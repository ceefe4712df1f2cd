"""Harish-Chandra induction of unipotent-part vectors between classical groups.

Induction acts series by series: principal-series parts go through Weyl-group
induction (type D via the symmetrised B_n-cover), cuspidal-core parts (B2:,
B6:, D4:) through their relative type-B Weyl groups.  This is what the
(HCi)/(HCr) checks of the verification engine consume.
"""

from __future__ import annotations

from fractions import Fraction

from .degrees import catalog, find_char
from .labels import UnsupportedGroupError, parse_label
from .tables import ParamExpr
from .weyl import induce, sym_to_hyper


class HCError(ValueError):
    pass


_CORE_RANK = {"ps": 0, "B2": 2, "B6": 6, "D4": 4, "2D9": 9}


def _series_parts(group, vector):
    """Split a label->coeff vector by ordinary HC series (core tag)."""
    parts = {}
    for lab, c in vector.items():
        if isinstance(c, ParamExpr) and c.is_zero():
            continue
        if not isinstance(c, ParamExpr) and c == 0:
            continue
        parsed = parse_label(lab, group)
        core = parsed.core or "ps"
        parts.setdefault(core, {})[parsed] = c
    return parts


def _to_b_cover(group, labeled):
    """Principal-series D/2D/B vector as a type-B Weyl character vector.

    For type D the cover is symmetrised: a label {lam, mu} contributes both
    orientations, a degenerate pair contributes the sum of its +/- parts.
    """
    out = {}
    for lab, c in labeled.items():
        bip = lab.bip
        if group.series == "D":
            if lab.kind == "split":
                out[bip] = out.get(bip, 0) + c  # half of the +/- pair
            else:
                out[bip] = out.get(bip, 0) + c
                sw = bip.swapped()
                out[sw] = out.get(sw, 0) + c
        else:
            out[bip] = out.get(bip, 0) + c
    return out


def _cover_rank(group):
    s, n = group.series, group.rank
    if s in ("B", "C"):
        return n
    if s == "D":
        return n
    if s == "2D":
        return n - 1
    if s == "A":
        return None
    raise UnsupportedGroupError(f"HC induction not implemented for {group}")


def _rel_rank(group, core):
    base = _cover_rank(group)
    return base - _CORE_RANK.get(core, 0) if core != "ps" else base


def _from_b_cover(group, cover):
    """Read a symmetrised B-cover vector back as labels of the group."""
    out = {}
    if group.series == "D":
        from .labels import d_canonical_bip, split_label
        for bip, c in cover.items():
            if bip.left == bip.right:
                # split evenly between the +/- pair
                for sgn in "+-":
                    out[str(split_label(bip.left, sgn))] = _half(c)
            elif bip == d_canonical_bip(bip):
                # the swapped orientation carries the same coefficient
                if cover.get(bip.swapped()) != c:
                    raise HCError("asymmetric cover vector for a type-D group")
                out[str(bip)] = c
        return out
    for bip, c in cover.items():
        out[str(bip)] = c
    return out


def _half(c):
    if isinstance(c, ParamExpr):
        half = ParamExpr({m: Fraction(v, 2) for m, v in c.terms.items()})
        if any(v.denominator != 1 for v in half.terms.values()):
            raise HCError("odd coefficient at a degenerate label")
        return ParamExpr({m: int(v) for m, v in half.terms.items()})
    if c % 2:
        raise HCError("odd coefficient at a degenerate label")
    return c // 2


def hc_induce(source_group, vector, target_group, extra_a_factors=()):
    """Unipotent part of R_L^G applied to a unipotent-part vector.

    `vector` maps label strings of the source group to coefficients; the
    source sits inside the target as a Levi of the same classical family,
    optionally times GL-factors carrying the partitions in
    `extra_a_factors`; leftover rank is torus.
    """
    if target_group.series in ("B", "C", "D") and source_group.series != target_group.series:
        if not (source_group.series in ("A", "D", "B", "C")):
            raise UnsupportedGroupError("mixed-series HC induction not supported")
    out = {}
    for core, labeled in _series_parts(source_group, vector).items():
        if core == "ps" and source_group.series in ("A", "2A"):
            # a GL-factor: its Weyl group S_k induces into the hyperoctahedral
            # cover through all two-sided splittings
            cover = {}
            for lab, c in labeled.items():
                for bip, k in sym_to_hyper(lab.bip.left).items():
                    cover[bip] = cover.get(bip, 0) + c * k
        elif core == "ps":
            cover = _to_b_cover(source_group, labeled)
        else:
            cover = {}
            for lab, c in labeled.items():
                cover[lab.bip] = cover.get(lab.bip, 0) + c
            if source_group.series == "D" and core == "D4":
                pass  # relative group is already type B; no folding
        m = _rel_rank(source_group, core)
        n = _rel_rank(target_group, core)
        acc = {}
        for bip, c in cover.items():
            factors = [("B", {bip: 1})] + [("A", tuple(p)) for p in extra_a_factors]
            res = induce(factors, n)
            for b2, k in res.items():
                acc[b2] = acc.get(b2, 0) + c * k
        if core == "ps":
            part = _from_b_cover(target_group, acc)
        else:
            prefix = core
            part = {}
            for bip, c in acc.items():
                text = f"{prefix}:{bip}" if bip.size() else prefix
                part[text] = c
        for lab, c in part.items():
            out[lab] = out.get(lab, 0) + c
    # normalise labels against the target catalog
    canon = {}
    for lab, c in out.items():
        key = str(find_char(target_group, lab).label)
        canon[key] = canon.get(key, 0) + c
    return canon


def induction_matrix(source_group, target_group):
    """Multiplicity matrix of HC induction on the two catalogs."""
    src = [str(c.label) for c in catalog(source_group)]
    tgt = [str(c.label) for c in catalog(target_group)]
    cols = {}
    for lab in src:
        cols[lab] = hc_induce(source_group, {lab: 1}, target_group)
    return src, tgt, cols


def hc_restrict(target_group, vector, source_group):
    """Adjoint of hc_induce on unipotent-part vectors (Frobenius reciprocity)."""
    src, tgt, cols = induction_matrix(source_group, target_group)
    out = {}
    for lab in src:
        coef = 0
        col = cols[lab]
        for tlab, mult in col.items():
            v = vector.get(tlab, 0)
            if isinstance(v, ParamExpr) or isinstance(coef, ParamExpr):
                coef = coef + v * mult if mult else coef
            elif mult:
                coef += v * mult
        if isinstance(coef, ParamExpr):
            if not coef.is_zero():
                out[lab] = coef
        elif coef:
            out[lab] = coef
    return out


def table_column_vector(table, j):
    return {table.rows[i]: e for i, e in table.columns[j].entries.items()}
