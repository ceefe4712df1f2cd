"""Phi_d-block partitions and Brauer-tree consistency checks.

Classical block partitions come from d-hook (d odd) respectively
(d/2)-cohook (d even) removal on beta-symbols; two characters lie in the
same block iff their symbols have the same core.  Exceptional-group
partitions are shipped as data.  Brauer trees are open lines of ordinary
characters around one exceptional vertex; `tree_check` verifies defects,
adjacent-degree divisibility and single-block membership.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .cyclo import DensePoly, common_factor, cyclotomic
from .degrees import catalog, catalog_map, defect, find_char, group_order_poly
from .labels import (BetaSymbol, GroupDescriptor, LabelError, UnsupportedGroupError,
                     label_symbol)


class BlockError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cores

def _remove_hook(rows, d):
    """One d-hook removal inside a single row, if any; None when the row is a core."""
    for which in (0, 1):
        row = set(rows[which])
        for b in sorted(row):
            if b - d >= 0 and (b - d) not in row:
                new = tuple(sorted(row - {b} | {b - d}))
                out = list(rows)
                out[which] = new
                return tuple(out)
    return None


def _remove_cohook(rows, d):
    """One d-cohook removal (moves a bead to the other row), if any."""
    top, bottom = set(rows[0]), set(rows[1])
    for b in sorted(top):
        if b - d >= 0 and (b - d) not in bottom:
            return (tuple(sorted(top - {b})), tuple(sorted(bottom | {b - d})))
    for b in sorted(bottom):
        if b - d >= 0 and (b - d) not in top:
            return (tuple(sorted(top | {b - d})), tuple(sorted(bottom - {b})))
    return None


def symbol_core(sym, d):
    """The d-core of a symbol: d-hooks for odd d, (d/2)-cohooks for even d."""
    rows = (sym.top, sym.bottom)
    if d % 2:
        step = lambda r: _remove_hook(r, d)
    else:
        step = lambda r: _remove_cohook(r, d // 2)
    while True:
        nxt = step(rows)
        if nxt is None:
            break
        rows = nxt
    core = BetaSymbol(rows[0], rows[1]).reduced()
    # unordered for comparison purposes
    a, b = sorted((core.top, core.bottom), key=lambda r: (len(r), r))
    return (tuple(a), tuple(b))


@dataclass(frozen=True)
class BlockPartition:
    group: GroupDescriptor
    d: int
    blocks: tuple  # tuple of (frozenset of labels, defect)

    def sizes(self):
        return sorted((len(b) for b, _ in self.blocks), reverse=True)

    def block_of(self, label):
        for labels, dft in self.blocks:
            if label in labels:
                return labels, dft
        raise BlockError(f"{label} not in any block")


def _split_labels(text):
    """Split on commas that are not inside label braces like phi{20,2}."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [x for x in out if x]


@lru_cache(maxsize=None)
def _exceptional_blocks(group):
    ref = importlib.resources.files("unipdec").joinpath(f"data/blocks/{group}.blocks")
    out = {}
    for line in ref.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, rest = line.split(":", 1)
        d = int(head.strip().lstrip("d="))
        groups = [frozenset(_split_labels(blk)) for blk in rest.split(";") if blk.strip()]
        out[d] = groups
    return out


@lru_cache(maxsize=None)
def block_partition(group, d):
    """Partition of the unipotent characters into Phi_d-blocks."""
    chars = catalog(group)
    if group.series in ("B", "C", "D", "2D", "A", "2A"):
        keyed = {}
        for c in chars:
            core = symbol_core(label_symbol(group, c.label), d)
            keyed.setdefault(core, []).append(str(c.label))
        blocks = []
        for labels in keyed.values():
            dfts = {defect(catalog_map(group)[l], d) for l in labels}
            if len(dfts) != 1:
                raise BlockError(
                    f"block of {group} at d={d} has non-constant defect: {sorted(labels)}")
            blocks.append((frozenset(labels), dfts.pop()))
    else:
        data = _exceptional_blocks(group)
        if d not in data:
            raise UnsupportedGroupError(f"no shipped block data for {group} at d={d}")
        listed = data[d]
        seen = set().union(*listed) if listed else set()
        blocks = []
        for labels in listed:
            dfts = {defect(catalog_map(group)[l], d) for l in labels}
            if len(dfts) != 1:
                raise BlockError(f"shipped block {sorted(labels)} has mixed defect")
            blocks.append((labels, dfts.pop()))
        for c in chars:  # remaining characters sit in defect-0 singleton blocks
            if str(c.label) not in seen:
                blocks.append((frozenset([str(c.label)]), defect(c, d)))
    blocks.sort(key=lambda b: (-len(b[0]), sorted(b[0])))
    return BlockPartition(group, d, tuple(blocks))


# ---------------------------------------------------------------------------
# Brauer trees

@dataclass(frozen=True)
class BrauerTree:
    """Open line of character labels with one exceptional vertex 'O'.

    `chain` holds labels with None marking the exceptional vertex;
    `edge_series` holds one modular HC-series tag per edge (may be empty).
    """

    group: GroupDescriptor
    d: int
    chain: tuple
    edge_series: tuple = ()

    def characters(self):
        return [v for v in self.chain if v is not None]


def parse_tree_line(group, d, line):
    """One tree per line: ``lab|series -- lab -- O -- lab`` etc."""
    parts = [p.strip() for p in line.split("--")]
    chain = []
    series = []
    for p in parts:
        if p == "O":
            chain.append(None)
            continue
        if "|" in p:
            lab, tag = p.split("|", 1)
            series.append(tag.strip())
        else:
            lab = p
        chain.append(lab.strip())
    if chain.count(None) != 1:
        raise BlockError(f"tree needs exactly one exceptional vertex: {line!r}")
    return BrauerTree(group, d, tuple(chain), tuple(series))


def load_trees(path_text, group, d):
    out = []
    for line in path_text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(parse_tree_line(group, d, line))
    return out


@dataclass
class TreeReport:
    tree: BrauerTree
    status: str
    evidence: str = ""

    def __bool__(self):
        return self.status == "pass"


def _factored_sum(degrees, signs):
    """(C, S): sum(sign * degree) = C * S / L with C the largest monic factor
    the degrees share and L > 0 the lcm of the cofactors' denominators.

    Only the integer cofactors L * degree / C are expanded.  This is how
    `tree_check` decides its sums without expanding whole degrees, and it
    decides them exactly as the dense sum would: Phi_d is irreducible over Q
    and prime to q and to every Phi_e with e != d, so Phi_d^n divides C * S
    iff Phi_d^(n - m_d(C)) divides S.  C is monic and L > 0, so C * S / L
    and S have leading coefficients of the same sign; C(q0) > 0 for q0 >= 2,
    so both take values of the same sign there; and C * S = 0 iff S = 0.
    """
    common = common_factor(degrees)
    cofactors = [deg.divide(common) for deg in degrees]
    scale = lcm(*(c.scalar.denominator for c in cofactors))
    total = DensePoly()
    for c, sign in zip(cofactors, signs):
        total = total + (c * (sign * scale)).expand()
    return common, total


def _divides(phi, k, p):
    """True if phi^k divides the dense polynomial p."""
    for _ in range(k):
        p, r = p.divmod(phi)
        if not r.is_zero():
            return False
    return True


def tree_check(tree, group=None, d=None):
    """Check a Brauer tree against the catalog degrees.

    (i) every ordinary character on the tree has Phi_d-defect exactly 1;
    (ii) the degree sum over each edge not touching the exceptional vertex
         is divisible by the full Phi_d-part Phi_d^M of the group order, and
         the alternating sum over the whole line is minus a positive multiple
         of a putative exceptional-character degree, divisible by Phi_d^(M-1);
    (iii) all characters lie in one block of block_partition.

    The sums in (ii) are reduced in factored form: the largest monic factor
    C = q^k * prod Phi_e^m that the summed degrees share (both degrees of an
    edge, all degrees for the alternating sum) is pulled out, only the
    cofactors are expanded and added, and the cofactor sum is divided by
    Phi_d only M - m_d(C) (respectively M - 1 - m_d(C)) times.
    """
    group = group or tree.group
    d = d or tree.d
    order = group_order_poly(group)
    M = order.root_multiplicity(d)
    phi = cyclotomic(d)

    cm = {}
    try:
        for lab in tree.characters():
            cm[lab] = find_char(group, lab)
    except LabelError as exc:
        return TreeReport(tree, "fail", str(exc))
    for lab in tree.characters():
        if defect(cm[lab], d) != 1:
            return TreeReport(tree, "fail",
                              f"{lab} has Phi_{d}-defect {defect(cm[lab], d)}, not 1")

    # (ii) neighbouring ordinary characters: sum divisible by Phi_d^M
    chain = tree.chain
    for i in range(len(chain) - 1):
        u, v = chain[i], chain[i + 1]
        if u is None or v is None:
            continue
        common, s = _factored_sum((cm[u].degree, cm[v].degree), (1, 1))
        if not _divides(phi, M - common.root_multiplicity(d), s):
            return TreeReport(tree, "fail",
                              f"edge {u} -- {v}: degree sum not divisible by P{d}^{M}")

    # alternating sum reconstructs (a positive multiple of) the exceptional degree
    j = chain.index(None)
    sign = 1 if j % 2 == 1 else -1  # exc = sign * sum over i of (-1)^i deg(chain[i])
    common, exc = _factored_sum(
        [cm[lab].degree for lab in tree.characters()],
        [sign if i % 2 == 0 else -sign for i, lab in enumerate(chain) if lab is not None])
    if exc.is_zero():
        return TreeReport(tree, "fail", "alternating degree sum vanishes")
    if not _divides(phi, M - 1 - common.root_multiplicity(d), exc):
        return TreeReport(tree, "fail",
                          f"alternating sum not divisible by P{d}^{M - 1}")
    if exc.coeffs[-1] < 0 or any(exc(q0) <= 0 for q0 in (2, 3, 5, 7)):
        return TreeReport(tree, "fail",
                          "alternating sum is not a positive multiple of a degree")

    # (iii) one block
    try:
        part = block_partition(group, d)
        canon = [str(cm[lab].label) for lab in tree.characters()]
        first, _ = part.block_of(canon[0])
        if any(lab not in first for lab in canon):
            return TreeReport(tree, "fail", "characters span several blocks")
    except UnsupportedGroupError:
        pass  # exceptional group without full block data at this d: defect check stands
    return TreeReport(tree, "pass")
