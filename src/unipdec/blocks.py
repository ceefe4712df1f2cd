"""Phi_d-block partitions and Brauer-tree consistency checks.

Classical block partitions come from d-hook (d odd) respectively
(d/2)-cohook (d even) removal on beta-symbols; two characters lie in the
same block iff their symbols have the same core.  Exceptional-group
partitions are shipped as data.  Brauer trees are open lines of ordinary
characters around one exceptional vertex; `tree_check` verifies defects,
adjacent-degree divisibility, the positivity of the alternating degree sum
and single-block membership.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .cyclo import cyclotomic
from .degrees import catalog, catalog_map, defect, find_char, group_order_poly
from .labels import BetaSymbol, GroupDescriptor, LabelError, UnsupportedGroupError


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
            core = symbol_core(c.symbol, d)
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


def _reduce(coeffs, phi):
    """coeffs mod the monic integer polynomial phi, as an integer tuple of
    length deg(phi); both are coefficient tuples, lowest first."""
    n = len(phi) - 1
    out = list(coeffs) + [0] * (n - len(coeffs))
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            for j in range(n):
                out[i - n + j] -= c * phi[j]
    return tuple(out[:n])


def _mulmod(a, b, phi):
    """a * b mod phi, for residues a and b as `_reduce` returns them."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return _reduce(out, phi)


@lru_cache(maxsize=None)
def _power_residue(e, m, d):
    """Phi_e^m mod Phi_d, or q^m mod Phi_d for e = 0, as `_reduce` gives it."""
    phi = cyclotomic(d).coeffs
    if m == 0:
        return _reduce((1,), phi)
    base = _reduce((0, 1) if e == 0 else cyclotomic(e).coeffs, phi)
    return _mulmod(_power_residue(e, m - 1, d), base, phi)


@lru_cache(maxsize=None)
def _monic_residue(q_exp, cyclo_mults, d):
    """q^q_exp * prod over e != d of Phi_e^m, reduced mod Phi_d: the value of
    the monic part of a degree, Phi_d removed, at a primitive d-th root of
    unity, as an integer tuple of length phi(d).  q^d = 1 there, so only
    q_exp mod d matters."""
    phi = cyclotomic(d).coeffs
    out = _power_residue(0, q_exp % d, d)
    for e, m in cyclo_mults:
        if e != d:
            out = _mulmod(out, _power_residue(e, m, d), phi)
    return out


@lru_cache(maxsize=None)
def _monic_at(q_exp, cyclo_mults, x):
    """q^q_exp * prod Phi_e^m at q = x: the monic part of a degree, as an int."""
    v = x ** q_exp
    for e, m in cyclo_mults:
        v *= cyclotomic(e)(x) ** m
    return v


def _shifted_sum(degrees, signs):
    """The integer coefficients T, lowest first, of L * S(q + 2) for
    S = sum(sign * degree), with L > 0 the lcm of the scalars'
    denominators; () when S = 0.

    Every Phi_e(q + 2) has nonnegative coefficients (a pair of conjugate
    roots zeta gives q^2 + 2(2 - Re zeta)q + |2 - zeta|^2), so each monic
    part M(q + 2) does too, and each of them is at most M(3).  With weights
    w = L * sign * scalar, every |T_k| is below 2^(B-1) for
    B = bit_length(sum |w| * M(3)) + 1, so T is the balanced base-2^B digit
    expansion of sum w * M(2^B + 2): nothing is expanded.
    """
    scale = lcm(*(deg.scalar.denominator for deg in degrees))
    weights = [s * deg.scalar.numerator * (scale // deg.scalar.denominator)
               for deg, s in zip(degrees, signs)]
    bits = sum(abs(w) * _monic_at(deg.q_exp, deg.cyclo_mults, 3)
               for deg, w in zip(degrees, weights)).bit_length() + 1
    value = sum(w * _monic_at(deg.q_exp, deg.cyclo_mults, (1 << bits) + 2)
                for deg, w in zip(degrees, weights))
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    while value:
        digit = ((value + half) & mask) - half
        out.append(digit)
        value = (value - digit) >> bits
    return tuple(out)


def tree_check(tree):
    """Check a Brauer tree against the catalog degrees.

    (i) every ordinary character on the tree has Phi_d-defect exactly 1;
    (ii) the degree sum over each edge not touching the exceptional vertex
         is divisible by the full Phi_d-part Phi_d^M of the group order, and
         the alternating sum over the whole line is minus a positive multiple
         of a putative exceptional-character degree, divisible by Phi_d^(M-1);
    (iii) all characters lie in one block of block_partition.

    After (i) every degree on the tree is D = Phi_d^(M-1) * u with Phi_d
    not dividing u = s * q^k * prod over e != d of Phi_e^m, because Phi_d is
    irreducible and prime to q and to every other Phi_e.  So (ii) is decided
    at a primitive d-th root of unity zeta, in Z[q]/(Phi_d), with nothing
    expanded: Phi_d^M divides D_u + D_v iff u(zeta) + v(zeta) = 0, and
    u(zeta) is s times the integer residue of the monic part mod Phi_d.
    The alternating sum is Phi_d^(M-1) times a sum of such u, so it is
    divisible by Phi_d^(M-1) once it is nonzero.

    Positivity for every prime power q is read off the coefficients T of
    L * S(q + 2), L > 0, that `_shifted_sum` gives (Descartes' rule of signs
    at q = 2): the tree fails when the leading coefficient of T or
    T(0) = L * S(2) is <= 0, since S is then <= 0 at q = 2 or at every large
    q, and passes when every coefficient is >= 0, since S(q) > 0 for all
    q >= 2 then.  Otherwise positivity is unproved and the tree gives `warn`
    unless (iii) fails.
    """
    group, d = tree.group, tree.d
    M = group_order_poly(group).root_multiplicity(d)

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
    for u, v in zip(chain, chain[1:]):
        if u is None or v is None:
            continue
        du, dv = cm[u].degree, cm[v].degree
        ru = _monic_residue(du.q_exp, du.cyclo_mults, d)
        rv = _monic_residue(dv.q_exp, dv.cyclo_mults, d)
        # su * ru + sv * rv = 0, times the denominators of su and sv
        a, b = du.scalar.numerator, du.scalar.denominator
        c, e = dv.scalar.numerator, dv.scalar.denominator
        if any(a * e * x + c * b * y for x, y in zip(ru, rv)):
            return TreeReport(tree, "fail",
                              f"edge {u} -- {v}: degree sum not divisible by P{d}^{M}")

    # alternating sum reconstructs (a positive multiple of) the exceptional degree
    j = chain.index(None)
    sign = 1 if j % 2 == 1 else -1  # exc = sign * sum over i of (-1)^i deg(chain[i])
    degrees = [cm[lab].degree for lab in tree.characters()]
    signs = [sign if i % 2 == 0 else -sign for i, lab in enumerate(chain) if lab is not None]
    shifted = _shifted_sum(degrees, signs)
    if not shifted:
        return TreeReport(tree, "fail", "alternating degree sum vanishes")
    if shifted[-1] < 0 or shifted[0] <= 0:
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
    if min(shifted) < 0:
        return TreeReport(tree, "warn", "alternating sum not proved positive for q >= 2")
    return TreeReport(tree, "pass")
