"""Phi_d-block partitions and Brauer-tree consistency checks.

Classical block partitions come from cores; two characters lie in the same
block iff their cores agree.  A core is read from the bead counts per
abacus runner, not by removing hooks one at a time: the d-core of the
beta-symbol for B, C, D and 2D (d-hooks for odd d, (d/2)-cohooks for even
d), the e-core of the partition for A and 2A.  Exceptional-group
partitions are shipped as data.  Brauer trees are open lines of ordinary
characters around one exceptional vertex; `tree_check` verifies defects,
adjacent-degree divisibility, the positivity of the alternating degree sum
and single-block membership.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm

from .cyclo import cyclotomic
from .degrees import (_ennola_index, catalog, catalog_map, defect, find_char,
                      group_order_poly)
from .labels import GroupDescriptor, LabelError, UnsupportedGroupError, beta_to_partition


class BlockError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cores

def _runner_core(row, e):
    """The e-core of a beta-set: each bead slid down its runner mod e, as
    far as the beads below it allow (the bead count stays).  Read level by
    level, the beads come out increasing."""
    counts = [0] * e
    for x in row:
        counts[x % e] += 1
    out = []
    for k in range(max(counts)):
        for r, c in enumerate(counts):
            if c > k:
                out.append(r + e * k)
    return tuple(out)


def _ordered_reduced(top, bottom):
    """The reduced symbol (common shift stripped), rows ordered by (length, row)."""
    k = 0
    while k < len(top) and k < len(bottom) and top[k] == k and bottom[k] == k:
        k += 1
    if k:
        top, bottom = tuple(x - k for x in top[k:]), tuple(x - k for x in bottom[k:])
    return (top, bottom) if (len(top), top) <= (len(bottom), bottom) else (bottom, top)


def symbol_core(sym, d):
    """The d-core of a symbol, reduced and with its two rows ordered: what
    removing d-hooks (d odd) or (d/2)-cohooks (d even) leaves.

    Odd d: a d-hook moves a bead of one row down its runner mod d, so each
    row's core is its beads slid down their runners.  Even d, e = d/2: a
    cohook moves a bead at level k of runner r (position r + e*k) of row
    rho to level k - 1 of the other row.  Placing (rho, k) at slot
    2k + (rho xor k mod 2) makes every cohook a step of 2 slots down, so the
    core keeps the bead count per (runner, slot parity) and packs each one
    into the lowest slots.  Both rows are read level by level, so each
    comes out increasing.
    """
    if d % 2:
        return _ordered_reduced(_runner_core(sym.top, d), _runner_core(sym.bottom, d))
    e = d // 2
    counts = [0] * (2 * e)  # index 2r + slot parity
    for rho, row in enumerate((sym.top, sym.bottom)):
        for x in row:
            k, r = divmod(x, e)
            counts[2 * r + ((rho ^ k) & 1)] += 1
    rows = ([], [])
    for k in range(max(counts)):
        for i, c in enumerate(counts):
            if c > k:  # slot parity + 2k of runner i // 2 sits at level k
                rows[(i & 1) ^ (k & 1)].append(i // 2 + e * k)
    return _ordered_reduced(tuple(rows[0]), tuple(rows[1]))


def partition_core(beta, e):
    """The e-core of the partition with beta-set `beta`, as a partition."""
    return beta_to_partition(_runner_core(beta, e))


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
    """Partition of the unipotent characters into Phi_d-blocks.

    Two classical characters share a block iff their cores agree: the
    d-core of the symbol for B, C, D and 2D, and the e-core of the
    partition for A (e = d) and 2A (e the order of -q at a primitive d-th
    root of unity: 2d for odd d, d/2 for d = 2 mod 4, d for d = 0 mod 4).
    """
    chars = catalog(group)
    if group.series in ("B", "C", "D", "2D", "A", "2A"):
        if group.series in ("A", "2A"):
            e = d if group.series == "A" else _ennola_index(d)
            core = lambda c: partition_core(c.symbol.top, e)
        else:
            core = lambda c: symbol_core(c.symbol, d)
        keyed = {}
        for c in chars:
            keyed.setdefault(core(c), []).append(c)
        blocks = []
        for members in keyed.values():
            labels = frozenset(str(c.label) for c in members)
            dfts = {defect(c, d) for c in members}
            if len(dfts) != 1:
                raise BlockError(
                    f"block of {group} at d={d} has non-constant defect: {sorted(labels)}")
            blocks.append((labels, dfts.pop()))
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

    `chain` holds the label texts as written, None marking the exceptional
    vertex; `chars` their catalog characters (None at 'O'), resolved by
    `find_char` when the tree is built, so that a bad label raises there;
    `edge_series` holds one modular HC-series tag per edge (may be empty).
    """

    group: GroupDescriptor
    d: int
    chain: tuple
    edge_series: tuple = ()
    chars: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "chars", tuple(
            None if lab is None else find_char(self.group, lab) for lab in self.chain))

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
    """The trees of a `.trees` file, one a line; a line that does not parse
    or names a label outside the catalog raises BlockError naming it."""
    out = []
    for lineno, line in enumerate(path_text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_tree_line(group, d, line))
        except (BlockError, LabelError, UnsupportedGroupError) as exc:
            raise BlockError(f"line {lineno}: {exc}") from exc
    return out


@dataclass
class TreeReport:
    tree: BrauerTree
    status: str
    evidence: str = ""


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
    q_exp mod d matters, and `tree_check` passes q_exp mod d to share the
    memo."""
    phi = cyclotomic(d).coeffs
    out = _power_residue(0, q_exp, d)
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
    zeta^d = 1, so the residues are memoised per (k mod d, factors, d).
    The alternating sum is Phi_d^(M-1) times a sum of such u, so it is
    divisible by Phi_d^(M-1) once it is nonzero.

    Positivity for every prime power q is read off the coefficients T of
    L * S(q + 2), L > 0, that `_shifted_sum` gives (Descartes' rule of signs
    at q = 2): the tree fails when the leading coefficient of T or
    T(0) = L * S(2) is <= 0, since S is then <= 0 at q = 2 or at every large
    q, and passes when every coefficient is >= 0, since S(q) > 0 for all
    q >= 2 then.  Otherwise positivity is unproved and the tree gives `warn`
    unless (iii) fails.  The degrees are read from `tree.chars`, resolved
    when the tree was built, so no label is looked up here.
    """
    group, d = tree.group, tree.d
    M = group_order_poly(group).root_multiplicity(d)

    cm = dict(zip(tree.chain, tree.chars))
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
        ru = _monic_residue(du.q_exp % d, du.cyclo_mults, d)
        rv = _monic_residue(dv.q_exp % d, dv.cyclo_mults, d)
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
        canon = [str(c.label) for c in tree.chars if c is not None]
        first, _ = part.block_of(canon[0])
        if any(lab not in first for lab in canon):
            return TreeReport(tree, "fail", "characters span several blocks")
    except UnsupportedGroupError:
        pass  # exceptional group without full block data at this d: defect check stands
    if min(shifted) < 0:
        return TreeReport(tree, "warn", "alternating sum not proved positive for q >= 2")
    return TreeReport(tree, "pass")
