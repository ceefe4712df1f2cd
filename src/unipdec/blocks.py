"""Phi_d-block partitions and Brauer-tree consistency checks.

Two unipotent characters lie in one Phi_d-block iff their `_block_key`s
agree.  A classical key is a core, read from the bead counts per abacus
runner, not by removing hooks one at a time: the d-core of the
beta-symbol for B, C, D and 2D (d-hooks for odd d, (d/2)-cohooks for even
d), the e-core of the partition for A and 2A; both are memoised.  An
exceptional key is the character's block in the shipped data.  Brauer
trees are open lines of distinct ordinary characters around one
exceptional vertex; `tree_check` verifies defects, adjacent-degree
divisibility, the positivity of the alternating degree sum and
single-block membership, the last from the keys of the tree's own
vertices, without building a whole partition.
"""

from __future__ import annotations

import importlib.resources
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm

from .cyclo import DensePoly, cyclotomic, euler_phi, root_order
from .degrees import catalog, catalog_map, defect, find_char, group_order_poly
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


@lru_cache(maxsize=None)
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
    comes out increasing.  Memoised per (symbol, d).
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


@lru_cache(maxsize=None)
def partition_core(beta, e):
    """The e-core of the partition with beta-set `beta`, as a partition;
    memoised per (beta, e)."""
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


# one label of a shipped block; a comma inside braces, as in phi{20,2}, is part of it
_BLOCK_LABEL = re.compile(r"(?:[^,{\s]|\{[^}]*\})(?:[^,{]|\{[^}]*\})*")


@lru_cache(maxsize=None)
def _exceptional_blocks(group):
    """d -> the shipped Phi_d-blocks of `group`, each a frozenset of labels;
    empty for a group with no shipped blocks file (E7, E8)."""
    ref = importlib.resources.files("unipdec").joinpath(f"data/blocks/{group}.blocks")
    out = {}
    if not ref.is_file():
        return out
    for line in ref.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            head, rest = line.split(":", 1)
            out[int(head.strip().lstrip("d="))] = [
                frozenset(lab.strip() for lab in _BLOCK_LABEL.findall(blk))
                for blk in rest.split(";") if blk.strip()]
    return out


@lru_cache(maxsize=None)
def _block_key(group, d):
    """The block key of `group`'s characters at d, as a function of the
    character, or None without shipped blocks at d (E7 and E8 ship none);
    memoised per (group, d).  Two unipotent characters share a Phi_d-block iff their keys agree
    (Fong-Srinivasan 1982, Broue-Malle-Michel 1993).  The key is the e-core
    of the partition for A (e = d, the order of q at a primitive d-th root
    of unity) and 2A (e the order of -q: 2d for odd d, d/2 for d = 2 mod 4,
    d for d = 0 mod 4; both from `root_order`), the d-core of the symbol
    for B, C, D and 2D, and for an exceptional group the index of the
    shipped block holding the label, or the label itself (a defect-0
    singleton).  A shipped label outside the catalog, or in two blocks,
    raises BlockError."""
    if group.series in ("A", "2A"):
        e = root_order(2 if group.series == "A" else d + 2, d)
        return lambda c: partition_core(c.symbol.top, e)
    if group.series in ("B", "C", "D", "2D"):
        return lambda c: symbol_core(c.symbol, d)
    listed = _exceptional_blocks(group).get(d)
    if listed is None:
        return None
    index = {}
    for i, labels in enumerate(listed):
        for label in sorted(labels):
            if label not in catalog_map(group):
                raise BlockError(f"shipped block of {group} at d={d}: "
                                 f"{label} is not in the catalog")
            if label in index:
                raise BlockError(f"shipped block of {group} at d={d}: "
                                 f"{label} is in two blocks")
            index[label] = i
    return lambda c: index.get(c.label.text, c.label.text)


@lru_cache(maxsize=None)
def block_partition(group, d):
    """Partition of the unipotent characters into Phi_d-blocks: the
    characters grouped by `_block_key`.  A group without shipped blocks at
    d raises UnsupportedGroupError, and a block of non-constant defect
    BlockError.
    """
    chars = catalog(group)
    key = _block_key(group, d)
    if key is None:
        raise UnsupportedGroupError(f"no shipped block data for {group} at d={d}")
    keyed = {}
    for c in chars:
        keyed.setdefault(key(c), []).append(c)
    blocks = []
    for members in keyed.values():
        labels = frozenset(str(c.label) for c in members)
        dfts = {defect(c, d) for c in members}
        if len(dfts) != 1:
            raise BlockError(
                f"block of {group} at d={d} has non-constant defect: {sorted(labels)}")
        blocks.append((labels, dfts.pop()))
    blocks.sort(key=lambda b: (-len(b[0]), sorted(b[0])))
    return BlockPartition(group, d, tuple(blocks))


# ---------------------------------------------------------------------------
# Brauer trees

@dataclass(frozen=True)
class BrauerTree:
    """Open line of character labels with one exceptional vertex 'O'.

    `chain` holds the label texts as written, None marking the exceptional
    vertex; `chars` their catalog characters (None at 'O'), resolved by
    `find_char` when the tree is built, so that a bad label, or a character
    named twice (in any spelling), raises there;
    `edge_series` holds one modular HC-series tag per edge (may be empty).
    `encoding` holds the integers that `tree_check` decides edges and the
    alternating sum on, compiled on first use.
    """

    group: GroupDescriptor
    d: int
    chain: tuple
    edge_series: tuple = ()
    chars: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        chars = tuple(None if lab is None else find_char(self.group, lab)
                      for lab in self.chain)
        seen = set()
        for lab, c in zip(self.chain, chars):
            if c is not None:
                if c.label.text in seen:
                    raise BlockError(f"vertex {lab!r} appears twice")
                seen.add(c.label.text)
        object.__setattr__(self, "chars", chars)

    def characters(self):
        return [v for v in self.chain if v is not None]

    @cached_property
    def encoding(self):
        """(bits, values, modulus): the integer encoding of `tree_check`.

        `values` holds `_packed`'s value of each vertex of `chain` (None at
        'O'), at x = 2^bits + 2, and modulus is Phi_d(x)^M, M the
        multiplicity of Phi_d in the group order.  They are pure functions
        of the frozen tree, compiled once and kept for its lifetime
        (`load_trees` shares one tree per line); a `dataclasses.replace`
        copy compiles its own."""
        d = self.d
        M = group_order_poly(self.group).root_multiplicity(d)
        bits, packed = _packed([c.degree for c in self.chars if c is not None], d)
        packed = iter(packed)
        values = tuple(None if c is None else next(packed) for c in self.chars)
        return bits, values, _cyclotomic_at(d, (1 << bits) + 2) ** M


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


@lru_cache(maxsize=256)
def load_trees(path_text, group, d):
    """The trees of a `.trees` file, one a line, as a tuple; a line that
    does not parse or names a label outside the catalog raises BlockError
    naming it.

    Memoised on (exact text, group, d), for up to 256 files (the corpus
    has 53): a `BrauerTree` is frozen, so every call with one key returns
    the same trees, and an edited file is a new key.  `tree_check` is not
    cached, and an error is raised again on every call."""
    out = []
    for lineno, line in enumerate(path_text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_tree_line(group, d, line))
        except (BlockError, LabelError, UnsupportedGroupError) as exc:
            raise BlockError(f"line {lineno}: {exc}") from exc
    return tuple(out)


@dataclass
class TreeReport:
    status: str
    evidence: str = ""


@lru_cache(maxsize=None)
def _power_bound(d):
    """c_d, the largest |coefficient| of q^k mod Phi_d over 0 <= k < d;
    memoised per d."""
    phi = cyclotomic(d)
    return max(abs(c) for k in range(d) for c in DensePoly.monomial(k).divmod(phi)[1].coeffs)


@lru_cache(maxsize=None)
def _cyclotomic_at(e, x):
    """Phi_e(x), as an int; memoised so that the degrees of one tree, all
    evaluated at the same x, share each value."""
    return cyclotomic(e)(x)


def _monic_at(q_exp, cyclo_mults, x):
    """q^q_exp * prod Phi_e^m at q = x: the monic part of a degree, as an int.
    Not memoised: each tree keeps its packed values (`BrauerTree.encoding`),
    so a second pass does not come here."""
    v = x ** q_exp
    for e, m in cyclo_mults:
        v *= _cyclotomic_at(e, x) ** m
    return v


def _packed(degrees, d):
    """(B, values): each degree s * F, F its monic part, packed as the int
    w * F(x) at x = 2^B + 2, where w = L * s and L > 0 is the lcm of the
    scalars' denominators.

    Every Phi_e(q + 2) has nonnegative coefficients (a pair of conjugate
    roots zeta gives q^2 + 2(2 - Re zeta)q + |2 - zeta|^2), so each F(q + 2)
    does too, and each of them is at most F(3).  With
    B = bit_length(max(c_d * sum |w| * F(3), phi(d))) + 1, a signed sum of
    the values is the balanced base-2^B digit expansion of the coefficients
    of L * S(q + 2), S the signed sum of the degrees, each below 2^(B-1):
    nothing is expanded.  c_d (`_power_bound`) and phi(d) are in B so that
    x >= max(2H + 2, 2 phi(d)) for the edge test of `tree_check`, where
    every edge has H <= c_d * sum |w| * F(3).
    """
    scale = lcm(*(deg.scalar.denominator for deg in degrees))
    weights = [deg.scalar.numerator * (scale // deg.scalar.denominator) for deg in degrees]
    bound = _power_bound(d) * sum(abs(w) * _monic_at(deg.q_exp, deg.cyclo_mults, 3)
                                  for deg, w in zip(degrees, weights))
    bits = max(bound, euler_phi(d)).bit_length() + 1
    x = (1 << bits) + 2
    return bits, [w * _monic_at(deg.q_exp, deg.cyclo_mults, x)
                  for deg, w in zip(degrees, weights)]


def _balanced_digits(value, bits):
    """The balanced base-2^bits digits of value, lowest first; () for 0."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    while value:
        digit = ((value + half) & mask) - half
        out.append(digit)
        value = (value - digit) >> bits
    return tuple(out)


def _sum_digits(value, bits):
    """None when every balanced base-2^bits digit of value is >= 0 and the
    lowest is > 0; otherwise `_balanced_digits(value, bits)`.

    The digits all lie in [0, 2^(bits-1)) iff value >= 0 and no bits-bit
    chunk of it has its top bit set, for then each chunk is its digit: one
    mask test decides the first case, and only the other one is decoded.
    """
    low = (1 << bits) - 1
    if value > 0 and value & low:
        chunks = -(-value.bit_length() // bits)
        tops = ((1 << bits * chunks) - 1) // low << (bits - 1)
        if not value & tops:
            return None
    return _balanced_digits(value, bits)


def tree_check(tree):
    """Check a Brauer tree against the catalog degrees.

    (i) every ordinary character on the tree has Phi_d-defect exactly 1;
    (ii) the degree sum over each edge not touching the exceptional vertex
         is divisible by the full Phi_d-part Phi_d^M of the group order, and
         the alternating sum over the whole line is minus a positive multiple
         of a putative exceptional-character degree, divisible by Phi_d^(M-1);
    (iii) all characters lie in one Phi_d-block: they have one
          `_block_key`, so only the tree's own vertices are keyed, and no
          whole partition is built.  Without shipped blocks at d (an
          exceptional group) (iii) is left undecided.

    After (i) every degree on the tree is D = Phi_d^(M-1) * s * u with Phi_d
    not dividing the integer polynomial u = q^k * prod over e != d of
    Phi_e^m, because Phi_d is irreducible and prime to q and to every other
    Phi_e.  `_packed` gives each vertex as w * F(x), F = Phi_d^(M-1) * u its
    monic part and w = L * s an int, at one x = 2^B + 2 per tree, and (ii)
    is decided on these ints, which each tree compiles once, with
    Phi_d(x)^M, as `BrauerTree.encoding`: Phi_d^M divides D_u + D_v iff
    Phi_d(x)^M divides w_u * F_u(x) + w_v * F_v(x).  The proof: w_u * u + w_v * v is
    Q * Phi_d + R with Q and R integer polynomials (Phi_d is monic),
    deg R < phi(d), and Phi_d^M divides the edge sum iff R = 0.  Each
    coefficient of R is at most H = c_d * (|w_u| * F_u(3) + |w_v| * F_v(3)),
    since q^d = 1 mod Phi_d, c_d bounds every q^k mod Phi_d (`_power_bound`),
    and the coefficients of u sum in absolute value to at most
    u(3) <= F(3), because ||Phi_e||_1 <= 2^phi(e) <= Phi_e(3).  `_packed`
    takes x >= max(2H + 2, 2 phi(d)), so any R != 0 has
    0 < |R(x)| < (x - 1)^phi(d) <= Phi_d(x), and Phi_d(x) does not divide
    R(x), nor then w_u * u(x) + w_v * v(x).  The alternating sum is
    Phi_d^(M-1) times a sum of such s * u, so it is divisible by
    Phi_d^(M-1) once it is nonzero.

    Positivity for every prime power q is read off the coefficients T of
    L * S(q + 2), L > 0, the balanced base-2^B digits of the alternating
    sum of the packed values (Descartes' rule of signs at q = 2): the tree
    fails when the leading coefficient of T or T(0) = L * S(2) is <= 0,
    since S is then <= 0 at q = 2 or at every large q, and passes when
    every coefficient is >= 0, since S(q) > 0 for all q >= 2 then.  One
    mask test (`_sum_digits`) shows the last case without decoding a digit.
    Otherwise positivity is unproved and the tree gives `warn` unless (iii)
    fails.  The degrees are read from `tree.chars`, resolved when the tree
    was built, once per vertex, so no label is looked up here.  Every test
    runs on every call; only the encoding is kept, and no verdict.
    """
    group, d = tree.group, tree.d
    M = group_order_poly(group).root_multiplicity(d)
    chain = tree.chain

    # (i) the defect is M less the multiplicity of Phi_d in the degree
    for lab, c in zip(chain, tree.chars):
        if c is not None:
            dft = M - c.degree.root_multiplicity(d)
            if dft != 1:
                return TreeReport("fail", f"{lab} has Phi_{d}-defect {dft}, not 1")

    # (ii) neighbouring ordinary characters: sum divisible by Phi_d^M
    bits, values, modulus = tree.encoding
    for u, v, pu, pv in zip(chain, chain[1:], values, values[1:]):
        if pu is None or pv is None:
            continue
        if (pu + pv) % modulus:
            return TreeReport("fail", f"edge {u} -- {v}: degree sum not divisible by P{d}^{M}")

    # alternating sum reconstructs (a positive multiple of) the exceptional degree
    j = chain.index(None)
    sign = 1 if j % 2 == 1 else -1  # exc = sign * sum over i of (-1)^i deg(chain[i])
    total = sum(v if i % 2 == 0 else -v for i, v in enumerate(values) if v is not None)
    shifted = _sum_digits(sign * total, bits)  # None: positive, nothing decoded
    if shifted == ():
        return TreeReport("fail", "alternating degree sum vanishes")
    if shifted and (shifted[-1] < 0 or shifted[0] <= 0):
        return TreeReport("fail", "alternating sum is not a positive multiple of a degree")

    # (iii) one block: one key for all the characters
    key = _block_key(group, d)
    if key is not None and len({key(c) for c in tree.chars if c is not None}) > 1:
        return TreeReport("fail", "characters span several blocks")
    if shifted and min(shifted) < 0:
        return TreeReport("warn", "alternating sum not proved positive for q >= 2")
    return TreeReport("pass")
