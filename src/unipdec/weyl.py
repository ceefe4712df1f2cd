"""Character values and branching for Weyl groups of types A, B and D.

Irreducible characters of W(B_n) are indexed by bipartitions of n and
conjugacy classes by signed cycle types (positive cycles; negative cycles).
Values come from a Murnaghan-Nakayama recursion on pairs of partitions;
induction and restriction go through Littlewood-Richardson coefficients.

Type D is handled by folding from B_n.  Values of the degenerate +/-
characters at split classes are never needed by the paper's computations
and raise instead of guessing.

Induction is a pure function of small hashable arguments, and Harish-Chandra
induction asks for the same few products over and over, so `mult_B`,
`regular_B`, `sym_to_hyper`, the Littlewood-Richardson expansions and the
single-character induction `induce_char` are memoised.  Their cached
results are handed out as read-only mappings (`MappingProxyType`), so no
caller can alter a later result; `induce` builds a fresh dict on every call.
The Murnaghan-Nakayama recursion memoises its values (`_mn_value`) and the
rim hooks of each (partition, length) it strips (`_remove_hooks`, handed
out as tuples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .labels import Bipartition, check_partition, partitions


class WeylError(ValueError):
    pass


@dataclass(frozen=True)
class SignedClass:
    positive: tuple
    negative: tuple

    def __post_init__(self):
        object.__setattr__(self, "positive", check_partition(self.positive))
        object.__setattr__(self, "negative", check_partition(self.negative))

    def size(self):
        return sum(self.positive) + sum(self.negative)

    def __str__(self):
        p = ",".join(map(str, self.positive)) or "-"
        n = ",".join(map(str, self.negative)) or "-"
        return f"({p};{n})"


def w0_class(n):
    """The longest element of B_n: n negative 1-cycles."""
    return SignedClass((), (1,) * n)


def coxeter_class(n):
    """A Coxeter element of B_n: one negative n-cycle."""
    return SignedClass((), (n,))


def signed_classes(n):
    return [SignedClass(a, b)
            for k in range(n + 1)
            for a in partitions(k) for b in partitions(n - k)]


def class_size(n, cls):
    """Conjugacy class size in B_n from the centraliser order formula."""
    cent = 1
    for parts in (cls.positive, cls.negative):
        mult = {}
        for p in parts:
            mult[p] = mult.get(p, 0) + 1
        for k, m in mult.items():
            cent *= (2 * k) ** m * math.factorial(m)
    return (2 ** n) * math.factorial(n) // cent


def sign_value(cls):
    """(-1)^l(w): determinant of the signed permutation."""
    s = 1
    for a in cls.positive:
        if (a - 1) % 2:
            s = -s
    for b in cls.negative:
        if b % 2:
            s = -s
    return s


# ---------------------------------------------------------------------------
# hooks on partitions via beta-sets

@lru_cache(maxsize=None)
def _remove_hooks(partition, length):
    """All ways to strip a rim hook of given length, as a tuple of (smaller
    partition, height sign); memoised per (partition tuple, length)."""
    if not partition:
        return ()
    beta = [p + i for i, p in enumerate(sorted(partition))]
    out = []
    bset = set(beta)
    for b in beta:
        if b - length >= 0 and (b - length) not in bset:
            nb = sorted(bset - {b} | {b - length})
            ht = sum(1 for x in bset if b - length < x < b)
            parts = tuple(sorted((x - i for i, x in enumerate(nb)), reverse=True))
            out.append((check_partition(parts), (-1) ** ht))
    return tuple(out)


@lru_cache(maxsize=None)
def _mn_value(left, right, pos, neg):
    """Character of W(B_n) at a signed class, by stripping one cycle at a time."""
    if not pos and not neg:
        return 1
    if neg:
        cyc, eps = neg[0], -1
        rest_pos, rest_neg = pos, neg[1:]
    else:
        cyc, eps = pos[0], 1
        rest_pos, rest_neg = pos[1:], neg
    total = 0
    for smaller, sgn in _remove_hooks(left, cyc):
        total += sgn * _mn_value(smaller, right, rest_pos, rest_neg)
    for smaller, sgn in _remove_hooks(right, cyc):
        total += eps * sgn * _mn_value(left, smaller, rest_pos, rest_neg)
    return total


def char_value_B(n, chi, cls):
    """Value of the irreducible W(B_n)-character chi (a bipartition) at cls."""
    if chi.size() != n or cls.size() != n:
        raise WeylError(f"size mismatch: |chi|={chi.size()}, |cls|={cls.size()}, n={n}")
    return _mn_value(chi.left, chi.right,
                     tuple(sorted(cls.positive, reverse=True)),
                     tuple(sorted(cls.negative, reverse=True)))


def char_dim_B(n, chi):
    return char_value_B(n, chi, SignedClass((1,) * n, ()))


def is_split_class(cls):
    """Classes of B_n that split in D_n: all cycles positive with even lengths."""
    return not cls.negative and all(a % 2 == 0 for a in cls.positive)


def char_value_D(n, label_bip, cls):
    """Value of a W(D_n)-character at a class given by its B_n signed type.

    Non-degenerate {lam, mu} labels restrict irreducibly from B_n, so the
    value is just the B_n value.  Degenerate labels carry a +/- sign and are
    only defined off the split classes, where both halves agree.
    """
    if len(cls.negative) % 2:
        raise WeylError("class does not lie in D_n (odd number of negative cycles)")
    degenerate = label_bip.left == label_bip.right
    if degenerate and is_split_class(cls):
        raise WeylError(
            "value of a degenerate type-D character at a split class is not implemented")
    v = char_value_B(n, label_bip, cls)
    if degenerate:
        if v % 2:
            raise WeylError(f"degenerate type-D character {label_bip} has the odd "
                            f"B_{n} value {v} at {cls}, which does not halve")
        return v // 2
    return v


# ---------------------------------------------------------------------------
# Littlewood-Richardson

@lru_cache(maxsize=None)
def lr_coefficient(lam, mu, nu):
    """c^lam_{mu,nu}: LR skew tableaux of shape lam/mu and content nu.

    Semistandard fillings are generated row by row and kept when the reverse
    reading word (rows top to bottom, each read right to left) is a lattice
    word.  Shapes in this package stay tiny, so the plain search suffices.
    """
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if sum(lam) != sum(mu) + sum(nu) or len(mu) > len(lam):
        return 0
    rows = len(lam)
    mu_p = tuple(mu) + (0,) * (rows - len(mu))
    if any(mu_p[i] > lam[i] for i in range(rows)):
        return 0
    if not nu:
        return 1

    count = 0

    def lattice_after_row(filling):
        seen = [0] * len(nu)
        for r in filling:
            for e in reversed(r):
                seen[e - 1] += 1
                if e > 1 and seen[e - 1] > seen[e - 2]:
                    return False
        return True

    def fill(row, filling, content):
        nonlocal count
        if row == rows:
            count += 1
            return
        lo, hi = mu_p[row], lam[row]
        above = filling[row - 1] if row else None

        def place(col, current_row, content):
            if col == hi:
                nf = filling + [current_row]
                if lattice_after_row(nf):
                    fill(row + 1, nf, content)
                return
            min_entry = 1
            if current_row and col > lo:
                min_entry = current_row[-1]
            if above is not None and mu_p[row - 1] <= col < mu_p[row - 1] + len(above):
                min_entry = max(min_entry, above[col - mu_p[row - 1]] + 1)
            for e in range(min_entry, len(nu) + 1):
                if content[e - 1] + 1 > nu[e - 1]:
                    continue
                ncontent = list(content)
                ncontent[e - 1] += 1
                place(col + 1, current_row + [e], tuple(ncontent))

        place(lo, [], content)

    fill(0, [], (0,) * len(nu))
    return count


@lru_cache(maxsize=None)
def lr_expand_product(mu, nu):
    """s_mu * s_nu = sum c^lam s_lam as a read-only mapping."""
    out = {}
    n = sum(mu) + sum(nu)
    for lam in partitions(n):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[lam] = c
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def mult_B(chi1, chi2):
    """Induction product of W(B_a) x W(B_b) characters, as a read-only
    mapping on bipartitions."""
    out = {}
    for l, cl in lr_expand_product(chi1.left, chi2.left).items():
        for r, cr in lr_expand_product(chi1.right, chi2.right).items():
            bip = Bipartition(l, r)
            out[bip] = out.get(bip, 0) + cl * cr
    return MappingProxyType(out)


def mult_B_dicts(d1, d2):
    out = {}
    for b1, c1 in d1.items():
        for b2, c2 in d2.items():
            for b, c in mult_B(b1, b2).items():
                out[b] = out.get(b, 0) + c1 * c2 * c
    return out


@lru_cache(maxsize=None)
def sym_to_hyper(nu):
    """Ind from S_k to W(B_k) of the S_k-character nu (a partition tuple), as
    a read-only mapping on bipartitions."""
    out = {}
    k = sum(nu)
    for a in range(k + 1):
        for alpha in partitions(a):
            for beta in partitions(k - a):
                c = lr_coefficient(nu, alpha, beta)
                if c:
                    out[Bipartition(alpha, beta)] = c
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def regular_B(k):
    """Regular character of W(B_k) (k = 0 gives the trivial one), as a
    read-only mapping on bipartitions."""
    if k == 0:
        return MappingProxyType({Bipartition((), ()): 1})
    out = {}
    for a in range(k + 1):
        for alpha in partitions(a):
            for beta in partitions(k - a):
                bip = Bipartition(alpha, beta)
                out[bip] = char_dim_B(k, bip)
    return MappingProxyType(out)


def induce(factors, n):
    """Induce a product character up to W(B_n).

    `factors` is a list of ("B", bipartition or mapping on bipartitions) or
    ("A", partition) entries; sizes plus the torus deficit must add up to n.
    The deficit is filled with regular W(B_1)-characters, which is exactly
    induction from the parabolic W(B_m) <= W(B_n).
    """
    acc = {Bipartition((), ()): 1}
    used = 0
    for kind, data in factors:
        if kind == "B":
            d = {data: 1} if isinstance(data, Bipartition) else data
            used += next(iter(d)).size() if d else 0
            acc = mult_B_dicts(acc, d)
        elif kind == "A":
            d = sym_to_hyper(tuple(data))
            used += sum(data)
            acc = mult_B_dicts(acc, d)
        else:
            raise WeylError(f"unknown factor kind {kind!r}")
    t = n - used
    if t < 0:
        raise WeylError("factor sizes exceed the target rank")
    for _ in range(t):
        acc = mult_B_dicts(acc, regular_B(1))
    return acc


@lru_cache(maxsize=None)
def induce_char(chi, n, a_factors=()):
    """Induce chi (a bipartition) times the S_k-characters `a_factors` (a
    tuple of partition tuples) up to W(B_n), filling the rest with torus.

    This is `induce([("B", {chi: 1})] + [("A", p) for p in a_factors], n)`,
    memoised, as a read-only mapping on bipartitions.
    """
    return MappingProxyType(induce([("B", {chi: 1})] + [("A", p) for p in a_factors], n))


@lru_cache(maxsize=None)
def _skew_expand(lam, mu):
    """s_{lam/mu} = sum c^lam_{mu,nu} s_nu, as a read-only mapping."""
    out = {}
    for nu in partitions(sum(lam) - sum(mu)):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return MappingProxyType(out)


def restrict_B(chi, a, b):
    """Restriction of a W(B_{a+b})-character to W(B_a) x W(B_b) as a dict of pairs."""
    if chi.size() != a + b:
        raise WeylError("shape mismatch in restriction")
    out = {}
    for al in range(a + 1):
        for alpha in partitions(al):
            for beta in partitions(a - al):
                left = Bipartition(alpha, beta)
                lcoef = {}
                for nu1, c1 in _skew_expand(chi.left, alpha).items():
                    for nu2, c2 in _skew_expand(chi.right, beta).items():
                        lcoef[(nu1, nu2)] = c1 * c2
                for (nu1, nu2), c in lcoef.items():
                    if sum(nu1) + sum(nu2) != b:
                        continue
                    key = (left, Bipartition(nu1, nu2))
                    out[key] = out.get(key, 0) + c
    return out

