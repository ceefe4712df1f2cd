"""Combinatorial labels for unipotent characters and per-group catalogs.

Classical-group characters are labelled by bipartitions / beta-symbols,
possibly prefixed with a cuspidal core ("B2:", "D4:", "B6:").  Degenerate
type-D labels come in +/- pairs ("3+", "3-").  Exceptional-group labels are
names loaded from the shipped catalog files ("phi{20,10}", "E6[z3]", ...).

Label grammar (bit-exact, shared with the table files):
    bipartitions    21.1^3      (empty side allowed: "3." or ".1^4")
    split labels    3+ / 3-
    core series     B2:2.   D4:21.1   B6  (bare core = empty bipartition)
    partitions      31   (A-series)
    named           phi{20,10}  phi{2,4}'  E6[z3]  F4[-1]  2A5:2

A part is a digit 1-9, with an optional exponent 1-9 ("1^4" is 1111).
`parse_label` keeps a classical label in canonical spelling: "1111." is
kept as "1^4.", "D4:." as "D4".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

SERIES = ("A", "2A", "B", "C", "D", "2D", "E6", "2E6", "E7", "E8", "F4")
#: the series of fixed rank, each with its rank; a descriptor is named by it alone
FIXED_RANK = {"E6": 6, "2E6": 6, "E7": 7, "E8": 8, "F4": 4}


class LabelError(ValueError):
    pass


class UnsupportedGroupError(ValueError):
    pass


@dataclass(frozen=True)
class GroupDescriptor:
    series: str
    rank: int

    def __post_init__(self):
        if self.series not in SERIES:
            raise UnsupportedGroupError(f"unknown series {self.series!r}")
        if self.series in FIXED_RANK:
            if self.rank != FIXED_RANK[self.series]:
                raise UnsupportedGroupError(f"{self.series} has rank {FIXED_RANK[self.series]}")
        else:
            minrank = {"A": 1, "2A": 2, "B": 2, "C": 2, "D": 2, "2D": 2}[self.series]
            if self.rank < minrank:
                raise UnsupportedGroupError(f"{self.series}_{self.rank} not admissible")

    def __str__(self):
        if self.series in FIXED_RANK:
            return self.series
        return f"{self.series}{self.rank}"

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text in FIXED_RANK:
            return cls(text, FIXED_RANK[text])
        m = re.match(r"^(2?[ABCD])(\d+)$", text)
        if not m:
            raise UnsupportedGroupError(f"cannot parse group descriptor {text!r}")
        return cls(m.group(1), int(m.group(2)))


# ---------------------------------------------------------------------------
# partitions and bipartitions

def check_partition(parts):
    """The nonzero parts as a tuple of ints; raises unless they are
    non-increasing and positive (a non-increasing row is positive iff its
    last part is).  Order is checked against the C-level `sorted`."""
    parts = tuple(p for p in map(int, parts) if p)
    if parts and (parts[-1] < 0 or list(parts) != sorted(parts, reverse=True)):
        raise LabelError(f"not a partition: {parts}")
    return parts


_PART = re.compile(r"([1-9])(?:\^([1-9]))?")  # a part and its exponent
_PARTITION = re.compile(f"(?:{_PART.pattern})+")


def parse_partition(text):
    """Parse e.g. '21^3' -> (2,1,1,1) or '2^21^2' -> (2,2,1,1).

    Parts and exponents are single digits 1-9 (ranks stay below 10), so an
    exponent is one digit and the next digit starts a part; a 0 is rejected.
    """
    text = text.strip()
    if text in ("", "-"):
        return ()
    if not _PARTITION.fullmatch(text):
        raise LabelError(f"bad partition {text!r}")
    return check_partition([int(p) for p, e in _PART.findall(text)
                            for _ in range(int(e or 1))])


def format_partition(parts):
    if not parts:
        return ""
    out = []
    i = 0
    parts = list(parts)
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        out.append(str(parts[i]) if j - i == 1 else f"{parts[i]}^{j - i}")
        i = j
    return "".join(out)


@dataclass(frozen=True)
class Bipartition:
    """Two partitions; hashed once, as hash((left, right)), on construction."""

    left: tuple
    right: tuple

    def __post_init__(self):
        left, right = check_partition(self.left), check_partition(self.right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash((left, right)))

    def __hash__(self):
        return self._hash

    def size(self):
        return sum(self.left) + sum(self.right)

    def swapped(self):
        return Bipartition(self.right, self.left)

    def __str__(self):
        return f"{format_partition(self.left)}.{format_partition(self.right)}"

    @classmethod
    def parse(cls, text):
        if text.count(".") != 1:
            raise LabelError(f"bipartition needs one dot: {text!r}")
        l, r = text.split(".")
        return cls(parse_partition(l), parse_partition(r))


# ---------------------------------------------------------------------------
# beta-symbols

def beta_set(partition, length):
    """Beta-set of given length: increasing parts + index shift."""
    parts = sorted(partition)
    if len(parts) > length:
        raise LabelError("beta-set length too small")
    parts = [0] * (length - len(parts)) + parts
    return tuple(p + i for i, p in enumerate(parts))


def beta_to_partition(beta):
    return check_partition(sorted((b - i for i, b in enumerate(sorted(beta))), reverse=True))


@dataclass(frozen=True)
class BetaSymbol:
    """Two strictly increasing rows; canonical form has no common 0-shift.
    Hashed as hash((top, bottom)), computed on first use and kept, so a
    symbol that is never hashed pays nothing."""

    top: tuple
    bottom: tuple

    def __post_init__(self):
        # a strictly increasing row is nonnegative iff its first entry is,
        # and strictly increasing iff it equals its sorted set
        for row in (self.top, self.bottom):
            if row and (row[0] < 0 or list(row) != sorted(set(row))):
                raise LabelError(f"bad symbol row {row}")

    @cached_property
    def _hash(self):
        return hash((self.top, self.bottom))

    def __hash__(self):
        return self._hash

    def reduced(self):
        """Strip the common shift: the largest k with both rows starting 0, ..., k-1."""
        top, bottom = self.top, self.bottom
        k = 0
        while k < len(top) and k < len(bottom) and top[k] == k and bottom[k] == k:
            k += 1
        if not k and type(top) is tuple and type(bottom) is tuple:
            return self
        return BetaSymbol(tuple(x - k for x in top[k:]), tuple(x - k for x in bottom[k:]))

    def shifted(self, k=1):
        top = tuple(range(k)) + tuple(x + k for x in self.top)
        bottom = tuple(range(k)) + tuple(x + k for x in self.bottom)
        return BetaSymbol(top, bottom)

    def defect(self):
        return abs(len(self.top) - len(self.bottom))

    def entries(self):
        return tuple(sorted(self.top + self.bottom))

    def bipartition(self):
        """Top row first; callers fix the orientation convention."""
        return Bipartition(beta_to_partition(self.top), beta_to_partition(self.bottom))

    def __str__(self):
        t = " ".join(str(x) for x in self.top) or "-"
        b = " ".join(str(x) for x in self.bottom) or "-"
        return f"({t}|{b})"

    @classmethod
    def parse(cls, text):
        m = re.match(r"^\(([^|]*)\|([^|]*)\)$", text.strip())
        if not m:
            raise LabelError(f"bad symbol {text!r}")
        def row(s):
            s = s.strip()
            if s in ("", "-"):
                return ()
            return tuple(int(x) for x in s.split())
        return cls(row(m.group(1)), row(m.group(2)))


def bipartition_to_symbol(bip, defect):
    """Symbol with the left partition on the longer row; reduced form."""
    if defect < 0:
        raise LabelError("defect must be >= 0")
    k = max(len(bip.right), len(bip.left) - defect, 0)
    return BetaSymbol(beta_set(bip.left, k + defect), beta_set(bip.right, k)).reduced()


def symbol_to_bipartition(sym):
    if len(sym.top) < len(sym.bottom):
        sym = BetaSymbol(sym.bottom, sym.top)
    return sym.bipartition()


# ---------------------------------------------------------------------------
# unipotent character labels

#: kinds: "bip" (principal series, classical), "split" (degenerate type D),
#: "core" (classical non-principal ordinary HC series), "named" (exceptional),
#: "partition" (type A)
@dataclass(frozen=True)
class UnipLabel:
    kind: str
    text: str
    bip: Bipartition | None = None
    sign: str | None = None
    core: str | None = None

    def __str__(self):
        return self.text


_CORE_RANK = {"B2": 2, "B6": 6, "D4": 4, "2D9": 9}
_CORE_DEFECT = {"B2": 3, "B6": 5, "D4": 4, "2D9": 6}


@lru_cache(maxsize=None)
def parse_label(text, group=None):
    """Parse a label string; `group` only disambiguates named exceptional labels.

    A classical label's text is canonical (as `bip_label`, `split_label`,
    `core_label` and `format_partition` spell it).  Memoised per (text,
    group): the result is a frozen UnipLabel.
    """
    text = text.strip()
    if not text:
        raise LabelError("empty label")
    if group is not None and group.series in FIXED_RANK:
        return UnipLabel("named", text)
    m = re.match(r"^(B2|B6|D4|2D9):(.*)$", text)
    if m:
        if "." not in m.group(2):
            raise LabelError(f"core label needs a bipartition: {text!r}")
        return core_label(m.group(1), Bipartition.parse(m.group(2)))
    if text in _CORE_RANK:
        return core_label(text, Bipartition((), ()))
    if text.endswith("+") or text.endswith("-"):
        return split_label(parse_partition(text[:-1]), text[-1])
    if "." in text:
        return bip_label(Bipartition.parse(text))
    parts = parse_partition(text)
    return UnipLabel("partition", format_partition(parts), bip=Bipartition(parts, ()))


def bip_label(bip):
    return UnipLabel("bip", str(bip), bip=bip)


def split_label(half, sign):
    text = format_partition(half) + sign
    return UnipLabel("split", text, bip=Bipartition(half, half), sign=sign)


def core_label(core, bip):
    """A cuspidal-core label; the bare core is written `B6`, `D4`, `2D9`, but `B2:.`."""
    text = core if bip.size() == 0 and core != "B2" else f"{core}:{bip}"
    return UnipLabel("core", text, bip=bip, core=core)


# ---------------------------------------------------------------------------
# partitions of n

@lru_cache(maxsize=None)
def partitions(n, maxpart=None):
    if maxpart is None:
        maxpart = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def bipartitions(n):
    """Every bipartition of n, left side growing: memoised per n, and a
    tuple so that no caller can change the memo."""
    out = []
    for k in range(n + 1):
        for l in partitions(k):
            for r in partitions(n - k):
                out.append(Bipartition(l, r))
    return tuple(out)


# ---------------------------------------------------------------------------
# symbol normalisation per series

def label_symbol(group, label):
    """The reduced beta-symbol attached to a classical-group label."""
    s = group.series
    n = group.rank
    if s in ("B", "C"):
        if label.kind == "bip":
            return bipartition_to_symbol(label.bip, 1)
        if label.kind == "core" and label.core in ("B2", "B6"):
            return bipartition_to_symbol(label.bip, _CORE_DEFECT[label.core])
    elif s == "D":
        if label.kind in ("bip", "split"):
            return d_canonical_symbol(bipartition_to_symbol(label.bip, 0))
        if label.kind == "core" and label.core == "D4":
            return bipartition_to_symbol(label.bip, 4)
    elif s == "2D":
        if label.kind == "bip":
            return bipartition_to_symbol(label.bip, 2)
        if label.kind == "core" and label.core == "2D9":
            return bipartition_to_symbol(label.bip, 6)
    elif s == "A" or s == "2A":
        if label.kind in ("partition", "bip"):
            return BetaSymbol(beta_set(label.bip.left, len(label.bip.left) or 1), ())
    raise LabelError(f"no symbol for {label} in {group}")


def d_canonical_symbol(sym):
    """Canonical row order for unordered (type D) symbols."""
    if (len(sym.bottom), sym.bottom) < (len(sym.top), sym.top):
        sym = BetaSymbol(sym.bottom, sym.top)
    return sym.reduced()


def d_canonical_bip(bip):
    """Canonical orientation of an unordered bipartition label for type D/2A-free
    use: `bip` itself when it is canonical already, else its swap."""
    a, b = bip.left, bip.right
    return bip.swapped() if (sum(b), b) < (sum(a), a) else bip


# ---------------------------------------------------------------------------
# catalogs

def classical_label_list(group):
    """All unipotent character labels of a classical group, unordered."""
    s, n = group.series, group.rank
    out = []
    if s in ("A", "2A"):
        for lam in partitions(n + 1):
            out.append(UnipLabel("partition", format_partition(lam),
                                 bip=Bipartition(lam, ())))
        return out
    if s in ("B", "C"):
        for bip in bipartitions(n):
            out.append(bip_label(bip))
        if n >= 2:
            for bip in bipartitions(n - 2):
                out.append(core_label("B2", bip))
        if n >= 6:
            for bip in bipartitions(n - 6):
                out.append(core_label("B6", bip))
        return out
    if s == "D":
        seen = set()
        for bip in bipartitions(n):
            if bip.left == bip.right:
                out.append(split_label(bip.left, "+"))
                out.append(split_label(bip.left, "-"))
                continue
            c = d_canonical_bip(bip)
            if c in seen:
                continue
            seen.add(c)
            out.append(bip_label(c))
        if n >= 4:
            for bip in bipartitions(n - 4):
                out.append(core_label("D4", bip))
        return out
    if s == "2D":
        for bip in bipartitions(n - 1):
            out.append(bip_label(bip))
        if n >= 9:
            for bip in bipartitions(n - 9):
                out.append(core_label("2D9", bip))
        return out
    raise UnsupportedGroupError(f"no classical catalog for {group}")


def resolve_label(group, text):
    """Parse + canonicalise a label string against the group's conventions."""
    lab = parse_label(text, group)
    if group.series == "D" and lab.kind == "bip":
        c = d_canonical_bip(lab.bip)
        if c != lab.bip:
            lab = bip_label(c)
    if group.series == "D" and lab.kind == "bip" and lab.bip.left == lab.bip.right:
        raise LabelError(f"degenerate label {text!r} needs a +/- sign")
    return lab
