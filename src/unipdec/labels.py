"""Combinatorial labels for unipotent characters and per-group catalogs.

Classical-group characters are labelled by bipartitions / beta-symbols,
possibly prefixed with a cuspidal core ("B2:", "B6:", "D4:", "2D9:").
`HC_SERIES` is the one table of each classical series' ordinary
Harish-Chandra series: its symbol defect D and cuspidal core, of rank
D*D // 4, so that in rank n a series is labelled by the bipartitions of
n - D*D // 4.  Degenerate type-D labels come in +/- pairs ("3+", "3-").
Exceptional-group labels are names loaded from the shipped catalog files
("phi{20,10}", "E6[z3]", ...).

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
from dataclasses import KW_ONLY, InitVar, dataclass
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
    """The exponent spelling of a partition: (2, 1, 1) -> '21^2', () -> ''.

    A pure function of the parts, memoised per tuple (a list or any other
    iterable is made a tuple first), since catalog builds and label texts
    spell the same few partitions over and over.
    """
    return _format_partition(parts if type(parts) is tuple else tuple(parts))


@lru_cache(maxsize=None)
def _format_partition(parts):
    if not parts:
        return ""
    out = []
    i = 0
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
    """Beta-set of given length: increasing parts + index shift, as a tuple.

    Memoised per (partition tuple, length) (a list or any other iterable is
    made a tuple first), since catalog builds ask for the same few beta-sets
    over and over; a length shorter than the partition raises LabelError.
    """
    return _beta_set(partition if type(partition) is tuple else tuple(partition), length)


@lru_cache(maxsize=None)
def _beta_set(partition, length):
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
    _: KW_ONLY
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        # `checked=True` takes rows already known to be strictly increasing
        # tuples of nonnegative ints as they are (a shift of a checked
        # symbol).  A strictly increasing row is nonnegative iff its first
        # entry is, and strictly increasing iff it equals its sorted set
        if checked:
            return
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


#: The ordinary Harish-Chandra series of each classical series, as (symbol
#: defect D, cuspidal core or None for the principal series), defects
#: increasing.  By Lusztig's classification a core of defect D is cuspidal
#: in rank D*D // 4, so a series of defect D is labelled in rank n by the
#: bipartitions of n - D*D // 4.  The next core's defect is the next step
#: of the same size (2 for B/C, 4 for D/2D); a rank that reaches it is
#: refused (`classical_label_list`), not extended, since a part above 9
#: has no spelling in a table file (`parse_partition`).
HC_SERIES = {
    "B": ((1, None), (3, "B2"), (5, "B6")),
    "C": ((1, None), (3, "B2"), (5, "B6")),
    "D": ((0, None), (4, "D4")),
    "2D": ((2, None), (6, "2D9")),
}
#: (series, core or None) -> symbol defect, read off HC_SERIES
_DEFECT = {(s, core): defect for s, series in HC_SERIES.items() for defect, core in series}
_CORES = frozenset(core for _, core in _DEFECT if core)


def parse_label(text, group=None):
    """Parse a label string into a frozen UnipLabel; `group` only
    disambiguates named exceptional labels.

    A classical label's text is canonical (as `bip_label`, `split_label`,
    `core_label` and `format_partition` spell it).  Not memoised: its one
    caller, `resolve_label`, is reached through `degrees.find_char`, which
    memoises the same (group, text) key.
    """
    text = text.strip()
    if not text:
        raise LabelError("empty label")
    if group is not None and group.series in FIXED_RANK:
        return UnipLabel("named", text)
    core, colon, rest = text.partition(":")
    if core in _CORES:
        if colon and "." not in rest:
            raise LabelError(f"core label needs a bipartition: {text!r}")
        return core_label(core, Bipartition.parse(rest) if colon else Bipartition((), ()))
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
    """The reduced beta-symbol attached to a classical-group label: a
    label of the series of defect D (`HC_SERIES`) has its bipartition put
    on a symbol of defect D, unordered in type D's principal series."""
    s = group.series
    if s in ("A", "2A"):
        if label.kind in ("partition", "bip"):
            return BetaSymbol(beta_set(label.bip.left, len(label.bip.left) or 1), ())
    elif label.kind in ("bip", "core") or (label.kind, s) == ("split", "D"):
        defect = _DEFECT.get((s, label.core))
        if defect == 0:
            return d_canonical_symbol(bipartition_to_symbol(label.bip, 0))
        if defect is not None:
            return bipartition_to_symbol(label.bip, defect)
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
    """All unipotent character labels of a classical group, unordered: a
    series of defect D in `HC_SERIES` gives one label per bipartition of
    n - D*D // 4, type D's principal series one per unordered pair and a
    +/- pair per degenerate one.  A rank that reaches a cuspidal series
    the table does not hold raises UnsupportedGroupError."""
    s, n = group.series, group.rank
    if s in ("A", "2A"):
        return [UnipLabel("partition", format_partition(lam), bip=Bipartition(lam, ()))
                for lam in partitions(n + 1)]
    if s not in HC_SERIES:
        raise UnsupportedGroupError(f"no classical catalog for {group}")
    series = HC_SERIES[s]
    missing = 2 * series[-1][0] - series[-2][0]
    if n >= missing * missing // 4:
        raise UnsupportedGroupError(
            f"{group} has a cuspidal series of defect {missing} that labels.HC_SERIES "
            f"does not hold")
    out = []
    for defect, core in series:
        if n < defect * defect // 4:
            break
        for bip in bipartitions(n - defect * defect // 4):
            if core:
                out.append(core_label(core, bip))
            elif s != "D":
                out.append(bip_label(bip))
            elif bip.left == bip.right:
                out += (split_label(bip.left, "+"), split_label(bip.left, "-"))
            elif bip == d_canonical_bip(bip):
                out.append(bip_label(bip))
    return out


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
