"""Exact polynomial arithmetic in q.

Character degrees are stored in two interchangeable shapes:

* ``DensePoly`` -- a plain coefficient vector over the rationals,
* ``FactoredPoly`` -- scalar * q**k * product of cyclotomic polynomials
  ``P<d>^<m>``, which is how the degree tables print them.

Everything here is exact: a coefficient is an ``int`` or a
``fractions.Fraction``, never a float.  Integral coefficients are stored as
``int``, so the monic products of cyclotomics that make up almost every
expansion never allocate a ``Fraction``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache


class CycloError(ValueError):
    pass


# ---------------------------------------------------------------------------
# dense polynomials


def _exact(c):
    """c as an int when it is integral, else as a Fraction."""
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class DensePoly:
    """Polynomial in q as a tuple of rational coefficients, lowest degree first.

    A coefficient is an int when it is integral and a Fraction otherwise.
    The zero polynomial is the empty tuple; otherwise the trailing
    coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, power, coeff=1):
        return cls([0] * power + [coeff])

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        if self.is_zero():
            raise CycloError("degree of zero polynomial")
        return len(self.coeffs) - 1

    def valuation(self):
        """Order of vanishing at q = 0."""
        if self.is_zero():
            raise CycloError("valuation of zero polynomial")
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        raise AssertionError

    def __eq__(self, other):
        return isinstance(other, DensePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DensePoly(out)

    def __neg__(self):
        return DensePoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _exact(other)
            return DensePoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return DensePoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs, i):
                out[k] += a * b
        return DensePoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if other.is_zero():
            raise CycloError("division by zero polynomial")
        rem = list(self.coeffs)
        d = other.degree()
        lead = other.coeffs[-1]
        quot = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] if lead == 1 else Fraction(rem[i]) / lead
            quot[i - d] = f
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] -= f * c
        return DensePoly(quot), DensePoly(rem)

    def __floordiv__(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise CycloError("inexact polynomial division")
        return q

    def __call__(self, q0):
        """Evaluate at q0 by Horner's rule, exactly."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "DensePoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*q" if c != 1 else "q")
            else:
                terms.append(f"{c}*q^{i}" if c != 1 else f"q^{i}")
        return "DensePoly(" + " + ".join(terms) + ")"


ONE = DensePoly([1])


@lru_cache(maxsize=None)
def cyclotomic(d):
    """The d-th cyclotomic polynomial, as a DensePoly with integer coefficients."""
    if d < 1:
        raise CycloError(f"cyclotomic index must be positive, got {d}")
    # (q^d - 1) divided by the product of Phi_e over proper divisors e of d
    num = DensePoly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num = num // cyclotomic(e)
    return num


@lru_cache(maxsize=None)
def euler_phi(d):
    """The degree of Phi_d; memoised per d."""
    return cyclotomic(d).degree()


# ---------------------------------------------------------------------------
# factored polynomials


def _is_canonical(mults):
    """True if `mults` is a tuple of int pairs (d, m), d strictly increasing
    from d >= 1 and m >= 1: the stored form of FactoredPoly.cyclo_mults."""
    if type(mults) is not tuple:
        return False
    prev = 0
    for pair in mults:
        if type(pair) is not tuple or len(pair) != 2:
            return False
        d, m = pair
        if type(d) is not int or type(m) is not int or d <= prev or m < 1:
            return False
        prev = d
    return True


@lru_cache(maxsize=None)
def _monic_expansion(q_exp, cyclo_mults):
    """q^q_exp * prod Phi_d^m expanded in integers; memoised per factor data."""
    acc = ONE
    for d, m in cyclo_mults:
        p = cyclotomic(d)
        for _ in range(m):
            acc = acc * p
    return DensePoly((0,) * q_exp + acc.coeffs)


@dataclass(frozen=True)
class FactoredPoly:
    """scalar * q**q_exp * prod over d of Phi_d**mult, scalar a nonzero rational.

    Canonical form: `scalar` is a nonzero Fraction and `cyclo_mults` a tuple
    of int pairs (d, m) with d strictly increasing from d >= 1 and every
    m >= 1.  Every construction passes through `__post_init__`.  Input that
    is already canonical is accepted after one linear scan (the fast path
    that products, quotients and `from_parts` take); anything else (a dict,
    unsorted or repeated pairs, zero multiplicities, non-int entries) is
    merged through a dict, sorted and checked, and a factor with d < 1 or
    m < 0 raises CycloError.
    """

    scalar: Fraction = Fraction(1)
    q_exp: int = 0
    cyclo_mults: tuple = ()  # sorted tuple of (d, mult), mult >= 1

    def __post_init__(self):
        if self.scalar == 0:
            raise CycloError("FactoredPoly scalar must be nonzero")
        if type(self.scalar) is not Fraction:
            object.__setattr__(self, "scalar", Fraction(self.scalar))
        if _is_canonical(self.cyclo_mults):
            return
        mults = tuple(sorted((int(d), int(m)) for d, m in dict(self.cyclo_mults).items()
                             if m != 0))
        for d, m in mults:
            if d < 1 or m < 0:
                raise CycloError(f"bad cyclotomic factor P{d}^{m}")
        object.__setattr__(self, "cyclo_mults", mults)

    @classmethod
    def one(cls):
        return cls(Fraction(1), 0, ())

    @classmethod
    def from_parts(cls, scalar, q_exp, mults):
        """From a dict {d: m}; zero multiplicities are dropped."""
        return cls(scalar, q_exp, tuple(sorted((d, m) for d, m in mults.items() if m)))

    def mults(self):
        return dict(self.cyclo_mults)

    def root_multiplicity(self, e):
        """Multiplicity of a primitive e-th root of unity as a root; e = 1 gives m(1, .)."""
        for d, m in self.cyclo_mults:
            if d >= e:
                return m if d == e else 0
        return 0

    def a_value(self):
        """Valuation at q = 0 (only the q-power contributes)."""
        return self.q_exp

    def A_value(self):
        """Degree of the expanded polynomial."""
        return self._degree

    @cached_property
    def _degree(self):
        return self.q_exp + sum(m * euler_phi(d) for d, m in self.cyclo_mults)

    def expand(self):
        """Dense form: the memoised monic q^k * prod Phi_e^m, scaled once."""
        acc = _monic_expansion(self.q_exp, self.cyclo_mults)
        return acc if self.scalar == 1 else acc * self.scalar

    def evaluate(self, q0):
        acc = self.scalar * Fraction(q0) ** self.q_exp
        for d, m in self.cyclo_mults:
            acc *= cyclotomic(d)(q0) ** m
        return acc

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FactoredPoly(self.scalar * other, self.q_exp, self.cyclo_mults)
        return FactoredPoly(self.scalar * other.scalar, self.q_exp + other.q_exp,
                            _merge(self.cyclo_mults, other.cyclo_mults, 1))

    __rmul__ = __mul__

    def divide(self, other):
        """Exact quotient in factored form; raises if a factor would go negative."""
        mults = _merge(self.cyclo_mults, other.cyclo_mults, -1)
        if self.q_exp < other.q_exp:
            raise CycloError("q-power does not divide")
        return FactoredPoly(self.scalar / other.scalar, self.q_exp - other.q_exp, mults)

    def __str__(self):
        return format_factored(self)

    def __repr__(self):
        return f"FactoredPoly({format_factored(self)!r})"


def _merge(a, b, sign):
    """Canonical factor data of a * b (sign 1) or a / b (sign -1), for
    canonical a and b; a quotient raises at the first Phi_d of b that a
    does not hold often enough."""
    out = []
    i, j, la, lb = 0, 0, len(a), len(b)
    while j < lb:
        d, m = b[j]
        while i < la and a[i][0] < d:
            out.append(a[i])
            i += 1
        have = a[i][1] if i < la and a[i][0] == d else 0
        if have:
            i += 1
        k = have + sign * m
        if k < 0:
            raise CycloError(f"P{d} does not divide")
        if k:
            out.append((d, k))
        j += 1
    out.extend(a[i:])
    return tuple(out)


def factor_dense(p):
    """Write p as scalar * q^k * prod Phi_d^m by trial division.

    Raises CycloError when a non-cyclotomic factor remains; all degree
    polynomials handled here are products of cyclotomics times a q-power.
    """
    if p.is_zero():
        raise CycloError("cannot factor the zero polynomial")
    k = p.valuation()
    if k:
        p = p // DensePoly.monomial(k)
    mults = {}
    bound = 2 * p.degree() + 1 if p.degree() else 1
    for d in range(1, bound + 1):
        phi = cyclotomic(d)
        if phi.degree() > p.degree():
            continue
        while True:
            q, r = p.divmod(phi)
            if r.is_zero():
                p = q
                mults[d] = mults.get(d, 0) + 1
            else:
                break
    if p.degree() != 0:
        raise CycloError(f"non-cyclotomic remainder {p!r}")
    return FactoredPoly.from_parts(p.coeffs[0], k, mults)


def normalize(p):
    """Canonical factored form: re-factor through the dense expansion."""
    return factor_dense(p.expand())


# ---------------------------------------------------------------------------
# text format, e.g.  1/2*q^3*P1^4*P3

_FACTOR_RE = re.compile(
    r"^(?:(?P<num>-?\d+)(?:/(?P<den>\d+))?|q(?:\^(?P<qe>\d+))?|P(?P<d>\d+)(?:\^(?P<m>\d+))?)$"
)


def parse_factored(text):
    """Parse the table syntax for factored polynomials.

    Factors are joined by ``*``: an optional rational prefix ``a/b``,
    a q-power ``q^k`` (or plain ``q``), and cyclotomic factors ``P<d>^<m>``.
    """
    text = text.strip()
    if not text:
        raise CycloError("empty polynomial")
    scalar = Fraction(1)
    q_exp = 0
    mults = {}
    for part in text.split("*"):
        part = part.strip()
        m = _FACTOR_RE.match(part)
        if not m:
            raise CycloError(f"bad factor {part!r} in {text!r}")
        if m.group("num") is not None:
            scalar *= Fraction(int(m.group("num")), int(m.group("den") or 1))
        elif part.startswith("q"):
            q_exp += int(m.group("qe") or 1)
        else:
            d = int(m.group("d"))
            mults[d] = mults.get(d, 0) + int(m.group("m") or 1)
    return FactoredPoly.from_parts(scalar, q_exp, mults)


def format_factored(p):
    parts = []
    if p.scalar != 1 or (p.q_exp == 0 and not p.cyclo_mults):
        parts.append(str(p.scalar))
    if p.q_exp == 1:
        parts.append("q")
    elif p.q_exp > 1:
        parts.append(f"q^{p.q_exp}")
    for d, m in p.cyclo_mults:
        parts.append(f"P{d}" if m == 1 else f"P{d}^{m}")
    return "*".join(parts)
