import random
from fractions import Fraction

import pytest

from unipdec.cyclo import (DensePoly, FactoredPoly, cyclotomic, factor_dense,
                           format_factored, parse_factored, root_order)


def test_cyclotomic_basics():
    assert cyclotomic(1) == DensePoly([-1, 1])
    assert cyclotomic(6) == DensePoly([1, -1, 1])
    assert cyclotomic(12) == DensePoly([1, 0, -1, 0, 1])


def test_cyclotomic_product_identity():
    # prod over e | n of Phi_e equals q^n - 1, for n up to 60
    for n in range(1, 61):
        prod = DensePoly([1])
        for e in range(1, n + 1):
            if n % e == 0:
                prod = prod * cyclotomic(e)
        assert prod == DensePoly([-1] + [0] * (n - 1) + [1])


def test_root_order_is_the_angle_denominator():
    # w^k for w a primitive 2d-th root of unity sits at the angle k/(2d) of
    # a turn; its order is that angle's denominator
    for d in range(1, 31):
        for k in range(2 * d):
            assert root_order(k, d) == (Fraction(k, 2 * d) % 1).denominator, (k, d)


def test_expand_examples():
    assert parse_factored("1").expand() == DensePoly([1])
    assert parse_factored("q*P4^2").expand() == DensePoly([0, 1, 0, 2, 0, 1])
    p = parse_factored("1/2*q^3*P1^4*P3")
    assert p.evaluate(3) == 2808
    assert p.expand()(3) == 2808  # Horner on the expansion agrees


def test_root_multiplicity():
    assert parse_factored("q^12").root_multiplicity(2) == 0
    assert parse_factored("1/2*q^3*P2^4*P6").root_multiplicity(2) == 4
    assert parse_factored("q*P4^2").root_multiplicity(4) == 2
    assert parse_factored("1/2*q^3*P1^4*P3").root_multiplicity(1) == 4


def test_parse_format_roundtrip():
    for text in ("1", "q", "1/2*q^3*P1^4*P3", "q^12", "-2*q^2*P8", "2"):
        p = parse_factored(text)
        assert parse_factored(format_factored(p)) == p


def _random_factored(rng):
    scalar = Fraction(rng.choice([1, 1, 2, 3, -1]), rng.choice([1, 1, 2]))
    mults = {}
    for _ in range(rng.randint(0, 3)):
        mults[rng.randint(1, 10)] = rng.randint(1, 2)
    mults = {d: m for d, m in mults.items()}
    return FactoredPoly.from_parts(scalar, rng.randint(0, 4), mults)


def test_product_homomorphism_randomized():
    # expand(a*b) = expand(a)*expand(b), 1000 cases
    rng = random.Random(20260808)
    for _ in range(1000):
        a, b = _random_factored(rng), _random_factored(rng)
        assert (a * b).expand() == a.expand() * b.expand()


def test_two_evaluation_paths_agree_randomized():
    rng = random.Random(4242)
    for _ in range(1000):
        a = _random_factored(rng)
        q0 = rng.randint(-5, 7)
        assert a.evaluate(q0) == a.expand()(q0)


def test_factor_dense_rejects_noncyclotomic():
    with pytest.raises(Exception):
        factor_dense(DensePoly([1, 1, 1, 0, 1]))


def test_cyclotomic_coefficients_are_ints():
    for d in range(1, 61):
        assert all(type(c) is int for c in cyclotomic(d).coeffs), d


def test_divmod_by_non_monic_divisor_is_exact():
    # (q^3 + 1) = (2q + 2) * (q^2 - q + 1)/2
    q, r = DensePoly([1, 0, 0, 1]).divmod(DensePoly([2, 2]))
    assert r.is_zero()
    assert q.coeffs == (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2))
    assert all(type(c) is Fraction for c in q.coeffs)
    q, r = DensePoly([1, 1, 1]).divmod(DensePoly([1, 3]))
    assert q * DensePoly([1, 3]) + r == DensePoly([1, 1, 1])
    assert not any(isinstance(c, float) for c in q.coeffs + r.coeffs)
    assert r.coeffs == (Fraction(7, 9),)


def test_expand_with_half_scalar_matches_product_of_factors():
    p = parse_factored("1/2*q^3*P1^2*P2*P4")
    prod = DensePoly([Fraction(1, 2)]) * DensePoly.monomial(3)
    for d in (1, 1, 2, 4):
        prod = prod * cyclotomic(d)
    assert p.expand() == prod
    assert p.expand().coeffs[3] == Fraction(1, 2)
    assert parse_factored("2*q*P3").expand().coeffs == (0, 2, 2, 2)


def test_evaluation_stays_exact():
    p = DensePoly([Fraction(1, 3), 0, 1])
    assert p(Fraction(1, 2)) == Fraction(7, 12)
    assert type(p(3)) is Fraction and p(3) == Fraction(28, 3)
    assert cyclotomic(5)(2) == 31 and type(cyclotomic(5)(2)) is int
