"""Character values of W(B_n): Murnaghan-Nakayama against a brute-force oracle.

The oracle builds the hyperoctahedral group from signed permutations and
computes induced characters Ind_{B_a x B_b}(chi_lam . chi_mu delta) by the
plain induced-character sum, with hard-coded symmetric group tables.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

from unipdec import weyl
from unipdec.labels import Bipartition, bipartitions
from unipdec.weyl import (SignedClass, char_value_B, char_value_D, class_size,
                          induce, restrict_B, sign_value,
                          signed_classes, w0_class, WeylError)

# symmetric group character tables, values keyed by (irr partition, class partition)
S_TABLES = {
    1: {((1,), (1,)): 1},
    2: {((2,), (1, 1)): 1, ((2,), (2,)): 1,
        ((1, 1), (1, 1)): 1, ((1, 1), (2,)): -1},
    3: {((3,), (1, 1, 1)): 1, ((3,), (2, 1)): 1, ((3,), (3,)): 1,
        ((2, 1), (1, 1, 1)): 2, ((2, 1), (2, 1)): 0, ((2, 1), (3,)): -1,
        ((1, 1, 1), (1, 1, 1)): 1, ((1, 1, 1), (2, 1)): -1, ((1, 1, 1), (3,)): 1},
    4: {((4,), c): 1 for c in [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]},
}
S_TABLES[4].update({
    ((3, 1), (1, 1, 1, 1)): 3, ((3, 1), (2, 1, 1)): 1, ((3, 1), (2, 2)): -1,
    ((3, 1), (3, 1)): 0, ((3, 1), (4,)): -1,
    ((2, 2), (1, 1, 1, 1)): 2, ((2, 2), (2, 1, 1)): 0, ((2, 2), (2, 2)): 2,
    ((2, 2), (3, 1)): -1, ((2, 2), (4,)): 0,
    ((2, 1, 1), (1, 1, 1, 1)): 3, ((2, 1, 1), (2, 1, 1)): -1, ((2, 1, 1), (2, 2)): -1,
    ((2, 1, 1), (3, 1)): 0, ((2, 1, 1), (4,)): 1,
    ((1, 1, 1, 1), (1, 1, 1, 1)): 1, ((1, 1, 1, 1), (2, 1, 1)): -1,
    ((1, 1, 1, 1), (2, 2)): 1, ((1, 1, 1, 1), (3, 1)): 1, ((1, 1, 1, 1), (4,)): -1,
})


def hyperoctahedral(n):
    """All signed permutations (perm tuple, sign tuple)."""
    from itertools import permutations
    out = []
    for perm in permutations(range(n)):
        for signs in product((0, 1), repeat=n):
            out.append((perm, signs))
    return out


def compose(w1, w2):
    p1, e1 = w1
    p2, e2 = w2
    perm = tuple(p1[p2[i]] for i in range(len(p1)))
    signs = tuple((e2[i] + e1[p2[i]]) % 2 for i in range(len(p1)))
    return (perm, signs)


def invert(w):
    p, e = w
    n = len(p)
    ip = [0] * n
    for i, j in enumerate(p):
        ip[j] = i
    signs = tuple(e[ip[i]] for i in range(n))
    return (tuple(ip), signs)


def signed_type(w):
    p, e = w
    n = len(p)
    seen = [False] * n
    pos, neg = [], []
    for i in range(n):
        if seen[i]:
            continue
        j, length, s = i, 0, 0
        while not seen[j]:
            seen[j] = True
            length += 1
            s += e[j]
            j = p[j]
        (pos if s % 2 == 0 else neg).append(length)
    return SignedClass(tuple(sorted(pos, reverse=True)), tuple(sorted(neg, reverse=True)))


def oracle_char(n, bip, w, group):
    """chi^{(lam,mu)}(w) via the induced-character sum over the whole group."""
    a, b = sum(bip.left), sum(bip.right)
    total = Fraction(0)
    for x in group:
        c = compose(compose(x, w), invert(x))
        p, e = c
        # membership in B_a x B_b: the first a points stay in the first block
        if any(p[i] >= a for i in range(a)) or any(p[i] < a for i in range(a, n)):
            continue
        first = (tuple(p[:a]), e[:a])
        second = (tuple(j - a for j in p[a:]), e[a:])
        t1 = signed_type(first)
        t2 = signed_type(second)
        lam1 = tuple(sorted(t1.positive + t1.negative, reverse=True))
        lam2 = tuple(sorted(t2.positive + t2.negative, reverse=True))
        v = 1
        if a:
            v *= S_TABLES[a][(bip.left, lam1)]
        if b:
            v *= S_TABLES[b][(bip.right, lam2)]
            v *= (-1) ** sum(e[a:])  # the sign twist on the second factor
        total += v
    return total / Fraction(2 ** a * math.factorial(a) * 2 ** b * math.factorial(b))


@pytest.mark.parametrize("n", [2, 3])
def test_mn_against_brute_force(n):
    group = hyperoctahedral(n)
    reps = {}
    for w in group:
        reps.setdefault(signed_type(w), w)
    for bip in bipartitions(n):
        for cls, w in reps.items():
            assert char_value_B(n, bip, cls) == oracle_char(n, bip, w, group), (bip, cls)


def test_mn_against_brute_force_spot_n4():
    n = 4
    group = hyperoctahedral(n)
    reps = {}
    for w in group:
        reps.setdefault(signed_type(w), w)
    spots = [Bipartition((3,), (1,)), Bipartition((2, 1), (1,)), Bipartition((), (2, 2))]
    for bip in spots:
        for cls, w in reps.items():
            assert char_value_B(n, bip, cls) == oracle_char(n, bip, w, group)


def test_paper_values_at_w0():
    for n in range(2, 9):
        w0 = w0_class(n)
        assert char_value_B(n, Bipartition((n - 1,), (1,)), w0) == -n
        assert char_value_B(n, Bipartition((), (n,)), w0) == (-1) ** n
        assert char_value_B(n, Bipartition((n - 1, 1), ()), w0) == n - 1


def test_trivial_character():
    for n in (2, 3, 4):
        for cls in signed_classes(n):
            assert char_value_B(n, Bipartition((n,), ()), cls) == 1


def test_column_orthogonality_up_to_4():
    for n in (2, 3, 4):
        chars = bipartitions(n)
        order = 2 ** n * math.factorial(n)
        for c1 in signed_classes(n):
            for c2 in signed_classes(n):
                s = sum(char_value_B(n, ch, c1) * char_value_B(n, ch, c2)
                        for ch in chars)
                want = order // class_size(n, c1) if c1 == c2 else 0
                assert s == want


def test_branching_example():
    for n in (3, 5, 7):
        res = induce([("B", {Bipartition((n - 1,), ()): 1})], n)
        assert res == {Bipartition((n,), ()): 1,
                       Bipartition((n - 1, 1), ()): 1,
                       Bipartition((n - 1,), (1,)): 1}


def test_regular_of_b1():
    res = induce([], 1)
    assert res == {Bipartition((1,), ()): 1, Bipartition((), (1,)): 1}


def test_induce_restrict_adjoint():
    # <Ind(chi x psi), theta> = <chi x psi, Res theta> exhaustively for 2+1 -> 3
    for chi in bipartitions(2):
        for psi in bipartitions(1):
            from unipdec.weyl import mult_B
            ind = mult_B(chi, psi)
            for theta in bipartitions(3):
                lhs = ind.get(theta, 0)
                rhs = restrict_B(theta, 2, 1).get((chi, psi), 0)
                assert lhs == rhs


def test_restrict_reflection_contains_previous():
    n = 5
    res = restrict_B(Bipartition((n - 1,), (1,)), n - 1, 1)
    assert res.get((Bipartition((n - 1,), ()), Bipartition((), (1,)))) == 1


def test_d_values_match_b_on_nonsplit():
    for n in (4, 5):
        for cls in signed_classes(n):
            if len(cls.negative) % 2:
                continue
            bip = Bipartition((n - 1,), (1,))
            assert char_value_D(n, bip, cls) == char_value_B(n, bip, cls)


def test_degenerate_split_class_flagged():
    with pytest.raises(WeylError):
        char_value_D(4, Bipartition((2,), (2,)), SignedClass((2, 2), ()))


def test_degenerate_value_that_does_not_halve_raises(monkeypatch):
    # a degenerate type-D value is half the B_n value; an odd B_n value is
    # an error, also under python -O, rather than silently floored
    bip, cls = Bipartition((2,), (2,)), w0_class(4)
    assert char_value_D(4, bip, cls) * 2 == char_value_B(4, bip, cls)
    monkeypatch.setattr(weyl, "char_value_B", lambda n, chi, c: 3)
    with pytest.raises(WeylError, match=r"odd B_4 value 3 at \(-;1,1,1,1\), "
                                        r"which does not halve"):
        char_value_D(4, bip, cls)


def test_remove_hooks_is_memoised_and_hands_out_tuples():
    weyl._remove_hooks.cache_clear()
    hooks = weyl._remove_hooks((3, 1), 2)
    assert hooks == (((1, 1), 1),)
    assert weyl._remove_hooks((3, 1), 2) is hooks
    assert weyl._remove_hooks((2, 2), 2) == (((2,), 1), ((1, 1), -1))
    assert weyl._remove_hooks((), 1) == ()
    for partition in ((3, 1), (2, 2), (4, 2, 1), (1, 1, 1)):
        for length in (1, 2, 3):
            got = weyl._remove_hooks(partition, length)
            assert isinstance(got, tuple) and all(isinstance(h, tuple) for h in got)
    assert weyl._remove_hooks.cache_info().currsize == 13


def test_sign_value_is_det():
    for n in (2, 3, 4):
        for cls in signed_classes(n):
            assert sign_value(cls) == char_value_B(n, Bipartition((), (1,) * n), cls)


def test_induce_restrict_transpose_n5():
    # induction 3+2 -> 5 against restriction, on a spread of characters
    from unipdec.weyl import mult_B
    import random
    rng = random.Random(5)
    chis = rng.sample(bipartitions(3), 4)
    psis = rng.sample(bipartitions(2), 3)
    for chi in chis:
        for psi in psis:
            ind = mult_B(chi, psi)
            for theta in rng.sample(bipartitions(5), 8):
                assert ind.get(theta, 0) == restrict_B(theta, 3, 2).get((chi, psi), 0)
