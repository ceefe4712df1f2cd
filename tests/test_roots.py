"""Root systems: the Cartan-matrix construction against an ambient reference.

The reference below is the former construction: every root of the ambient
root system is written in the simple-root basis by rational Gaussian
elimination on the Gram matrix, and the nonnegative integral solutions are
kept.  The Cartan-matrix construction must give the same tuples in the same
simple-root numbering.
"""

from fractions import Fraction
from itertools import product

import pytest

from unipdec.labels import GroupDescriptor, UnsupportedGroupError
from unipdec.roots import _cartan, coxeter_number, positive_roots, regular_height_bound


def _solve(matrix, targets):
    """Solve matrix * x = t over the rationals for every t in `targets`
    (one Gaussian elimination on the matrix augmented by all of them)."""
    n, k = len(matrix), len(targets)
    aug = [[Fraction(matrix[i][j]) for j in range(n)]
           + [Fraction(t[i]) for t in targets] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [x / f for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                g = aug[r][col]
                aug[r] = [a - g * b for a, b in zip(aug[r], aug[col])]
    return [[aug[i][n + t] for i in range(n)] for t in range(k)]


def _e(i, dim, scale=1):
    v = [Fraction(0)] * dim
    v[i] = Fraction(scale)
    return v


def _add(u, v, s=1):
    return [a + s * b for a, b in zip(u, v)]


def _pm_pairs(dim):
    """All +-e_i +- e_j, i < j."""
    return [[s1 * a + s2 * b for a, b in zip(_e(i, dim), _e(j, dim))]
            for i in range(dim) for j in range(i + 1, dim)
            for s1, s2 in product((1, -1), repeat=2)]


def _ambient(series, n):
    """(simple roots, all roots) in ambient coordinates."""
    if series == "A":
        dim = n + 1
        simples = [_add(_e(i, dim), _e(i + 1, dim), -1) for i in range(n)]
        roots = [_add(_e(i, dim), _e(j, dim), -1)
                 for i in range(dim) for j in range(dim) if i != j]
        return simples, roots
    chain = [_add(_e(i, n), _e(i + 1, n), -1) for i in range(n - 1)]
    if series == "B":
        return chain + [_e(n - 1, n)], \
            _pm_pairs(n) + [_e(i, n, s) for i in range(n) for s in (1, -1)]
    if series == "C":
        return chain + [_e(n - 1, n, 2)], \
            _pm_pairs(n) + [_e(i, n, s) for i in range(n) for s in (2, -2)]
    if series == "D":
        return chain + [_add(_e(n - 2, n), _e(n - 1, n))], _pm_pairs(n)
    if series == "F4":
        simples = [_add(_e(1, 4), _e(2, 4), -1), _add(_e(2, 4), _e(3, 4), -1),
                   _e(3, 4), [Fraction(1 if i == 0 else -1, 2) for i in range(4)]]
        roots = _pm_pairs(4) + [_e(i, 4, s) for i in range(4) for s in (1, -1)] \
            + [[Fraction(s, 2) for s in signs] for signs in product((1, -1), repeat=4)]
        return simples, roots
    # E6, E7: inside the E8 lattice, spinor root first
    a1 = [Fraction(1, 2), *([Fraction(-1, 2)] * 6), Fraction(1, 2)]
    simples = [a1, _add(_e(0, 8), _e(1, 8))] + \
        [_add(_e(i + 1, 8), _e(i, 8), -1) for i in range(n - 2)]
    roots = _pm_pairs(8) + [[Fraction(s, 2) for s in signs]
                            for signs in product((1, -1), repeat=8)
                            if signs.count(-1) % 2 == 0]
    return simples, roots


def reference_positive_roots(series, n):
    simples, roots = _ambient(series, n)
    rank, dim = len(simples), len(simples[0])
    gram = [[sum(simples[i][k] * simples[j][k] for k in range(dim)) for j in range(rank)]
            for i in range(rank)]
    rhs = [[sum(simples[i][k] * r[k] for k in range(dim)) for i in range(rank)]
           for r in roots]
    out = set()
    for r, coeffs in zip(roots, _solve(gram, rhs)):
        recon = [sum(coeffs[i] * simples[i][k] for i in range(rank)) for k in range(dim)]
        if recon != r:
            continue
        if all(c >= 0 for c in coeffs) and all(c.denominator == 1 for c in coeffs):
            out.add(tuple(int(c) for c in coeffs))
    return tuple(sorted(out))


GROUPS = ([f"A{n}" for n in range(1, 9)] + ["2A3"]
          + [f"{s}{n}" for s in ("B", "C") for n in range(2, 9)]
          + [f"{s}{n}" for s in ("D", "2D") for n in range(4, 9)]
          + ["E6", "2E6", "E7", "F4"])


@pytest.mark.parametrize("name", GROUPS)
def test_positive_roots_match_ambient_reference(name):
    g = GroupDescriptor.parse(name)
    series = {"2A": "A", "2D": "D", "2E6": "E6"}.get(g.series, g.series)
    assert positive_roots(g) == reference_positive_roots(series, g.rank)


def test_positive_root_counts():
    for n in range(1, 9):
        assert len(positive_roots(GroupDescriptor("A", n))) == n * (n + 1) // 2
    for n in range(2, 9):
        assert len(positive_roots(GroupDescriptor("B", n))) == n * n
        assert len(positive_roots(GroupDescriptor("C", n))) == n * n
    for n in range(4, 9):
        assert len(positive_roots(GroupDescriptor("D", n))) == n * (n - 1)
        assert len(positive_roots(GroupDescriptor("2D", n))) == n * (n - 1)
    for name, want in (("E6", 36), ("2E6", 36), ("E7", 63), ("F4", 24)):
        assert len(positive_roots(GroupDescriptor.parse(name))) == want


def test_e8_root_system():
    g = GroupDescriptor.parse("E8")
    roots = positive_roots(g)
    assert len(roots) == 120
    assert max(roots, key=sum) == (2, 3, 4, 6, 5, 4, 3, 2)
    assert coxeter_number(g) == 30
    assert regular_height_bound(g, ()) == 30


def test_highest_roots_in_bourbaki_numbering():
    for name, want in (("B4", (1, 2, 2, 2)), ("C4", (2, 2, 2, 1)),
                       ("D5", (1, 2, 2, 1, 1)), ("F4", (2, 3, 4, 2)),
                       ("E6", (1, 2, 2, 3, 2, 1)), ("E7", (2, 2, 3, 4, 3, 2, 1))):
        assert max(positive_roots(GroupDescriptor.parse(name)), key=sum) == want


def test_unknown_series_raises():
    with pytest.raises(UnsupportedGroupError):
        _cartan("G2", 2)
