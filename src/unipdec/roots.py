"""Root systems in simple-root coordinates, for height computations.

Each root system is its Cartan matrix, and the positive roots are built from
it in integers, one height at a time, by the root-string rule: if p is the
largest k with beta - k*alpha_j a root, then beta + alpha_j is a root exactly
when p - <beta, alpha_j^vee> > 0.  Heights and projections onto subsets of
simple roots are then plain coordinate sums.  Covers the classical types and
E6, E7, E8, F4; a twisted group uses the root system of its untwisted form.

Simple roots are numbered as in Bourbaki: the B/C/D chains end at the short,
the long and the forked node respectively, and E6-E8 start with the spinor
root alpha_1, with alpha_2 attached to alpha_4.
"""

from __future__ import annotations

from functools import lru_cache

from .labels import UnsupportedGroupError

_UNTWISTED = {"2A": "A", "2D": "D", "2E6": "E6"}


def _cartan(series, n):
    """Cartan matrix C[i][j] = <alpha_i, alpha_j^vee> (0-based Bourbaki numbering)."""
    edges = [(i, i + 1) for i in range(n - 1)]
    short = ()
    if series == "B":
        short = (n - 1,)
    elif series == "C":
        short = tuple(range(n - 1))
    elif series == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + ([(n - 3, n - 1)] if n >= 3 else [])
    elif series == "F4":
        short = (2, 3)
    elif series in ("E6", "E7", "E8"):
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    elif series != "A":
        raise UnsupportedGroupError(f"no root system for series {series}")
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        cartan[i][j] = cartan[j][i] = -1
        if (i in short) != (j in short):  # double bond: the long root sees -2
            long_, short_ = (j, i) if i in short else (i, j)
            cartan[long_][short_] = -2
    return cartan


@lru_cache(maxsize=None)
def positive_roots(group):
    """Positive roots as integer coefficient vectors in the simple-root basis."""
    cartan = _cartan(_UNTWISTED.get(group.series, group.series), group.rank)
    n = len(cartan)
    layer = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(layer)
    while layer:
        above = []
        for beta in layer:
            for j in range(n):
                p = 0
                down = list(beta)
                down[j] -= 1
                while tuple(down) in roots:
                    p += 1
                    down[j] -= 1
                if p > sum(c * row[j] for c, row in zip(beta, cartan)):
                    up = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
                    if up not in roots:
                        roots.add(up)
                        above.append(up)
        layer = above
    return tuple(sorted(roots))


def height(root):
    return sum(root)


def coxeter_number(group):
    return 1 + max(height(r) for r in positive_roots(group))


def regular_height_bound(group, removed):
    """1 + max height of the projection killing the simple roots in `removed`.

    `removed` holds 0-based indices of the simple roots spanning the Levi;
    the projection keeps the coordinates of the complementary simple roots.
    """
    roots = positive_roots(group)
    rank = len(roots[0])
    keep = [i for i in range(rank) if i not in set(removed)]
    best = 0
    for r in roots:
        best = max(best, sum(r[i] for i in keep))
    return 1 + best
