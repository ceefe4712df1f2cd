"""Workload inputs, made from the seed alone.

This module imports nothing from the program, so the harness can make the
inputs without loading unipdec; only the child process that runs a pass
does that.  `corpus-verify` and `table-checks` run over the whole shipped
corpus and ignore the seed; `library-checks` draws its calls from the seed,
with a fixed number of draws of each kind so that every seed asks for about
the same amount of work.
"""

from __future__ import annotations

import random

WORKLOADS = ("corpus-verify", "table-checks", "library-checks")

# Levi tables shipped under data/levi/ and the corpus tables they are a Levi
# of.  A3 -> D4 is the known gap: it raises HCError today and is kept so the
# gap stays visible (see hc.known_gap.raised).
HC_TARGETS = {
    "A1.d2.dmx": ("d2/D4.all.dmx", "d2/D5.principal.dmx", "d2/D6.principal.dmx",
                  "d2/D6.phi2sq.dmx", "d2/B4.principal.dmx", "d2/B4.phi2sq.dmx",
                  "d2/B4.symbolic.dmx", "d2/2D4.principal.dmx",
                  "d2/2D5.principal.dmx", "d2/2D6.principal.dmx"),
    "A2.d2.dmx": ("d2/D4.all.dmx", "d2/D5.principal.dmx", "d2/D6.principal.dmx",
                  "d2/D6.phi2sq.dmx", "d2/B4.principal.dmx", "d2/B4.phi2sq.dmx",
                  "d2/B4.symbolic.dmx", "d2/2D4.principal.dmx",
                  "d2/2D5.principal.dmx", "d2/2D6.principal.dmx"),
    "A3.d2.dmx": ("d2/D4.all.dmx", "d2/D5.principal.dmx", "d2/D6.principal.dmx",
                  "d2/D6.phi2sq.dmx", "d2/B4.principal.dmx", "d2/B4.phi2sq.dmx",
                  "d2/B4.symbolic.dmx", "d2/2D5.principal.dmx",
                  "d2/2D6.principal.dmx"),
    "D3.d2.dmx": ("d2/D4.all.dmx", "d2/D5.principal.dmx", "d2/D6.principal.dmx",
                  "d2/D6.phi2sq.dmx"),
}
KNOWN_HC_GAP = ("A3.d2.dmx", "d2/D4.all.dmx")

# Hecke algebras of type B whose simple-module count has a closed form at
# every rank: Q = 1 with branch 1 gives bipartitions, Q = -1 gives partitions.
HECKE_CLOSED = (("1", "1"), ("-1", "1"))
# Rows of the acceptance tables (criterion 07) that need the Fock-space
# crystal: (rank, Q, branch, d, count).
HECKE_ROWS = (
    (2, "1", "-1", 2, 2), (3, "1", "-1", 2, 4), (4, "1", "-1", 2, 6),
    (5, "1", "-1", 2, 8), (6, "1", "-1", 2, 12), (2, "-1", "-1", 2, 2),
    (3, "-1", "-1", 2, 3), (4, "-1", "-1", 2, 4), (5, "-1", "-1", 2, 6),
    (6, "-1", "-1", 2, 9), (3, "q^2", "q", 2, 4), (4, "q^2", "q", 2, 6),
    (3, "q", "q^2", 2, 3), (3, "q", "q", 2, 3), (2, "q^4", "q", 6, 4),
    (3, "q^4", "q", 6, 8), (2, "q^2", "q", 6, 4), (2, "q", "q", 6, 5),
    (3, "q^3", "q", 6, 5), (3, "1", "q", 6, 10), (4, "1", "q", 6, 18),
    (3, "q", "q", 6, 9), (4, "q", "q", 6, 18), (5, "q", "q", 6, 30),
    (4, "q^3", "q", 6, 10),
)
ROOT_GROUPS = ("D4", "D5", "D6", "D7", "D8", "B8", "C8", "F4", "E6", "E7")

# How many calls of each kind one library-checks pass draws.  The tier-1
# tests are the only traffic of these functions in the repository today, so
# each count is the number of calls the tests make to that function directly
# (counted by wrapping it during a run of the tier-1 suite at the commit that
# defined this benchmark), divided by TEST_SCALE and rounded, at least 1.
TESTS_DIRECT_CALLS = {
    "dl_multiplicity": 3449,          # criterion 09 and test_fourier
    "count_simples": 152,             # criterion 07 and test_hecke
    "echelonize": 4006,               # criteria 10 and 12, and test_verify
    "check_backsub_roundtrip": 2000,  # criterion 12 and test_verify
    "ParamExpr arithmetic": 34,       # +, - and * in test_tables and two others
    "regular_height_bound": 3,        # test_verify
}
TEST_SCALE = 10
# 23 of the tests' 152 count_simples calls are closed-form cases
# (Q = +-1, branch 1); the rest are rows of the Hecke tables
HECKE_CLOSED_SHARE = 23 / 152
# closed-form ranks go to twice the largest rank the tests check (6), so
# that the cost of the crystal at larger rank is part of the pass
HECKE_MAX_RANK = 12
# ParamExpr operator calls in one poly_identity op, echelonize calls in one
# echelon_idempotent op
PARAMEXPR_CALLS_PER_OP = 15
ECHELONIZE_CALLS_PER_OP = 2


def draws(kind, calls_per_op=1):
    """Ops of one kind per pass: the tests' direct calls / TEST_SCALE."""
    return max(1, round(TESTS_DIRECT_CALLS[kind] / TEST_SCALE / calls_per_op))


def make_inputs(workload, seed):
    """The inputs of one workload: a JSON-serialisable dict."""
    if workload == "corpus-verify":
        return {"argv": ["--format", "tsv", "verify"]}
    if workload == "table-checks":
        return {}
    if workload == "library-checks":
        return {"ops": library_ops(random.Random(seed))}
    raise ValueError(f"unknown workload {workload!r}")


def _partition(rng, n):
    """A random partition of n."""
    parts = []
    while n:
        k = rng.randint(1, n)
        parts.append(k)
        n -= k
    return sorted(parts, reverse=True)


def _signed_class(rng, n, even_negative):
    """(positive cycles, negative cycles) of a signed permutation of rank n."""
    while True:
        k = rng.randint(0, n)
        pos, neg = _partition(rng, k), _partition(rng, n - k)
        if not even_negative:
            return pos, neg
        # W(D_n) elements only; split classes (no negative cycles, all
        # positive cycles even) are skipped: unipdec.weyl does not give the
        # values of the degenerate characters there
        if len(neg) % 2 == 0 and (neg or any(p % 2 for p in pos)):
            return pos, neg


def _affine(rng):
    """Random integer-affine expression in x, y, z, as (monomial, coeff) terms."""
    terms = [[[], rng.randint(-5, 5)]]
    for name in rng.sample(["x", "y", "z"], rng.randint(1, 3)):
        terms.append([[name], rng.choice([-3, -2, -1, 1, 2, 3])])
    return terms


def library_ops(rng):
    """A seeded draw of library calls that `unipdec verify` never makes.

    A fixed part covers every HC pair, the narratives of criteria 10 and 11,
    a DL vector per rank and the Coxeter number of every group in
    ROOT_GROUPS; the drawn part has the sizes given by `draws`.
    """
    ops = []
    for levi, targets in HC_TARGETS.items():
        for target in targets:
            ops.append({"op": "hc_induce", "levi": levi, "target": target})
    ops.append({"op": "hc_narrative"})
    ops.append({"op": "dl_constraints"})
    ops.append({"op": "echelon_e6"})
    for n in range(2, 9):  # w0 of B_n
        ops.append({"op": "dl_vector", "series": "B", "rank": n,
                    "pos": [], "neg": [1] * n})
    for n in range(4, 9):  # a Coxeter element of D_n
        ops.append({"op": "dl_vector", "series": "D", "rank": n,
                    "pos": [], "neg": [n - 1, 1]})
    for group in ROOT_GROUPS:
        ops.append({"op": "coxeter", "group": group})

    # the draws cycle through the groups, so that every seed asks for the
    # same ranks; the seed picks the classes and the characters
    groups = [("B", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
    for i in range(draws("dl_multiplicity")):
        series, n = groups[i % len(groups)]
        pos, neg = _signed_class(rng, n, even_negative=series == "D")
        ops.append({"op": "dl_multiplicity", "series": series, "rank": n,
                    "pos": pos, "neg": neg, "char": rng.choice(("trivial", "steinberg"))})
    hecke_draws = draws("count_simples")
    closed = round(hecke_draws * HECKE_CLOSED_SHARE)
    for _ in range(closed):
        b1, branch = rng.choice(HECKE_CLOSED)
        ops.append({"op": "hecke", "rank": rng.randint(1, HECKE_MAX_RANK), "b1": b1,
                    "branch": branch, "d": rng.choice((2, 6)), "want": None})
    for rank, b1, branch, d, want in rng.sample(HECKE_ROWS, hecke_draws - closed):
        ops.append({"op": "hecke", "rank": rank, "b1": b1, "branch": branch,
                    "d": d, "want": want})
    for _ in range(draws("regular_height_bound")):
        group = rng.choice(ROOT_GROUPS)
        n = int(group[1:])
        removed = sorted(rng.sample(range(n), rng.randint(0, n)))
        ops.append({"op": "height_bound", "group": group, "removed": removed})
    for _ in range(draws("echelonize", ECHELONIZE_CALLS_PER_OP)):
        ops.append({"op": "echelon_idempotent",
                    "columns": [rng.randrange(14) for _ in range(3)]})
    for _ in range(draws("check_backsub_roundtrip")):
        rows = rng.sample(range(20), 6)
        ops.append({"op": "backsub", "vector": [[i, rng.randint(0, 5)] for i in rows]})
    for _ in range(draws("ParamExpr arithmetic", PARAMEXPR_CALLS_PER_OP)):
        ops.append({"op": "poly_identity",
                    "a": _affine(rng), "b": _affine(rng), "c": _affine(rng)})
    rng.shuffle(ops)
    return ops
