import pathlib
import random
from fractions import Fraction
from math import lcm

import pytest

from unipdec import blocks, tables
from unipdec.blocks import (BlockPartition, BrauerTree, block_partition, load_trees,
                            parse_tree_line, symbol_core, tree_check)
from unipdec.cyclo import DensePoly, FactoredPoly, cyclotomic, euler_phi
from unipdec.degrees import catalog, defect, find_char, group_order_poly
from unipdec.labels import (BetaSymbol, GroupDescriptor, LabelError, UnsupportedGroupError,
                            beta_to_partition)
from unipdec.verify import ParamBox, corpus_tables, corpus_trees

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "unipdec" / "data"


def test_block_sizes_d4_b4():
    p = block_partition(GroupDescriptor.parse("D4"), 2)
    assert p.sizes() == [13, 1]
    singleton = [b for b, dft in p.blocks if len(b) == 1][0]
    assert singleton == frozenset({"1.21"})
    assert dict(p.blocks)[singleton] == 0 or p.block_of("1.21")[1] == 0

    p = block_partition(GroupDescriptor.parse("B4"), 2)
    assert p.sizes() == [20, 5]
    five = [b for b, dft in p.blocks if len(b) == 5][0]
    assert p.block_of(next(iter(five)))[1] == 2


def test_block_sizes_2e6():
    p = block_partition(GroupDescriptor.parse("2E6"), 2)
    assert p.sizes() == [25, 3, 1, 1]
    # the two singletons are the cuspidal characters, of defect 0
    singles = [b for b, dft in p.blocks if len(b) == 1]
    labels = sorted(next(iter(b)) for b in singles)
    assert labels == ["2E6[th]", "2E6[th^2]"]
    assert all(dft == 0 for b, dft in p.blocks if len(b) == 1)


def test_block_sizes_e6_d2_with_tree_block():
    p = block_partition(GroupDescriptor.parse("E6"), 2)
    assert p.sizes() == [25, 2, 1, 1, 1]
    pair = [b for b, dft in p.blocks if len(b) == 2][0]
    assert pair == frozenset({"phi{64,4}", "phi{64,13}"})  # the printed Brauer tree


def test_every_block_constant_defect():
    for name, d in (("D6", 2), ("D6", 3), ("D6", 6), ("B6", 3), ("B6", 6),
                    ("2D7", 3), ("2D7", 6), ("B4", 2)):
        g = GroupDescriptor.parse(name)
        p = block_partition(g, d)
        for labels, dft in p.blocks:
            assert {defect(find_char(g, l), d) for l in labels} == {dft}


def test_positive_defect_blocks_match_tree_vertex_sets():
    # at d where Phi_d divides the order once, positive-defect blocks equal trees
    g = GroupDescriptor.parse("D7")
    p = block_partition(g, 5)
    tree_sets = []
    for t in load_trees((DATA / "d5" / "D7.trees").read_text(), g, 5):
        tree_sets.append(frozenset(str(find_char(g, lab).label) for lab in t.characters()))
    block_sets = [b for b, dft in p.blocks if dft >= 1]
    assert sorted(map(sorted, tree_sets)) == sorted(map(sorted, block_sets))


def test_d3_example_tree():
    g = GroupDescriptor.parse("D3")
    t = parse_tree_line(g, 3, ".3|ps -- .21|ps -- .1^3|A2 -- O")
    assert tree_check(t).status == "pass"
    bad = parse_tree_line(g, 3, ".3 -- .1^3 -- .21 -- O")
    rep = tree_check(bad)
    assert rep.status == "fail" and "divisible" in rep.evidence


def test_a_tree_holds_its_characters_and_tree_check_looks_up_none(monkeypatch):
    # every vertex is resolved once, when the tree is built, in any spelling
    g = GroupDescriptor.parse("D3")
    t = parse_tree_line(g, 3, "3.|ps -- .21|ps -- .111|A2 -- O")
    assert t.chars == tuple(find_char(g, lab) for lab in (".3", ".21", ".1^3")) + (None,)
    with pytest.raises(LabelError, match="bad partition 'zz'"):
        BrauerTree(g, 3, ("zz", None))
    with pytest.raises(UnsupportedGroupError, match="no E7 catalog"):
        BrauerTree(GroupDescriptor.parse("E7"), 2, ("phi{1,0}", None))

    def no_lookup(group, text):
        raise AssertionError(f"tree_check looked up {text!r}")
    monkeypatch.setattr(blocks, "find_char", no_lookup)
    assert tree_check(t).status == "pass"


def test_whole_tree_corpus_passes():
    total = 0
    for dd in sorted(DATA.glob("d*")):
        d = int(dd.name[1:])
        for f in sorted(dd.glob("*.trees")):
            g = GroupDescriptor.parse(f.stem)
            for t in load_trees(f.read_text(), g, d):
                total += 1
                rep = tree_check(t)
                assert rep.status == "pass", (f.name, t.chain, rep.evidence)
    assert total >= 60  # "all 60+ shipped trees"
    for d in (3, 5, 6, 7, 8, 10, 12, 14):
        assert any((DATA / f"d{d}").glob("*.trees"))


def test_cohook_core_mixes_defects():
    # even d uses cohooks, which place a defect-4 symbol in a defect-0 block
    from unipdec.labels import label_symbol
    g = GroupDescriptor.parse("D6")
    c1 = symbol_core(label_symbol(g, find_char(g, ".42").label), 6)
    c2 = symbol_core(label_symbol(g, find_char(g, "D4:2.").label), 6)
    assert c1 == c2


# ---------------------------------------------------------------------------
# differential test: tree_check against the dense check it replaced

def _dense_tree_check(tree):
    """(status, evidence) of tree_check computed on fully expanded degrees."""
    group, d, chain = tree.group, tree.d, tree.chain
    M = group_order_poly(group).root_multiplicity(d)
    phi = cyclotomic(d)
    cm = {lab: find_char(group, lab) for lab in tree.characters()}
    for lab in tree.characters():
        if defect(cm[lab], d) != 1:
            return "fail", f"{lab} has Phi_{d}-defect {defect(cm[lab], d)}, not 1"

    def divisible(p, k):
        for _ in range(k):
            p, r = p.divmod(phi)
            if not r.is_zero():
                return False
        return True

    for u, v in zip(chain, chain[1:]):
        if u is not None and v is not None and not divisible(
                cm[u].degree.expand() + cm[v].degree.expand(), M):
            return "fail", f"edge {u} -- {v}: degree sum not divisible by P{d}^{M}"
    alt = DensePoly()
    for i, lab in enumerate(chain):
        if lab is not None:
            term = cm[lab].degree.expand()
            alt = alt + (term if i % 2 == 0 else -term)
    exc = alt if chain.index(None) % 2 == 1 else -alt
    if exc.is_zero():
        return "fail", "alternating degree sum vanishes"
    if not divisible(exc, M - 1):
        return "fail", f"alternating sum not divisible by P{d}^{M - 1}"
    shifted = _dense_shift(exc).coeffs
    if shifted[-1] < 0 or shifted[0] <= 0:
        return "fail", "alternating sum is not a positive multiple of a degree"
    try:
        canon = [str(cm[lab].label) for lab in tree.characters()]
        first, _ = block_partition(group, d).block_of(canon[0])
        if any(lab not in first for lab in canon):
            return "fail", "characters span several blocks"
    except UnsupportedGroupError:
        pass
    if min(shifted) < 0:
        return "warn", "alternating sum not proved positive for q >= 2"
    return "pass", ""


def _dense_shift(poly):
    """poly(q + 2), by Horner's rule on dense polynomials."""
    out = DensePoly()
    for c in reversed(poly.coeffs):
        out = out * DensePoly([2, 1]) + DensePoly([c])
    return out


def _tree_variants(tree):
    """The tree with O moved to every position, with each adjacent pair
    swapped, and with each ordinary vertex dropped."""
    chars = tree.characters()
    chains = {tuple(chars[:p]) + (None,) + tuple(chars[p:]) for p in range(len(chars) + 1)}
    for i in range(len(tree.chain) - 1):
        c = list(tree.chain)
        c[i], c[i + 1] = c[i + 1], c[i]
        chains.add(tuple(c))
    for lab in chars:
        chains.add(tuple(v for v in tree.chain if v != lab))
    return [BrauerTree(tree.group, tree.d, c) for c in sorted(chains, key=str)]


def test_tree_check_matches_dense_check_on_variants():
    # Every 4th corpus tree keeps the test near 1 s.  Over all 124 trees the
    # 1514 moved/swapped variants agree (192 passes, 1284 edge failures, 38
    # failures of the positivity test), and so do the 809 vertex drops (445
    # passes, 364 edge failures).  Every dropped leaf still passes, since
    # tree_check does not yet ask that a tree cover its whole block, so only
    # agreement is asserted.
    trees = [t for _, t in corpus_trees()][::4]
    verdicts = set()
    for v in (v for t in trees for v in _tree_variants(t)):
        rep = tree_check(v)
        assert (rep.status, rep.evidence) == _dense_tree_check(v), v.chain
        verdicts.add(rep.evidence.split(" ")[0] if rep.evidence else "pass")
    # the sample reaches passes, edge failures and failures of the positivity test
    assert {"pass", "edge", "alternating"} <= verdicts
    lone = parse_tree_line(trees[0].group, trees[0].d, "O")
    rep = tree_check(lone)
    assert (rep.status, rep.evidence) == _dense_tree_check(lone) == (
        "fail", "alternating degree sum vanishes")


def test_tree_check_when_top_scalars_cancel():
    # O moved to the middle of the B4 tree at d = 6: the two degrees of top
    # degree cancel in the alternating sum, so its leading coefficient is
    # not a signed sum of scalars
    tree = parse_tree_line(GroupDescriptor.parse("B4"), 6,
                           "4. -- 2.2 -- 1.21 -- .21^2 -- O -- B2:1^2. -- B2:.1^2")
    degrees = [find_char(tree.group, lab).degree for lab in tree.characters()]
    signs = [-1, 1, -1, 1, 1, -1]  # the alternating sum's signs, O at position 4
    top = max(deg.A_value() for deg in degrees)
    assert sum(s * deg.scalar for deg, s in zip(degrees, signs) if deg.A_value() == top) == 0
    rep = tree_check(tree)
    assert (rep.status, rep.evidence) == _dense_tree_check(tree) == ("pass", "")


def _dense_signed_sum(degrees, signs):
    total = DensePoly()
    for deg, s in zip(degrees, signs):
        total = total + (deg.expand() if s > 0 else -deg.expand())
    return total


def assert_shifted_sum_matches_dense(degrees, signs):
    scale = lcm(*(deg.scalar.denominator for deg in degrees))
    shifted = _dense_shift(_dense_signed_sum(degrees, signs))
    assert blocks._shifted_sum(degrees, signs) == tuple(scale * c for c in shifted.coeffs)


def test_positivity_reads_the_leading_coefficient_of_top_degree_only():
    # -q^8 + 2q^7 + 1000q^5 is positive at q0 = 2, 3, 5, 7 but has leading
    # coefficient -1; summing the scalars of A-value >= top - 1 would read +1
    degrees = [FactoredPoly(Fraction(1), 8), FactoredPoly(Fraction(2), 7),
               FactoredPoly(Fraction(1000), 5)]
    signs = [-1, 1, 1]
    dense = _dense_signed_sum(degrees, signs)
    assert [dense(q0) for q0 in (2, 3, 5, 7)] == [32000, 240813, 2890625, 12689285]
    shifted = blocks._shifted_sum(degrees, signs)
    assert shifted[-1] == dense.coeffs[-1] == -1 and shifted[0] == dense(2) > 0
    assert_shifted_sum_matches_dense(degrees, signs)


def _sample_tree_with_shifted_sum(monkeypatch, shifted):
    """The first corpus tree, with `_shifted_sum` giving `shifted`."""
    _, tree = next(corpus_trees())
    assert tree_check(tree).status == "pass"
    monkeypatch.setattr(blocks, "_shifted_sum", lambda degrees, signs: shifted)
    return tree


def test_sum_positive_at_sampled_points_is_not_proved_positive(monkeypatch):
    # S = 4q^2 - 32q + 63 is positive at q0 = 2, 3, 5, 7 (15, 3, 3, 35), and
    # has a positive leading coefficient, yet S(4) = -1
    degrees = [FactoredPoly(Fraction(4), 2), FactoredPoly(Fraction(32), 1),
               FactoredPoly(Fraction(63), 0)]
    signs = [1, -1, 1]
    dense = _dense_signed_sum(degrees, signs)
    assert [dense(q0) for q0 in (2, 3, 4, 5, 7)] == [15, 3, -1, 3, 35]
    shifted = blocks._shifted_sum(degrees, signs)
    assert shifted == (15, -16, 4)
    tree = _sample_tree_with_shifted_sum(monkeypatch, shifted)
    rep = tree_check(tree)
    assert (rep.status, rep.evidence) == (
        "warn", "alternating sum not proved positive for q >= 2")


def test_block_failure_outranks_unproved_positivity(monkeypatch):
    tree = _sample_tree_with_shifted_sum(monkeypatch, (15, -16, 4))
    labels = [str(find_char(tree.group, lab).label) for lab in tree.characters()]
    split = BlockPartition(tree.group, tree.d,
                           tuple((frozenset([lab]), 1) for lab in labels))
    monkeypatch.setattr(blocks, "block_partition", lambda group, d: split)
    rep = tree_check(tree)
    assert (rep.status, rep.evidence) == ("fail", "characters span several blocks")


@pytest.mark.parametrize("shifted", [(-1, 3, 4), (15, -16, -4), (0, 1)])
def test_sum_nonpositive_at_2_or_at_large_q_fails(monkeypatch, shifted):
    tree = _sample_tree_with_shifted_sum(monkeypatch, shifted)
    rep = tree_check(tree)
    assert (rep.status, rep.evidence) == (
        "fail", "alternating sum is not a positive multiple of a degree")


def test_shifted_sum_matches_dense_shift_on_random_degrees():
    rng = random.Random(8)
    for _ in range(300):
        degrees = []
        for _ in range(rng.randint(1, 4)):
            mults = {e: rng.randint(1, 2) for e in rng.sample(range(1, 9), rng.randint(0, 3))}
            degrees.append(FactoredPoly.from_parts(
                Fraction(rng.choice((-3, -1, 1, 2, 3, 1000)), rng.choice((1, 2, 3))),
                rng.randint(0, 8), mults))
        # a repeated degree of opposite sign makes the top scalars cancel
        if rng.random() < 0.3:
            degrees.append(degrees[0])
            signs = [1] + [rng.choice((-1, 1)) for _ in degrees[1:-1]] + [-1]
        else:
            signs = [rng.choice((-1, 1)) for _ in degrees]
        assert_shifted_sum_matches_dense(degrees, signs)


@pytest.mark.parametrize("d", range(2, 15))
def test_monic_residue_is_remainder_mod_cyclotomic(d):
    # the residue of the monic part, Phi_d removed, times the scalar is the
    # remainder of the expanded degree, Phi_d removed, on division by Phi_d
    rng = random.Random(d)
    phi = cyclotomic(d)
    for _ in range(25):
        mults = {e: rng.randint(1, 3) for e in rng.sample(range(1, 17), rng.randint(0, 4))}
        poly = FactoredPoly.from_parts(Fraction(rng.choice((-3, 1, 2)), rng.choice((1, 2, 6))),
                                       rng.randint(0, 30), mults)
        mults.pop(d, None)
        rest = FactoredPoly.from_parts(poly.scalar, poly.q_exp, mults)
        _, rem = rest.expand().divmod(phi)
        residue = blocks._monic_residue(poly.q_exp, poly.cyclo_mults, d)
        assert len(residue) == euler_phi(d)
        assert DensePoly([poly.scalar * c for c in residue]) == rem, poly


# ---------------------------------------------------------------------------
# differential test: runner-count cores against the hook removal they
# replaced, kept verbatim (renamed with a _ref prefix) as the reference

def _ref_remove_hook(rows, d):
    """One d-hook removal inside a single row, if any; None when the row is a core."""
    for which in (0, 1):
        row = set(rows[which])
        for b in sorted(row):
            if b - d >= 0 and (b - d) not in row:
                new = tuple(sorted(row - {b} | {b - d}))
                out = list(rows)
                out[which] = new
                return tuple(out)
    return None


def _ref_remove_cohook(rows, d):
    """One d-cohook removal (moves a bead to the other row), if any."""
    top, bottom = set(rows[0]), set(rows[1])
    for b in sorted(top):
        if b - d >= 0 and (b - d) not in bottom:
            return (tuple(sorted(top - {b})), tuple(sorted(bottom | {b - d})))
    for b in sorted(bottom):
        if b - d >= 0 and (b - d) not in top:
            return (tuple(sorted(top | {b - d})), tuple(sorted(bottom - {b})))
    return None


def _ref_symbol_core(sym, d):
    """The d-core of a symbol: d-hooks for odd d, (d/2)-cohooks for even d."""
    rows = (sym.top, sym.bottom)
    if d % 2:
        step = lambda r: _ref_remove_hook(r, d)
    else:
        step = lambda r: _ref_remove_cohook(r, d // 2)
    while True:
        nxt = step(rows)
        if nxt is None:
            break
        rows = nxt
    core = BetaSymbol(rows[0], rows[1]).reduced()
    # unordered for comparison purposes
    a, b = sorted((core.top, core.bottom), key=lambda r: (len(r), r))
    return (tuple(a), tuple(b))


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("series", [("B", "C"), ("D",), ("2D",)], ids=["BC", "D", "2D"])
def test_symbol_core_matches_hook_removal(series, n):
    # B and C share their symbols, so each symbol is compared once
    symbols = {c.symbol for s in series for c in catalog(GroupDescriptor(s, n))}
    for d in range(1, 4 * n + 3):
        for sym in symbols:
            assert symbol_core(sym, d) == _ref_symbol_core(sym, d), (series, n, d, sym)


def _ref_partition_core(beta, e):
    """e-hooks removed one at a time from a one-row symbol, then normalised."""
    rows = (tuple(beta), ())
    while (nxt := _ref_remove_hook(rows, e)) is not None:
        rows = nxt
    return beta_to_partition(rows[0])


def test_partition_core_matches_hook_removal():
    for n in range(1, 10):
        for c in catalog(GroupDescriptor("A", n)):
            for e in range(1, 2 * n + 5):
                assert blocks.partition_core(c.symbol.top, e) == \
                    _ref_partition_core(c.symbol.top, e), (str(c), e)


# ---------------------------------------------------------------------------
# type A and 2A: blocks by e-cores of partitions (Fong-Srinivasan)

def test_type_a_blocks_have_constant_defect():
    count = 0
    for series, ranks in (("A", range(1, 9)), ("2A", range(2, 9))):
        for n in ranks:
            g = GroupDescriptor(series, n)
            for d in range(1, 2 * n + 5):
                p = block_partition(g, d)  # raises BlockError on a mixed defect
                for labels, dft in p.blocks:
                    assert {defect(find_char(g, l), d) for l in labels} == {dft}
                assert sum(len(b) for b, _ in p.blocks) == len(catalog(g))
                count += len(p.blocks)
    assert count == 2256


def test_gl2_at_d2_is_one_block():
    p = block_partition(GroupDescriptor("A", 1), 2)
    assert p.blocks == ((frozenset({"2", "1^2"}), 1),)


def test_a3_at_d4_partition():
    # the 4-core of every partition of 4 but (2,2) is empty
    p = block_partition(GroupDescriptor("A", 3), 4)
    assert p.sizes() == [4, 1]
    assert p.block_of("2^2") == (frozenset({"2^2"}), 0)


@pytest.mark.parametrize("d, e", [(1, 2), (2, 1), (3, 6), (4, 4), (6, 3), (8, 8)])
def test_unitary_blocks_are_linear_blocks_at_the_order_of_minus_q(d, e):
    # 2A_n at d has the e-core blocks of A_n, e the order of -q mod Phi_d
    for n in (2, 3, 4, 5):
        unitary = block_partition(GroupDescriptor("2A", n), d)
        linear = block_partition(GroupDescriptor("A", n), e)
        assert sorted(map(sorted, (b for b, _ in unitary.blocks))) == \
            sorted(map(sorted, (b for b, _ in linear.blocks)))


def _gl_weight_one_trees(n):
    """The Brauer trees of the weight-1 Phi_d-blocks of A_n, d = 2..n+1: the
    d characters with a d-core of size n + 1 - d, ordered by the leg length
    of their one removable d-hook, then the exceptional vertex
    (Fong-Srinivasan, "Brauer trees in classical groups", 1990)."""
    g = GroupDescriptor("A", n)
    for d in range(2, n + 2):
        blocks_by_core = {}
        for c in catalog(g):
            beta = c.symbol.top
            core = _ref_partition_core(beta, d)
            if sum(core) != n + 1 - d:
                continue
            [b] = [b for b in beta if b >= d and b - d not in beta]
            leg = sum(1 for x in beta if b - d < x < b)
            blocks_by_core.setdefault(core, []).append((leg, str(c.label)))
        for members in blocks_by_core.values():
            assert sorted(leg for leg, _ in members) == list(range(d))
            yield BrauerTree(g, d, tuple(lab for _, lab in sorted(members)) + (None,))


def test_gl_weight_one_trees_pass():
    trees = [t for n in range(1, 9) for t in _gl_weight_one_trees(n)]
    assert len(trees) == 50
    for t in trees:
        rep = tree_check(t)
        assert rep.status == "pass", (str(t.group), t.d, t.chain, rep.evidence)


def test_no_shipped_column_crosses_blocks():
    # a projective indecomposable lies in one block: every entry of a column
    # outside the block of its leader vanishes on the whole parameter box
    checked = 0
    for f in sorted(DATA.glob("d*/*.dmx")) + sorted(DATA.glob("levi/*.dmx")):
        t = tables.parse(f.read_text())
        if t.chars is None:
            continue  # no catalog, so no block partition (d6/E8.phi6sq.dmx)
        labels = [str(c.label) for c in t.chars]
        partition = block_partition(t.group, t.d)
        box = ParamBox(t)
        for j, col in enumerate(t.columns):
            block, _ = partition.block_of(labels[j])
            for i, e in col.entries.items():
                assert labels[i] in block or box.provably_zero(e), (
                    f.name, labels[i], labels[j], str(e))
        checked += 1
    assert checked == 29


def test_blocks_tsv_matches_golden_output():
    # tests/data/blocks.tsv is block_partition for every (group, d) pair of
    # the corpus tables and trees, under a "# <group> d=<d>" line: one
    # "defect<TAB>labels" line per block in block_partition order, the labels
    # sorted and space-joined.  E8 at d = 6 is left out, as E8 has no
    # catalog.  Like degrees.tsv it pins the present output, not values
    # known to be true.
    golden = (pathlib.Path(__file__).parent / "data" / "blocks.tsv").read_text()
    pairs = {(t.group, t.d) for _, t in corpus_tables(str(DATA))}
    pairs |= {(t.group, t.d) for _, t in corpus_trees(str(DATA))}
    e8 = GroupDescriptor.parse("E8")
    assert {(g, d) for g, d in pairs if g == e8} == {(e8, 6)}
    with pytest.raises(UnsupportedGroupError):
        block_partition(e8, 6)
    pairs = sorted(((g, d) for g, d in pairs if g != e8), key=lambda p: (str(p[0]), p[1]))
    assert len(pairs) == 64
    got = "".join(f"# {g} d={d}\n" + "".join(f"{dft}\t{' '.join(sorted(labels))}\n"
                                             for labels, dft in block_partition(g, d).blocks)
                  for g, d in pairs)
    for want, have in zip(golden.split("# ")[1:], got.split("# ")[1:]):
        assert have == want, want.split("\n", 1)[0]  # the first pair that differs
    assert got == golden
