import pathlib
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from unipdec import blocks, tables
from unipdec.blocks import (BlockError, BrauerTree, block_partition, load_trees,
                            parse_tree_line, symbol_core, tree_check)
from unipdec.cyclo import DensePoly, FactoredPoly, cyclotomic, euler_phi
from unipdec.degrees import catalog, defect, find_char, group_order_poly
from unipdec.labels import (BetaSymbol, GroupDescriptor, LabelError, UnsupportedGroupError,
                            beta_to_partition)
from unipdec.verify import ParamBox, corpus_tables, corpus_trees, tree_reports

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


def test_load_trees_is_memoised_on_text_group_and_d():
    # the same frozen trees on every call with one key; another d is
    # another key, and a bad line raises again on every call
    text = (DATA / "d3" / "D4.trees").read_text()
    g = GroupDescriptor.parse("D4")
    trees = load_trees(text, g, 3)
    assert type(trees) is tuple and trees
    again = load_trees(text, g, 3)
    assert again is trees and all(a is b for a, b in zip(again, trees))
    assert load_trees(text, g, 6) is not trees
    bad = text + "zz -- O -- .4\n"
    for _ in range(2):
        with pytest.raises(blocks.BlockError, match="bad partition 'zz'"):
            load_trees(bad, g, 3)


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


def _shifted_sum(degrees, signs, d=1):
    """The balanced digits of the signed sum of the degrees as `blocks._packed`
    gives them at d: the coefficients of L * S(q + 2), S = sum(sign * degree)."""
    bits, values = blocks._packed(degrees, d)
    return blocks._balanced_digits(sum(s * v for s, v in zip(signs, values)), bits)


def assert_shifted_sum_matches_dense(degrees, signs, d=1):
    scale = lcm(*(deg.scalar.denominator for deg in degrees))
    shifted = _dense_shift(_dense_signed_sum(degrees, signs))
    assert _shifted_sum(degrees, signs, d) == tuple(scale * c for c in shifted.coeffs)


def test_positivity_reads_the_leading_coefficient_of_top_degree_only():
    # -q^8 + 2q^7 + 1000q^5 is positive at q0 = 2, 3, 5, 7 but has leading
    # coefficient -1; summing the scalars of A-value >= top - 1 would read +1
    degrees = [FactoredPoly(Fraction(1), 8), FactoredPoly(Fraction(2), 7),
               FactoredPoly(Fraction(1000), 5)]
    signs = [-1, 1, 1]
    dense = _dense_signed_sum(degrees, signs)
    assert [dense(q0) for q0 in (2, 3, 5, 7)] == [32000, 240813, 2890625, 12689285]
    shifted = _shifted_sum(degrees, signs)
    assert shifted[-1] == dense.coeffs[-1] == -1 and shifted[0] == dense(2) > 0
    assert_shifted_sum_matches_dense(degrees, signs)


def _sample_tree_with_shifted_sum(monkeypatch, shifted):
    """The first corpus tree, with `_sum_digits` giving `shifted` as the
    digits of its alternating sum."""
    _, tree = next(corpus_trees())
    assert tree_check(tree).status == "pass"
    monkeypatch.setattr(blocks, "_sum_digits", lambda value, bits: shifted)
    return tree


def test_sum_positive_at_sampled_points_is_not_proved_positive(monkeypatch):
    # S = 4q^2 - 32q + 63 is positive at q0 = 2, 3, 5, 7 (15, 3, 3, 35), and
    # has a positive leading coefficient, yet S(4) = -1
    degrees = [FactoredPoly(Fraction(4), 2), FactoredPoly(Fraction(32), 1),
               FactoredPoly(Fraction(63), 0)]
    signs = [1, -1, 1]
    dense = _dense_signed_sum(degrees, signs)
    assert [dense(q0) for q0 in (2, 3, 4, 5, 7)] == [15, 3, -1, 3, 35]
    shifted = _shifted_sum(degrees, signs)
    assert shifted == (15, -16, 4)
    tree = _sample_tree_with_shifted_sum(monkeypatch, shifted)
    rep = tree_check(tree)
    assert (rep.status, rep.evidence) == (
        "warn", "alternating sum not proved positive for q >= 2")


def test_block_failure_outranks_unproved_positivity(monkeypatch):
    # a classical tree is split through its block key: one key per vertex
    tree = _sample_tree_with_shifted_sum(monkeypatch, (15, -16, 4))
    assert blocks._block_key(tree.group, tree.d) is not None
    monkeypatch.setattr(blocks, "_block_key", lambda group, d: lambda c: c.label.text)
    rep = tree_check(tree)
    assert (rep.status, rep.evidence) == ("fail", "characters span several blocks")


def test_exceptional_block_failure_goes_through_the_block_key(monkeypatch):
    # an E6 tree is keyed like a classical one, by the index of its shipped block
    tree = parse_tree_line(GroupDescriptor.parse("E6"), 2, "phi{64,4} -- O -- phi{64,13}")
    key = blocks._block_key(tree.group, tree.d)
    assert key(tree.chars[0]) == key(tree.chars[2]) and tree_check(tree).status == "pass"
    monkeypatch.setattr(blocks, "_block_key", lambda group, d: lambda c: c.label.text)
    rep = tree_check(tree)
    assert (rep.status, rep.evidence) == ("fail", "characters span several blocks")


def test_exceptional_tree_without_shipped_blocks_leaves_iii_undecided(monkeypatch):
    # no shipped blocks at d: the key is None, and (iii) cannot fail
    tree = parse_tree_line(GroupDescriptor.parse("E6"), 2, "phi{64,4} -- O -- phi{64,13}")
    monkeypatch.setattr(blocks, "_block_key", lambda group, d: None)
    assert tree_check(tree).status == "pass"
    with pytest.raises(UnsupportedGroupError, match="no shipped block data for E6 at d=2"):
        blocks.block_partition.__wrapped__(tree.group, tree.d)


def test_block_check_matches_block_partition_on_two_vertex_trees():
    # a -- O -- b has no edge between ordinary characters and the positive
    # sum deg a + deg b, so with a and b of defect 1 only (iii) can fail.
    # For every (group, d) of the corpus trees, plus two of GL_n with two
    # defect-1 blocks, a and b are the first labels of two defect-1 blocks,
    # or the first two of one block; a third tree takes b from the largest
    # block of another defect, so that (i) fails.
    pairs = sorted({(t.group, t.d) for _, t in corpus_trees()}, key=lambda p: (str(p[0]), p[1]))
    assert len(pairs) == 53
    pairs += [(GroupDescriptor("A", 4), 3), (GroupDescriptor("A", 6), 4)]
    verdicts = Counter()
    for g, d in pairs:
        part = block_partition(g, d).blocks
        ones = [sorted(b) for b, dft in part if dft == 1]
        other = next(sorted(b) for b, dft in part if dft != 1)
        chains = [(ones[0][0], None, ones[0][1]), (ones[0][0], None, other[0])]
        if len(ones) > 1:
            chains.append((ones[0][0], None, ones[1][0]))
        for chain in chains:
            tree = BrauerTree(g, d, chain)
            rep = tree_check(tree)
            assert (rep.status, rep.evidence) == _dense_tree_check(tree), (str(g), d, chain)
            verdicts[rep.evidence.split("defect ")[-1]] += 1
    assert verdicts == {"": 55, "characters span several blocks": 28,
                        "0, not 1": 44, "2, not 1": 8, "3, not 1": 1, "4, not 1": 1,
                        "5, not 1": 1}


def test_verify_builds_no_block_partition(monkeypatch):
    # every tree, classical or exceptional, keys its own vertices; no
    # whole-group partition is built
    calls = Counter()
    whole = blocks.block_partition

    def counted(group, d):
        calls[group.series] += 1
        return whole(group, d)
    monkeypatch.setattr(blocks, "block_partition", counted)
    statuses = Counter(rep.status for _, rep in tree_reports())
    assert statuses == {"pass": 124}
    assert calls == {}


def test_block_key_is_built_once_per_group_and_d():
    blocks._block_key.cache_clear()
    first = {(t.group, t.d): blocks._block_key(t.group, t.d) for _, t in corpus_trees()}
    for _ in range(2):
        assert Counter(rep.status for _, rep in tree_reports()) == {"pass": 124}
    assert all(blocks._block_key(g, d) is key for (g, d), key in first.items())
    assert len(first) == 53 and blocks._block_key.cache_info().misses == 53


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_group_without_a_blocks_file_has_no_block_key(name):
    # once a FileNotFoundError: no blocks are shipped for E7 or E8, which is
    # the same as no shipped blocks at d, while block_partition still needs
    # the catalog that neither ships
    group = GroupDescriptor.parse(name)
    assert blocks._exceptional_blocks(group) == {}
    assert all(blocks._block_key(group, d) is None for d in (1, 2, 6))
    with pytest.raises(UnsupportedGroupError, match=f"no (shipped catalog for )?{name}"):
        block_partition(group, 2)


def _shipped_blocks_with(monkeypatch, group, d, edit):
    """`_block_key(group, d)` with the shipped blocks of `group` at d
    replaced by `edit(blocks)`, a list of label sets."""
    shipped = blocks._exceptional_blocks(group)
    patched = {**shipped, d: edit([set(b) for b in shipped[d]])}
    monkeypatch.setattr(blocks, "_exceptional_blocks", lambda g: patched)
    return blocks._block_key.__wrapped__(group, d)  # past the memo


def test_shipped_label_outside_the_catalog_is_a_block_error(monkeypatch):
    e6 = GroupDescriptor.parse("E6")
    with pytest.raises(BlockError, match=r"shipped block of E6 at d=3: phi\{7,7\} is not in "
                                         r"the catalog"):
        _shipped_blocks_with(monkeypatch, e6, 3, lambda bs: bs[:1] + [bs[1] | {"phi{7,7}"}])


def test_shipped_label_in_two_blocks_is_a_block_error(monkeypatch):
    f4 = GroupDescriptor.parse("F4")
    # the shipped data keys each of its labels to its one block
    key = blocks._block_key(f4, 2)
    assert key(find_char(f4, "phi{4,1}")) == 1 and key(find_char(f4, "phi{1,0}")) == 0
    with pytest.raises(BlockError, match=r"shipped block of F4 at d=2: phi\{4,1\} is in two "
                                         r"blocks"):
        _shipped_blocks_with(monkeypatch, f4, 2, lambda bs: [bs[0] | {"phi{4,1}"}, bs[1]])


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
        # any d only widens the digits
        assert_shifted_sum_matches_dense(degrees, signs, d=1 + len(signs) * 7 % 30)


def _random_degree(rng, d, M):
    """A degree with Phi_d-multiplicity M - 1, a fractional scalar, a
    q-power up to 3d and up to three other factors Phi_e, e <= 40."""
    mults = {e: rng.randint(1, 2) for e in rng.sample(range(1, 41), rng.randint(0, 3))}
    return FactoredPoly.from_parts(Fraction(rng.choice((-5, -3, -1, 1, 2, 7)),
                                            rng.choice((1, 2, 3, 4, 6))),
                                   rng.randint(0, 3 * d), {**mults, d: M - 1})


@pytest.mark.parametrize("d", [*range(2, 31), 105])
def test_monic_residue_is_remainder_mod_cyclotomic(d):
    # tree_check's edge test on packed ints: Phi_d(x)^M divides the sum of
    # the packed degrees iff dense division of the degree sum by Phi_d^M
    # leaves no remainder.  The sums are random; or the two monic parts
    # agree mod Phi_d (q-powers d apart) and the scalars cancel, or miss
    # cancelling by 1/6, so the remainder mod Phi_d is zero or has small
    # coefficients.  Each time the remainder R of the monic parts, weighted
    # as in `_packed`, keeps within the bound H of the proof, and x >= 2H + 2.
    # d = 105 is the first d with c_d > 1 (`_power_bound`).
    rng = random.Random(d)
    phi = cyclotomic(d)
    verdicts = Counter()
    for n in range(24 if d <= 30 else 9):
        M = rng.randint(1, 3)
        du = _random_degree(rng, d, M)
        if n % 3 == 0:
            dv = _random_degree(rng, d, M)
        else:
            scalar = -du.scalar + Fraction(n % 3 - 1, 6)
            if not scalar:
                continue
            rest = {e: m for e, m in du.cyclo_mults if e != d}
            dv = FactoredPoly.from_parts(scalar, (du.q_exp + d * rng.randint(0, 2)) % (4 * d),
                                         {**rest, d: M - 1})
        total = du.expand() + dv.expand()
        phi_m = DensePoly([1])
        for _ in range(M):
            phi_m = phi_m * phi
        expect = total.divmod(phi_m)[1].is_zero()
        bits, (pu, pv) = blocks._packed([du, dv], d)
        x = (1 << bits) + 2
        assert ((pu + pv) % phi(x) ** M == 0) == expect, (du, dv)
        verdicts[expect] += 1
        # the bound of tree_check's proof
        scale = lcm(du.scalar.denominator, dv.scalar.denominator)
        monic, rem = (total * scale).divmod(phi_m // phi)
        assert rem.is_zero()
        R = monic.divmod(phi)[1]
        H = blocks._power_bound(d) * scale * (abs(du.evaluate(3)) + abs(dv.evaluate(3)))
        assert all(abs(c) <= H for c in R.coeffs) and x >= 2 * H + 2 and x >= 2 * euler_phi(d)
        assert R.is_zero() == expect
    assert verdicts[True] and verdicts[False]


def test_power_bound_is_largest_coefficient_of_reduced_q_powers():
    # c_d by shifting q^k mod Phi_d one step at a time; it is 1 below d = 105
    for d in [*range(1, 31), 105]:
        phi = cyclotomic(d).coeffs
        r, best = [1] + [0] * (len(phi) - 2), 1
        for _ in range(d - 1):
            top, r = r[-1], [0] + r[:-1]
            r = [a - top * c for a, c in zip(r, phi)]
            best = max(best, *map(abs, r))
        assert blocks._power_bound(d) == best == (2 if d == 105 else 1), d


@pytest.mark.parametrize("bits", (2, 3, 5, 8, 64))
def test_mask_test_agrees_with_balanced_digit_decoding(bits):
    # `_sum_digits` skips decoding exactly when the balanced digits are all
    # >= 0 and the lowest is > 0, and otherwise decodes them all
    rng = random.Random(bits)
    half = 1 << (bits - 1)
    cases = [(), (0,), (1,), (half - 1,), (0, 1), (1, 0, 0, 1), (1, -1), (-1, 1),
             (half - 1, 0, half - 1), (1, 0, -1, half - 1), (1, 0, 0, 0, half - 1)]
    for _ in range(200):
        digits = [rng.randint(0, half - 1) for _ in range(rng.randint(1, 9))]
        kind = rng.randrange(5)
        if kind == 0:
            digits[0] = 0  # lowest digit 0
        elif kind == 1:
            digits[1:-1] = [0] * len(digits[1:-1])  # zero middle digits
        elif kind == 2:
            digits[rng.randrange(len(digits))] = half - 1
        elif kind == 3:
            digits[rng.randrange(len(digits))] = -rng.randint(1, half - 1)  # one negative
        else:
            digits = [rng.randint(-half + 1, half - 1) for _ in digits]
        cases.append(tuple(digits))
    proved = Counter()
    for digits in cases:
        while digits and not digits[-1]:
            digits = digits[:-1]
        value = sum(t << (bits * k) for k, t in enumerate(digits))
        full = blocks._balanced_digits(value, bits)
        assert full == digits
        fast = blocks._sum_digits(value, bits)
        positive = bool(full) and min(full) >= 0 and full[0] > 0
        assert (fast is None) == positive, digits
        if fast is not None:
            assert fast == full
        proved[positive] += 1
    assert proved[True] > 20 and proved[False] > 20


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
