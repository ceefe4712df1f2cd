import dataclasses
import math
import pathlib
import random
from collections import Counter

import pytest

from unipdec import blocks, degrees, tables, verify
from unipdec.degrees import (A_value, a_value, find_char, group_order_poly, perversity,
                             perversity_numerator)
from unipdec.hc import table_column_vector
from unipdec.labels import GroupDescriptor
from unipdec.roots import coxeter_number, regular_height_bound
from unipdec.tables import ParamExpr
from unipdec.weyl import coxeter_class

from test_tables import SYNTHETIC, _random_synthetic, with_param_entries

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "unipdec" / "data"


def load(rel):
    return tables.parse((DATA / rel).read_text())


def test_unitriangular_passes_on_corpus():
    for sub in ("d2", "d3", "d6"):
        for f in sorted((DATA / sub).glob("*.dmx")):
            rep = verify.check_unitriangular(tables.parse(f.read_text()))
            assert rep.status != "fail", (f.name, rep.evidence)


def test_unitriangular_rejects_perturbation():
    text = (DATA / "d2" / "D4.all.dmx").read_text()
    bad = text.replace("series=ps : 1.3=1 2+=1", "series=ps : .4=1 1.3=1 2+=1")
    assert bad != text
    with pytest.raises(tables.TableError):
        tables.parse(bad)  # an entry above the diagonal is rejected outright


def test_unitriangular_detects_monotonicity_failure():
    # craft a table whose below-diagonal entry violates the a-value order
    text = """[table]
group = D4
d = 2
degrees = none
[chars]
2+
.31
[cols]
series=ps : 2+=1 .31=1
series=ps : .31=1
"""
    rep = verify.check_unitriangular(tables.parse(text))
    assert rep.status == "fail"  # a(.31) = a(2+), not strictly larger


def test_craven_trivially_passes_on_identity():
    text = """[table]
group = D4
d = 2
degrees = none
[chars]
.4
1.3
[cols]
series=ps : .4=1
series=ps : 1.3=1
"""
    rep = verify.check_craven(tables.parse(text))
    assert rep.status == "pass" and rep.data["forced"] == []


def test_craven_violation_detected():
    text = """[table]
group = D4
d = 2
degrees = none
[chars]
2+
.31
[cols]
series=ps : 2+=1 .31=3
series=ps : .31=1
"""
    rep = verify.check_craven(tables.parse(text))
    assert rep.status == "fail"  # pi_2 equal but the entry is the constant 3


def test_echelonize_narrative_E6():
    # {Psi4+Psi5, Psi4+Psi7, Psi7} isolates Psi4
    t = load("d2/E6.principal.dmx")
    cols = [table_column_vector(t, j) for j in (3, 4, 6)]
    def add(u, v):
        out = dict(u)
        for k, c in v.items():
            out[k] = out.get(k, ParamExpr()) + c
        return out
    # work over the numeric part: these columns carry no parameters
    def numeric(v):
        return {k: e.constant() for k, e in v.items()}
    projs = [add(cols[0], cols[1]), add(cols[0], cols[2]), cols[2]]
    projs = [numeric(p) for p in projs]
    out = verify.echelonize(projs, list(t.rows))
    assert numeric(cols[0]) in out
    assert verify.echelonize(out, list(t.rows)) == out  # idempotent


def test_echelonize_already_reduced_unchanged():
    t = load("d2/D4.all.dmx")
    order = list(t.rows)
    basis = [ {k: e.constant() for k, e in table_column_vector(t, j).items()}
              for j in (0, 1, 7) ]
    assert verify.echelonize(basis, order) == sorted(
        basis, key=lambda v: (verify._lead(v, order), sorted(v.items())))
    # idempotence on any input
    once = verify.echelonize(basis + [basis[0]], order)
    assert verify.echelonize(once, order) == once


def test_echelonize_recovers_basis_randomized():
    # construct-then-recover, after the shape of the Thm E6 narrative:
    # {Psi_a + Psi_b, Psi_a + Psi_c, Psi_c} always gives back Psi_a
    t = load("d2/D4.all.dmx")
    order = list(t.rows)
    basis = [ {k: e.constant() for k, e in table_column_vector(t, j).items()}
              for j in range(t.size()) ]
    def add(u, v):
        out = dict(u)
        for k, c in v.items():
            out[k] = out.get(k, 0) + c
        return out
    rng = random.Random(7)
    recovered = 0
    for _ in range(1000):
        a, b, c = rng.sample(range(t.size()), 3)
        out = verify.echelonize([add(basis[a], basis[b]), add(basis[a], basis[c]),
                                 basis[c]], order)
        assert all(min(v.values()) >= 0 for v in out)
        assert verify.echelonize(out, order) == out  # idempotent
        if basis[a] in out:
            recovered += 1
        assert basis[c] in out or add(basis[a], basis[c]) not in out
    assert recovered > 500  # the narrative shape recovers the basis vector


def test_backsub_roundtrip_randomized():
    t = load("d2/B4.principal.dmx")
    rng = random.Random(11)
    for _ in range(1000):
        vec = {lab: rng.randint(0, 6) for lab in rng.sample(list(t.rows), 5)}
        assert verify.check_backsub_roundtrip(t, vec)


def test_steinberg_multiplicities():
    for rel, leads in (("d2/D4.all.dmx", 1), ("d2/D6.principal.dmx", 1), ("d2/B4.principal.dmx", 2),
                       ("d2/2D5.principal.dmx", 1), ("d2/2E6.principal.dmx", 1)):
        t = load(rel)
        rep = verify.check_steinberg_mults(t)
        assert rep.status == "pass", (rel, rep.evidence)
        assert len(rep.evidence) == leads


def test_table_without_a_catalog_warns_in_every_row_check():
    # E7 ships no catalog, so its shipped degrees cannot be compared
    t = tables.parse("[table]\ngroup = E7\nd = 2\ndegrees = full\n[chars]\n"
                     "phi{1,0} | 1\n[cols]\nseries=s : phi{1,0}=1\n")
    assert t.chars is None
    assert [(r.check, r.status) for r in verify.run_table_checks(t)] == [
        ("degrees", "warn"), ("unitriangular", "warn"), ("craven", "warn"),
        ("steinberg", "warn"), ("satisfiable", "pass")]


def test_every_steinberg_lead_label_is_in_its_catalog():
    # so check_steinberg_mults looks each one up without a fallback
    groups = [GroupDescriptor(s, n) for s in ("B", "C", "D", "2D") for n in range(2, 11)]
    leads = [(g, lab) for g in groups + [GroupDescriptor.parse("2E6")]
             for lab, _ in verify._steinberg_cases(g)]
    assert len(leads) == 40
    for g, lab in leads:
        find_char(g, lab)  # raises LabelError for a label not in the catalog


def test_steinberg_detects_wrong_entry():
    text = (DATA / "d2" / "D4.all.dmx").read_text()
    broken_text = text.replace("series=c : 1.1^3=1 .1^4=4", "series=c : 1.1^3=1 .1^4=5")
    assert broken_text != text
    broken = tables.parse(broken_text)
    assert verify.check_steinberg_mults(broken).status == "fail"


def test_steinberg_row_is_the_row_of_degree_q_to_the_n():
    # 1^4. and 1.1^3 both have a-value 9, and neither is the Steinberg
    # character of B4 (degree q^16): taking the largest a-value picked 1^4.
    # and failed with "Steinberg entry 1 != 3" on its diagonal; without a
    # Steinberg row there is no entry to compare
    text = ("[table]\ngroup = B4\nd = 2\n[chars]\n1^4.\n1.1^3\n[cols]\n"
            "series=ps : 1^4.=1 1.1^3=3\nseries=ps : 1.1^3=1\n")
    t = tables.parse(text)
    assert [c.degree.a_value() for c in t.chars] == [9, 9]
    rep = verify.check_steinberg_mults(t)
    assert (rep.status, rep.evidence) == ("warn", ["no applicable column in this table"])
    # with the Steinberg row .1^4 present, its entry is the one compared
    text = ("[table]\ngroup = B4\nd = 2\n[chars]\n1^4.\n1.1^3\n.1^4\n[cols]\n"
            "series=ps : 1^4.=1 1.1^3=2 .1^4=3\nseries=ps : 1.1^3=1\n"
            "series=ps : .1^4=1\n")
    rep = verify.check_steinberg_mults(tables.parse(text))
    assert (rep.status, rep.evidence) == ("pass", ["1^4. -> 3"])
    # the corpus tables without a Steinberg row only warn
    for rel in ("d2/B4.phi2sq.dmx", "d2/D6.phi2sq.dmx"):
        t = load(rel)
        n = group_order_poly(t.group).q_exp
        assert all(c.degree.a_value() != n for c in t.chars), rel
        assert verify.check_steinberg_mults(t).status == "warn", rel


def test_second_corpus_pass_decodes_nothing_and_reruns_every_check():
    # tables and trees are memoised per text, check results are not: a
    # second pass reads every file from the memos and builds new reports
    first = list(verify.corpus_reports())
    parses, trees = tables.parse.cache_info(), blocks.load_trees.cache_info()
    second = list(verify.corpus_reports())
    assert tables.parse.cache_info().misses == parses.misses
    assert blocks.load_trees.cache_info().misses == trees.misses
    assert tables.parse.cache_info().hits == parses.hits + 26
    assert blocks.load_trees.cache_info().hits > trees.hits
    assert second == first and len(first) > 200
    assert not any(a is b for (_, a), (_, b) in zip(first, second))


def test_row_invariants_are_computed_once_per_table(monkeypatch):
    # (a, A, 2d * pi_d) of every row, as the public functions give them
    corpus = list(verify.corpus_tables())
    assert len(corpus) == 26
    for rel, t in corpus:
        if t.chars is None:  # E7 and E8 ship no catalog
            assert t.row_invariants is None, rel
            continue
        assert t.row_invariants == tuple(
            (a_value(c), A_value(c), 2 * t.d * perversity(c, t.d)) for c in t.chars), rel
    # a second pass reuses every table's invariants, so pi_d is not recomputed
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    list(verify.corpus_reports())
    monkeypatch.setattr(degrees, "perversity", counted("pi", degrees.perversity))
    monkeypatch.setattr(tables, "perversity_numerator",
                        counted("numerator", tables.perversity_numerator))
    list(verify.corpus_reports())
    assert calls == {}
    # a copy is a new table, with invariants of its own
    _, t = corpus[0]
    copy = dataclasses.replace(t, d=t.d + 1)
    assert copy.row_invariants is not t.row_invariants
    assert calls["numerator"] == len(t.rows)
    assert [n for _, _, n in copy.row_invariants] == [
        perversity_numerator(c.degree, t.d + 1) for c in t.chars]


def _fresh_table(rel):
    """A table parsed anew from its file, past the memo of `tables.parse`,
    so that nothing it compiles is shared with the corpus tables."""
    return tables.parse.__wrapped__((DATA / rel).read_text())


def test_compiled_check_inputs_belong_to_their_object(monkeypatch):
    # trees keep their encoding and tables their parameter systems: a
    # second pass compiles none of them, and reruns every check
    first = list(verify.corpus_reports())
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    bounded = []
    box_bounds = verify.ParamBox.bounds
    monkeypatch.setattr(blocks, "_packed", counted("packed", blocks._packed))
    monkeypatch.setattr(verify.ParamBox, "bounds",
                        lambda box, expr: bounded.append(expr) or box_bounds(box, expr))
    monkeypatch.setattr(tables, "_box", counted("box", tables._box))
    monkeypatch.setattr(tables.ParamSystem, "compile", classmethod(
        counted("compile", tables.ParamSystem.compile.__func__)))
    monkeypatch.setattr(blocks, "tree_check", counted("tree_check", blocks.tree_check))
    monkeypatch.setattr(verify, "tree_check", blocks.tree_check)
    second = list(verify.corpus_reports())
    assert second == first
    entries = {e for _, t in verify.corpus_tables() for e in t.system.entries}
    assert len(entries) > 80 and not [e for e in bounded if e in entries]
    assert calls == {"tree_check": 124}
    # a dataclasses.replace copy compiles its own, and reports as a fresh parse
    trees = [t for _, t in verify.corpus_trees()]
    for tree in trees[::10]:
        copy = dataclasses.replace(tree)
        assert copy.encoding == tree.encoding and copy.encoding is not tree.encoding
        mutant = dataclasses.replace(tree, chain=tree.chain[1::-1] + tree.chain[2:])
        fresh = blocks.BrauerTree(tree.group, tree.d, mutant.chain, tree.edge_series)
        for t in (copy, mutant):
            got, want = blocks.tree_check(t), blocks.tree_check(fresh if t is mutant else tree)
            assert (got.status, got.evidence) == (want.status, want.evidence), t.chain
    assert calls["packed"] == 3 * len(trees[::10])
    copied = ("d2/B4.symbolic.dmx", "d3/B6.principal.dmx", "d6/E6.principal.dmx")
    for rel in copied:
        table = load(rel)
        copy = dataclasses.replace(table)
        assert copy.system is not table.system
        assert copy.system.entry_box == table.system.entry_box
        assert copy.system.entry_box is not table.system.entry_box
        assert copy.system.search == table.system.search
        assert copy.system.search is not table.system.search
        assert verify.run_table_checks(copy) == verify.run_table_checks(_fresh_table(rel))
    # the copy and the fresh parse compile once each, boxing each entry once
    assert calls["compile"] == 2 * len(copied)
    assert calls["box"] == 2 * sum(len(load(rel).system.entries) for rel in copied) > 0
    # a copy with other constraints has other bounds, and its own witnesses
    table = load("d2/B4.symbolic.dmx")
    edited = (DATA / "d2" / "B4.symbolic.dmx").read_text().replace(
        "constraints = x4=4x1+3x2+x3-6", "constraints = x4=4x1+3x2+x3-6; x1>=2")
    fresh = tables.parse.__wrapped__(edited)
    copy = dataclasses.replace(table, constraints=fresh.constraints)
    assert copy.system.entry_box != table.system.entry_box
    assert copy.system.entry_box == fresh.system.entry_box
    assert verify.run_table_checks(copy) == verify.run_table_checks(fresh)
    assert copy.sample_admissible(bound=8) != table.sample_admissible(bound=8)


def test_entry_box_and_search_plans_match_a_fresh_computation():
    # the per-system data against the box arithmetic and a fresh system
    for rel, table in verify.corpus_tables():
        system, box = table.system, verify.ParamBox(table)
        assert set(system.entry_box) == set(system.entries), rel
        for expr, (red, lo, hi) in system.entry_box.items():
            assert (lo, hi) == box.bounds(expr), (rel, expr)
            assert red == system.reduce(expr), (rel, expr)
        for order in ((0, 3, 8, 30, 8), (30, 8, 3, 0, 30)):
            for bound in order:
                got = table.sample_admissible(bound=bound)
                want = _fresh_table(rel).sample_admissible(bound=bound)
                assert [list(w.items()) for w in got] == [
                    list(w.items()) for w in want], (rel, bound)
        # the caps memo of the search serves every limit
        assert table.sample_admissible(bound=30, limit=5) == _fresh_table(
            rel).sample_admissible(bound=30, limit=5), rel


def _pathlib_walk(root, suffix):
    """The (subdirectory, file, text) records of a corpus walk by sorted
    `pathlib` listings: the `d*` directories, then their `suffix` files."""
    return [(sub, f, (root / sub / f).read_text(encoding="utf-8"))
            for sub in sorted(p.name for p in root.iterdir() if p.name.startswith("d"))
            if (root / sub).is_dir()
            for f in sorted(p.name for p in (root / sub).iterdir() if p.name.endswith(suffix))]


def test_corpus_walk_matches_a_sorted_pathlib_listing(tmp_path):
    for suffix in (".dmx", ".trees"):
        walked = list(verify._corpus_files(None, suffix, tables.TableError))
        assert walked == _pathlib_walk(DATA, suffix)
        assert walked == list(verify._corpus_files(str(DATA), suffix, tables.TableError))
    assert len(list(verify._corpus_files(None, ".dmx", tables.TableError))) == 26
    # a d7 regular file is skipped, and so is a file of d2 without the suffix
    for rel in ("d2/D4.all.dmx", "d2/E6.trees", "d3/B6.principal.dmx", "d10/B5.trees"):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text((DATA / rel).read_text())
    (tmp_path / "d7").write_text("not a directory\n")
    (tmp_path / "d2" / "notes.txt").write_text("no suffix\n")
    (tmp_path / "d2" / "A.dmx.bak").write_text("no suffix either\n")
    (tmp_path / "extra").mkdir()
    (tmp_path / "extra" / "X.dmx").write_text("outside every d* directory\n")
    for suffix in (".dmx", ".trees"):
        walked = list(verify._corpus_files(tmp_path, suffix, tables.TableError))
        assert walked == _pathlib_walk(tmp_path, suffix)
    assert [(sub, f) for sub, f, _ in verify._corpus_files(
        str(tmp_path), ".dmx", tables.TableError)] == [
        ("d2", "D4.all.dmx"), ("d3", "B6.principal.dmx")]
    assert [(sub, f) for sub, f, _ in verify._corpus_files(
        tmp_path, ".trees", tables.TableError)] == [("d10", "B5.trees"), ("d2", "E6.trees")]
    # a file that is not UTF-8 is named in the error
    (tmp_path / "d3" / "bad.dmx").write_bytes(b"[table]\n\xff\n")
    with pytest.raises(tables.TableError, match=r"^d3/bad\.dmx: 'utf-8' codec"):
        list(verify._corpus_files(tmp_path, ".dmx", tables.TableError))
    with pytest.raises(FileNotFoundError, match="missing"):
        list(verify._corpus_files(tmp_path / "missing", ".dmx", tables.TableError))


def test_dl_constraints_B4_coxeter():
    t = load("d2/B4.symbolic.dmx")
    rep = verify.check_dl_constraints(t, coxeter_class(4), [17, 18, 19])
    assert rep.status == "pass"
    ineqs = {j: e for j, e in rep.data["inequalities"]}
    assert ineqs[17] == ParamExpr.const(2) - ParamExpr.var("x1")   # x1 <= 2
    assert ineqs[18] == -ParamExpr.var("x2")                       # x2 = 0
    assert ineqs[19] == ParamExpr.const(1) - ParamExpr.var("x3")   # x3 <= 1


@pytest.mark.parametrize("column", [0, -1, 21])
def test_dl_constraints_reject_a_column_out_of_range(column):
    # column 0 must not wrap around to column 20's coefficient
    t = load("d2/B4.symbolic.dmx")
    with pytest.raises(ValueError, match=f"column index {column} outside 1..20"):
        verify.check_dl_constraints(t, coxeter_class(4), [17, column])


def test_dl_flipped_entry_is_infeasible():
    text = (DATA / "d2" / "B4.symbolic.dmx").read_text().replace(
        "params = x1 x2 x3 x4", "params = x1 x2 x3 x4").replace(
        "constraints = x4=4x1+3x2+x3-6", "constraints = x4=4x1+3x2+x3-6; x1>=3")
    t = tables.parse(text)
    rep = verify.check_dl_constraints(t, coxeter_class(4), [17, 18, 19])
    assert rep.status == "fail"  # x1 >= 3 contradicts x1 <= 2


def test_hc_induce_d4_from_levis():
    tD4 = load("d2/D4.all.dmx")
    for levi in ("levi/D3.d2.dmx", "levi/A2.d2.dmx", "levi/A1.d2.dmx"):
        tL = load(levi)
        rep = verify.hc_induced_columns(tL.group, tL, tD4.group, tD4)
        assert rep.status == "pass", (levi, rep.evidence)


def test_hc_induce_d5_from_d4_narrative():
    tD4, tD5 = load("d2/D4.all.dmx"), load("d2/D5.principal.dmx")
    rep = verify.hc_induced_columns(tD4.group, tD4, tD5.group, tD5)
    assert rep.status == "pass"
    dec = rep.data["decompositions"]
    as_dicts = [{k + 1: str(c) for k, c in enumerate(co) if not c.is_zero()}
                for co in dec]
    assert {3: "1", 6: "2"} in as_dicts            # Psi~_3 = Psi_3 + 2 Psi_6
    assert {11: "1", 15: "2"} in as_dicts          # Psi~_11 = Psi_11 + 2 Psi_15
    assert {13: "1", 15: "1", 19: "1"} in as_dicts  # Psi~_13
    assert {18: "1", 20: "1"} in as_dicts           # Steinberg series


def test_hcr_subsum_narrative():
    tD4, tD5 = load("d2/D4.all.dmx"), load("d2/D5.principal.dmx")
    cands = verify.hcr_candidates(tD5.group, tD5, {2: 1, 5: 2}, [(tD4.group, tD4)])
    assert set(cands) == {((2, 1),), ((5, 1),), ((5, 2),), ((2, 1), (5, 1))}
    # the D2-series needs 4 PIMs (Hecke count) and this projective holds two
    # distinct ones, one twice: the only compatible split is Psi_3 plus 2 Psi_6
    splits = [c for c in cands if sum(m for _, m in c) == 1]
    assert ((2, 1),) in splits and ((5, 1),) in splits


@pytest.mark.parametrize("combo", [{-1: 1, 5: 1}, {2: 1, 20: 1}])
def test_hcr_rejects_a_column_out_of_range(combo):
    # the key -1 must not wrap around to column 19
    tD4, tD5 = load("d2/D4.all.dmx"), load("d2/D5.principal.dmx")
    bad = min(combo) if min(combo) < 0 else max(combo)
    with pytest.raises(ValueError, match=f"column index {bad} outside 0..19"):
        verify.hcr_candidates(tD5.group, tD5, combo, [(tD4.group, tD4)])


def test_hcr_rejects_artificial_column():
    tD4, tD5 = load("d2/D4.all.dmx"), load("d2/D5.principal.dmx")
    # a fake subcharacter whose restriction has a negative PIM coefficient
    vec = {tD5.rows[5]: ParamExpr.const(1)}  # .32 alone is not projective
    assert not verify.restriction_nonneg(tD5.group, tD5, vec, tD4.group, tD4)


def test_regular_height_bounds():
    assert regular_height_bound(GroupDescriptor.parse("D6"), ()) == 10
    assert regular_height_bound(GroupDescriptor.parse("E6"), ()) == 12
    g = GroupDescriptor.parse("B5")
    assert regular_height_bound(g, tuple(range(5))) == 1


def test_coxeter_numbers_by_enumeration():
    for name, want in (("D4", 6), ("D6", 10), ("B4", 8), ("C6", 12),
                       ("E6", 12), ("F4", 12)):
        assert coxeter_number(GroupDescriptor.parse(name)) == want


def reference_echelonize(projs, order):
    """echelonize as it read before leads were kept per sweep."""
    lead = verify._lead
    vecs = []
    for v in projs:
        vecs.append({k: int(c) for k, c in v.items() if int(c) != 0})
        if any(c < 0 for c in vecs[-1].values()):
            raise ValueError("projective vector with a negative entry")
    changed = True
    while changed:
        changed = False
        vecs.sort(key=lambda v: (lead(v, order), sorted(v.items())))
        for a in range(len(vecs)):
            remainder = dict(vecs[a])
            la = lead(remainder, order)
            for b in sorted((i for i in range(len(vecs)) if i != a),
                            key=lambda i: (lead(vecs[i], order), i)):
                u = vecs[b]
                if not u or not remainder:
                    continue
                lu = lead(u, order)
                if lu >= len(order) or lu < la:
                    continue
                lead_lab = order[lu]
                have = remainder.get(lead_lab, 0)
                if have == 0 or have % u[lead_lab]:
                    continue
                k = have // u[lead_lab]
                cand = {lab: c - k * u.get(lab, 0) for lab, c in remainder.items()}
                for lab, c in u.items():
                    if lab not in remainder and c:
                        cand[lab] = -k * c
                if any(c < 0 for c in cand.values()):
                    continue
                cand = {lab: c for lab, c in cand.items() if c}
                if lu > la and lead(cand, order) != la:
                    continue
                remainder = cand
                la = lead(remainder, order)
            if remainder != vecs[a]:
                vecs[a] = remainder
                changed = True
        vecs = [v for v in vecs if v]
        deduped = []
        for v in vecs:
            if v not in deduped:
                deduped.append(v)
        if len(deduped) != len(vecs):
            changed = True
        vecs = deduped
    vecs.sort(key=lambda v: (lead(v, order), sorted(v.items())))
    return vecs


def assert_same_echelon(projs, order):
    want = reference_echelonize(projs, order)
    got = verify.echelonize(projs, order)
    assert got == want
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]


def test_echelonize_matches_reference_on_corpus_columns():
    rng = random.Random(11)
    checked = 0
    for rel, t in verify.corpus_tables():
        witnesses = t.sample_admissible(bound=8)
        point = witnesses[0] if witnesses else {}
        cols = []
        for j in range(t.size()):
            col = table_column_vector(t, j)
            if all(e.names() <= point.keys() for e in col.values()):
                cols.append({k: e.evaluate(point) for k, e in col.items()})
        order = list(t.rows)
        assert_same_echelon(cols, order)
        for _ in range(25):
            picks = []
            for _ in range(rng.randint(1, 5)):
                vec = {}
                for col in rng.sample(cols, rng.randint(1, min(3, len(cols)))):
                    for k, c in col.items():
                        vec[k] = vec.get(k, 0) + rng.randint(1, 2) * c
                picks.append(vec)
            assert_same_echelon(picks, order)
            assert_same_echelon(picks, order[::-1])
            checked += 1
    assert checked == 26 * 25


def test_echelonize_matches_reference_on_random_vectors():
    rng = random.Random(12)
    labels = [f"r{i}" for i in range(9)]
    for _ in range(400):
        order = rng.sample(labels, rng.randint(1, 9))
        if rng.random() < 0.2:
            order.append(rng.choice(order))  # a repeated label leads at its first place
        vecs = [{lab: rng.randint(0, 3) for lab in rng.sample(labels, rng.randint(0, 5))}
                for _ in range(rng.randint(0, 7))]
        if vecs and rng.random() < 0.3:
            vecs.append(dict(rng.choice(vecs)))
        assert_same_echelon(vecs, order)
    # dense vectors over few labels: leads change within a sweep, and about
    # one case in a thousand depends on re-sorting the others by their new leads
    for _ in range(4000):
        few = labels[:rng.randint(2, 6)]
        order = rng.sample(few, len(few))
        vecs = [{lab: rng.randint(0, 3) for lab in rng.sample(few, rng.randint(1, len(few)))}
                for _ in range(rng.randint(2, 7))]
        assert_same_echelon(vecs, order)
    assert_same_echelon([{"r1": 3, "r0": 2, "r2": 1}, {"r1": 2}, {"r1": 3, "r0": 3, "r2": 1,
                          "r3": 3}, {"r3": 1, "r1": 2, "r0": 1}, {"r1": 2}, {"r1": 2, "r2": 3}],
                        ["r1", "r3", "r2", "r0"])
    with pytest.raises(ValueError, match="negative"):
        verify.echelonize([{"r1": 1, "r2": -1}], labels)


# ---------------------------------------------------------------------------
# ParamBox against the box that kept its own bounds and substitution

class Reference:
    """ParamBox as it was before it read its bounds and substitutions from
    the table's ParamSystem.  Kept verbatim as the reference."""

    def __init__(self, table, hi=math.inf):
        self.table = table
        self.hi = hi
        system = table.system
        self.free, self.defined, self.low = system.free, system.defined, system.lows
        self.high = {}
        for p in self.free:
            up = hi
            for c in table.constraints:
                if c.rel == ">=" and set(c.expr.names()) == {p}:
                    coeff = c.expr.terms.get((p,), 0)
                    const = c.expr.constant()
                    if coeff < 0:
                        up = min(up, const // (-coeff))
            self.high[p] = max(up, self.low[p])

    def reduce(self, expr):
        """Substitute defined parameters until only free ones remain."""
        guard = 0
        while expr.names() & set(self.defined) and guard < 20:
            for name in list(expr.names() & set(self.defined)):
                # replace name by its defining expression
                out = ParamExpr()
                for mono, c in expr.terms.items():
                    if name in mono:
                        rest = list(mono)
                        rest.remove(name)
                        out = out + ParamExpr({tuple(rest): c}) * self.defined[name]
                    else:
                        out = out + ParamExpr({mono: c})
                expr = out
            guard += 1
        return expr

    def bounds(self, expr):
        """(lower, upper) over the box, ignoring joint constraints (sound)."""
        expr = self.reduce(expr)
        lo = hi = expr.constant()
        for mono, c in expr.terms.items():
            if not mono:
                continue
            lo_m = 1
            hi_m = 1
            for name in mono:
                lo_m *= self.low.get(name, 0)
                high = self.high.get(name, self.hi)
                hi_m = hi_m * high if hi_m and high else 0
            if c > 0:
                lo += c * lo_m
                hi += c * hi_m
            else:
                lo += c * hi_m
                hi += c * lo_m
        return lo, hi

    def provably_zero(self, expr):
        red = self.reduce(expr)
        if red.is_zero():
            return True
        lo, hi = self.bounds(red)
        return lo == 0 and hi == 0

    def provably_positive(self, expr):
        return self.bounds(expr)[0] > 0


def _random_poly(rng, names):
    """A random polynomial of degree <= 2 in `names`, constant term included."""
    expr = ParamExpr.const(rng.randint(-6, 6))
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.choice(names) for _ in range(rng.randint(1, 2)))
        expr = expr + ParamExpr({mono: rng.choice([-3, -1, 1, 2, 5])})
    return expr


def assert_box_matches_reference(table, rng):
    """The same bounds and verdicts on every entry, on random polynomials and
    on the coefficients of random vectors in the columns; returns the number
    of expressions compared."""
    assert table.system.order is not None
    param_table = with_param_entries(table)
    box, ref = verify.ParamBox(table), Reference(param_table)
    # each entry as the table stores it, and as the reference reads it
    pairs = [(e, p) for col, pcol in zip(table.columns, param_table.columns)
             for e, p in zip(col.entries.values(), pcol.entries.values())]
    exprs = []
    if table.params:
        exprs += [_random_poly(rng, list(table.params)) for _ in range(30)]
    for _ in range(3):
        vec = {lab: rng.randint(0, 3) for lab in rng.sample(list(table.rows),
                                                             min(4, table.size()))}
        exprs += verify.decompose_in_columns(table, vec)
    for e, p in pairs + [(e, e) for e in exprs]:
        assert table.system.reduce(e) == ref.reduce(p), (table.name(), e)
        assert box.bounds(e) == ref.bounds(p), (table.name(), e)
        assert box.provably_zero(e) == ref.provably_zero(p), (table.name(), e)
    return len(pairs) + len(exprs)


def test_param_box_matches_reference_on_corpus_and_levi_tables():
    rng = random.Random(21)
    levi = [load(f"levi/{f.name}") for f in sorted((DATA / "levi").glob("*.dmx"))]
    corpus = [t for _, t in verify.corpus_tables()]
    assert len(corpus) == 26 and len(levi) == 4
    assert sum(assert_box_matches_reference(t, rng) for t in corpus + levi) > 2000


def test_param_box_bounds_every_corpus_entry_as_reference(monkeypatch):
    # constant entries are most of the calls; they are bounded as (c, c)
    # without a substitution through ParamSystem.reduce
    reduced = []
    real_reduce = tables.ParamSystem.reduce

    def counting_reduce(system, expr):
        reduced.append(expr)
        return real_reduce(system, expr)

    monkeypatch.setattr(tables.ParamSystem, "reduce", counting_reduce)
    constant = varying = 0
    for _, table in verify.corpus_tables():
        param_table = with_param_entries(table)
        box, ref = verify.ParamBox(table), Reference(param_table)
        for col, pcol in zip(table.columns, param_table.columns):
            for e, p in zip(col.entries.values(), pcol.entries.values()):
                del reduced[:]
                assert box.bounds(e) == ref.bounds(p), (table.name(), e)
                if type(e) is int:
                    assert box.bounds(e) == (e, e)
                    assert not reduced
                    constant += 1
                else:
                    assert reduced == [e]
                    varying += 1
    assert constant > 1000 and varying > 100, (constant, varying)


def test_hc_induced_coefficients_are_bounded_without_reduce(monkeypatch):
    # decompose_in_columns wraps its coefficients as ParamExprs, nearly all
    # constant; one that names no parameter is bounded as (c, c) directly
    reduced = []
    real_reduce = tables.ParamSystem.reduce

    def counting_reduce(system, expr):
        reduced.append(expr)
        return real_reduce(system, expr)

    monkeypatch.setattr(tables.ParamSystem, "reduce", counting_reduce)
    tA1, tD4 = load("levi/A1.d2.dmx"), load("d2/D4.all.dmx")
    rep = verify.hc_induced_columns(tA1.group, tA1, tD4.group, tD4)
    assert rep.status == "pass"
    coeffs = [c for co in rep.data["decompositions"] for c in co]
    assert len(coeffs) > 10 and all(isinstance(c, ParamExpr) for c in coeffs)
    box = verify.ParamBox(tD4)
    assert box.bounds(ParamExpr.const(-3)) == (-3, -3) and box.bounds(ParamExpr()) == (0, 0)
    assert all(e.names() for e in reduced), reduced


def test_param_box_matches_reference_on_fuzzed_tables():
    rng = random.Random(22)
    chained = 0
    for _ in range(150):
        table = _random_synthetic(rng)
        defined = table.system.defined
        chained += any(expr.names() & defined.keys() for expr in defined.values())
        assert_box_matches_reference(table, rng)
    assert chained > 10  # some definitions use another defined parameter


def test_param_box_on_cyclic_definitions():
    # a=b+c; b=a-1: nothing is substituted and a, b range over [0, inf)
    table = SYNTHETIC["cyclic"]
    box = verify.ParamBox(table)
    assert box.bounds(tables.parse_expr("a")) == (0, math.inf)
    assert box.bounds(tables.parse_expr("a+b")) == (0, math.inf)
    assert box.bounds(tables.parse_expr("c")) == (0, math.inf)


def _a1(params, constraints, entry):
    """An A1 table whose column 1 has `entry` at row 1^2."""
    return tables.parse("[table]\ngroup = A1\nd = 2\n"
                        f"params = {params}\nconstraints = {constraints}\n"
                        "[chars]\n2\n1^2\n[cols]\n"
                        f"series=ps : 2=1 1^2={entry}\nseries=ps : 1^2=1\n")


def test_param_box_bounds_40_minus_d_by_the_constraints_alone():
    # d = 40 is admissible, so 40-d is not provably positive
    table = _a1("d", "d>=0", "d")
    assert table.is_admissible({"d": 40})
    box = verify.ParamBox(table)
    assert box.bounds(tables.parse_expr("40-d")) == (-math.inf, 40)


def test_param_box_bounds_d_minus_35_by_the_constraints_alone():
    # d = 40 makes d-35 positive: it is not negative for all admissible d
    table = _a1("d", "d>=0", "d")
    assert table.is_admissible({"d": 40})
    assert verify.ParamBox(table).bounds(tables.parse_expr("d-35")) == (-35, math.inf)


def test_param_box_monomial_with_a_zero_upper_bound():
    # p <= 0 times the unbounded q: the upper bound is 0, not nan
    table = _a1("p q", "p<=0", "p+q")
    box = verify.ParamBox(table)
    pq = tables.parse_expr("p") * tables.parse_expr("q")
    assert box.bounds(pq) == (0, 0)
    assert box.bounds(2 - 3 * pq) == (2, 2)
    assert box.bounds(pq * tables.parse_expr("q")) == (0, 0)


@pytest.mark.parametrize("params, constraints, witness", [
    ("d", "d>=9", {"d": 9}),   # admissible, but past the search's 8
    ("d e", "2d-2e=1", None),  # no integer solution; no proof of that yet
], ids=["d-at-least-9", "parity"])
def test_satisfiable_warns_when_the_search_finds_nothing(params, constraints, witness):
    table = _a1(params, constraints, "d")
    if witness:
        assert table.is_admissible(witness)
    rep = verify.run_table_checks(table)[-1]
    assert (rep.check, rep.status, rep.evidence) == (
        "satisfiable", "warn", ["no admissible assignment found with free parameters <= 8"])


def test_satisfiable_warns_on_cyclic_definitions():
    table = SYNTHETIC["cyclic"]
    assert table.is_admissible({"a": 1, "b": 0, "c": 1})
    rep = verify.run_table_checks(table)[-1]
    assert (rep.check, rep.status, rep.evidence) == (
        "satisfiable", "warn", ["cyclic parameter definitions: no witness search"])
