import dataclasses
import hashlib
import itertools
import pathlib
import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest

from unipdec import tables, verify
from unipdec.degrees import find_char
from unipdec.tables import ParamExpr, TableError, parse, parse_expr, emit

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "unipdec" / "data"


def all_dmx():
    out = []
    for sub in sorted(DATA.glob("d*")) + [DATA / "levi"]:
        out += sorted(sub.glob("*.dmx"))
    return out


def test_expr_grammar():
    e = parse_expr("24-15c17-5c18+6c19")
    assert e.constant() == 24 and e.terms[("c17",)] == -15
    assert parse_expr("2-d") == ParamExpr.const(2) - ParamExpr.var("d")
    assert parse_expr("3b-4d") == ParamExpr.var("b", 3) - ParamExpr.var("d", 4)
    assert parse_expr("y3+2") == ParamExpr.var("y3") + 2
    with pytest.raises(TableError):
        parse_expr("3*")


def test_expr_arithmetic_and_eval():
    a = parse_expr("2a1-3")
    b = parse_expr("a1+a2")
    assert (a * b).evaluate({"a1": 2, "a2": 5}) == (2 * 2 - 3) * (2 + 5)
    assert (a - a).is_zero()


def test_constant_expr_hashes_as_its_int():
    # a constant expression equals its int, so sets and dicts must find it
    assert ParamExpr.const(3) in {3} and 3 in {ParamExpr.const(3)}
    assert ParamExpr() in {0} and parse_expr("2-2") in {0}
    assert {ParamExpr.const(-5): "x"}[-5] == "x"
    assert len({ParamExpr.const(7), 7, parse_expr("3+4")}) == 1
    assert ParamExpr.var("d") not in {0, 1}


def test_expr_mixes_with_int():
    a = parse_expr("a")
    assert list((2 + a).terms.items()) == [((), 2), (("a",), 1)]
    assert list((a + 2).terms.items()) == [(("a",), 1), ((), 2)]
    assert 2 - a == parse_expr("2-a") and a - 2 == parse_expr("a-2")
    assert 0 + a == a and (a - a) + 0 == 0
    assert a and parse_expr("3") and not parse_expr("a-a") and not ParamExpr()
    assert a * Fraction(4, 2) == parse_expr("2a")
    assert ParamExpr.const(Fraction(6, 2)) == 3


@pytest.mark.parametrize("case", [
    lambda a: Fraction(1, 2) - a,      # was -a
    lambda a: 2.5 - a,                 # was 2-a
    lambda a: ParamExpr.const(Fraction(7, 2)),  # was 3
    lambda a: a + Fraction(1, 2),      # was an AttributeError
    lambda a: a - 0.5,
    lambda a: 1.0 + a,
    lambda a: a * Fraction(1, 2),      # was 1/2a
    lambda a: Fraction(1, 2) * a,
], ids=["half-minus-a", "float-minus-a", "const-of-7/2", "a-plus-half", "a-minus-float",
        "float-plus-a", "a-times-half", "half-times-a"])
def test_expr_refuses_what_is_not_an_integer(case):
    with pytest.raises(TypeError):
        case(parse_expr("a"))


def test_expr_times_an_integral_fraction_has_int_coefficients():
    # Fraction(4, 2) is stored as 2, so a constant multiple has an int coefficient
    a = parse_expr("a")
    assert type((a * Fraction(4, 2)).terms[("a",)]) is int
    assert type((ParamExpr.const(3) * Fraction(4, 2)).terms[()]) is int


def test_const_stores_an_int_and_nothing_for_zero():
    assert ParamExpr.const(0).terms == {} and ParamExpr.const(Fraction(0, 3)).terms == {}
    assert ParamExpr.const(-4).terms == {(): -4}
    two = ParamExpr.const(Fraction(4, 2))
    assert two.terms == {(): 2} and type(two.terms[()]) is int
    # one shared, read-only instance per int; 2.0 hashes like the cached 2,
    # so it must be refused before the memo is consulted
    assert two is ParamExpr.const(2) and two == 2
    assert all(ParamExpr.const(k) is ParamExpr.const(k) for k in (0, -7, 10**30))
    with pytest.raises(TypeError):
        two.terms[("a",)] = 1
    with pytest.raises(TypeError):
        ParamExpr.const(Fraction(1, 2))
    with pytest.raises(TypeError):
        ParamExpr.const(2.0)


def test_constructor_sums_terms_that_sort_to_one_monomial():
    assert ParamExpr({("b", "a"): 1, ("a", "b"): 2}) == ParamExpr({("a", "b"): 3})
    assert str(ParamExpr({("b", "a"): 1, ("a", "b"): 2})) == "3*a*b"
    assert ParamExpr({("a", "b"): 1, ("b", "a"): -1}) == 0
    assert ParamExpr({("a", "b"): 1, ("b", "a"): -1}).terms == {}


def test_parse_expr_and_parse_entry_share_their_results():
    assert parse_expr("2a-3") is parse_expr("2a-3")
    assert tables.parse_entry("x1+1") is tables.parse_entry("x1+1")
    assert tables.parse_entry("1+0a") == 1 and type(tables.parse_entry("a-a")) is int


def test_expr_times_a_float_is_a_type_error():
    with pytest.raises(TypeError):
        parse_expr("a") * 2.5
    with pytest.raises(TypeError):
        2.5 * parse_expr("a")


def test_shipped_tables_roundtrip():
    count = 0
    for f in all_dmx():
        t = parse(f.read_text())
        t2 = parse(emit(t))
        assert emit(t2) == emit(t), f.name
        count += 1
    assert count >= 20


def test_emit_matches_golden_hashes():
    # tests/data/emit.tsv holds, for each shipped .dmx (levi/ included), the
    # sha256 of emit(parse(file)); a change of representation must keep the
    # emitted text byte for byte
    golden = {}
    for line in (pathlib.Path(__file__).parent / "data" / "emit.tsv").read_text().splitlines():
        rel, digest = line.split("\t")
        golden[rel] = digest
    files = {f.relative_to(DATA).as_posix(): f for f in all_dmx()}
    assert set(golden) == set(files) and len(files) == 30
    changed = [rel for rel, f in files.items()
               if hashlib.sha256(emit(parse(f.read_text())).encode()).hexdigest() != golden[rel]]
    assert not changed, f"emit output differs from tests/data/emit.tsv for {changed}"


def test_shipped_tables_satisfiable():
    for f in all_dmx():
        t = parse(f.read_text())
        if t.params:
            assert t.sample_admissible(bound=8), f.name


def test_d4_table_shape():
    t = parse((DATA / "d2" / "D4.all.dmx").read_text())
    assert t.size() == 14
    assert not t.params  # the D4 matrix is fully determined
    assert t.entry(13, 8) == ParamExpr.const(6)  # Steinberg entry of the cuspidal PIM


def test_no_rows_error():
    with pytest.raises(TableError, match="no rows"):
        parse("[table]\ngroup = D4\nd = 2\n[chars]\n[cols]\n")


def test_diagonal_enforced():
    bad = """[table]
group = A1
d = 2
[chars]
2
1^2
[cols]
series=ps : 2=1 1^2=1
series=ps : 2=1
"""
    with pytest.raises(TableError, match="diagonal|above"):
        parse(bad)



def test_parsed_tables_are_immutable_values():
    # parse shares one object per entry text, so a table must refuse change;
    # a changed table is a dataclasses.replace copy, which leaves the
    # original (and its compiled parameter system) as it was
    text = (DATA / "d2" / "2E6.principal.dmx").read_text()
    a, b = parse(text), parse(text)
    assert a == b and a.params
    j, i, e = next((j, i, e) for j, col in enumerate(a.columns)
                   for i, e in col.entries.items() if isinstance(e, ParamExpr))
    with pytest.raises(TypeError):
        e.terms[("zz",)] = 1
    with pytest.raises(TypeError):
        a.columns[j].entries[i] = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.rows = ()
    assert verify.check_satisfiable(a).status == "pass"
    col = dataclasses.replace(a.columns[j], entries=MappingProxyType({**a.columns[j].entries,
                                                                      i: -1}))
    mutant = dataclasses.replace(a, columns=a.columns[:j] + (col,) + a.columns[j + 1:])
    assert verify.check_satisfiable(mutant).status == "fail"
    assert verify.check_satisfiable(a).status == "pass" and a.columns[j].entries[i] is e
    assert parse(text) == a == b != mutant


def test_parse_is_memoised_on_the_exact_text():
    # one table per text, shared by every caller; an edited text is a new
    # key, and a malformed one raises again, with its line, on every call
    text = (DATA / "d2" / "D4.all.dmx").read_text()
    table = parse(text)
    assert parse(text) is table
    edited = text.replace("series=c : 1.1^3=1 .1^4=4", "series=c : 1.1^3=1 .1^4=5")
    assert edited != text and parse(edited) != table
    i, j = table.rows.index(".1^4"), table.rows.index("1.1^3")
    assert (table.entry(i, j), parse(edited).entry(i, j)) == (4, 5)
    line = next(n for n, ln in enumerate(text.splitlines(), 1) if ".1^4=4" in ln)
    bad = text.replace(".1^4=4", ".1^4=4*")
    misses = parse.cache_info().misses
    for _ in range(2):
        with pytest.raises(TableError) as exc:
            parse(bad)
        assert str(exc.value) == f"line {line}: cannot parse expression '4*' at '*'"
    assert parse.cache_info().misses == misses + 2


def test_every_shipped_entry_is_an_int_or_names_a_parameter():
    ints = varying = 0
    for f in all_dmx():
        for col in parse(f.read_text()).columns:
            for e in col.entries.values():
                if type(e) is int:
                    ints += 1
                else:
                    assert isinstance(e, ParamExpr) and e.names(), (f.name, e)
                    varying += 1
    assert ints > 2000 and varying > 100, (ints, varying)


def test_e7_e8_label_syntax():
    # every row of the shipped E8 table parses; an E7 table may name a
    # cuspidal character, or a series through one of E6 or E7
    e8 = parse((DATA / "d6" / "E8.phi6sq.dmx").read_text())
    assert e8.size() == 21 and "E6[z3^2]:phi{2,2}" in e8.rows
    rows = ["phi{1,0}", "E7[xi]:phi{1,0}", "E6[th]:phi{1,0}''", "E7[-xi]"]
    text = ("[table]\ngroup = E7\nd = 2\n[chars]\n" + "\n".join(rows) + "\n[cols]\n"
            + "".join(f"series=s : {lab}=1\n" for lab in rows))
    assert parse(text).rows == tuple(rows)
    for bad in ("phi{1,0}'''", "phi{1}", "E6[z3]", "E8[]", "D4:E7[xi]", "F4[i]"):
        with pytest.raises(TableError, match=r"line 5: bad E7 label"):
            parse(text.replace("phi{1,0}\n", bad + "\n", 1))


def test_rows_hold_their_catalog_characters():
    # one resolution per row: every table with a catalog holds the row's
    # character, whose label text is the row's text
    files = all_dmx()
    assert len(files) == 30
    for f in files:
        t = parse(f.read_text())
        if f.name == "E8.phi6sq.dmx":
            assert t.chars is None  # E8 ships no catalog
            continue
        assert len(t.chars) == t.size(), f.name
        assert all(str(c.label) == lab for c, lab in zip(t.chars, t.rows)), f.name


_B4_RESPELLED = """[table]
group = B4
d = 2
[chars]
4.
1111.
[cols]
series=ps : 4.=1 1111.=2
series=ps : 1^4.=1
"""


def test_a_respelled_row_is_stored_in_canonical_spelling():
    t = parse(_B4_RESPELLED)
    assert t.rows == ("4.", "1^4.") and t.chars[1] is find_char(t.group, "1^4.")
    assert t.columns[0].entries == {0: 1, 1: 2}
    # both spellings name one character, so one table cannot hold both
    with pytest.raises(TableError) as exc:
        parse(_B4_RESPELLED.replace("1111.\n", "1^4.\n1111.\n", 1))
    assert str(exc.value) == "line 7: duplicate row label '1^4.' (first on line 6)"


def test_constant_entry_texts_parse_to_ints():
    t = _synthetic("a", "", [(1, 0, "1+0a"), (2, 0, "a-a"), (3, 0, "2-a")])
    entries = t.columns[0].entries
    assert entries == {0: 1, 1: 1, 2: 0, 3: parse_expr("2-a")}
    assert [type(e) for e in entries.values()] == [int, int, int, ParamExpr]
    assert tables.parse_entry("3b-3b+2") == 2 and tables.parse_entry("0") == 0


_BAD_B2 = """[table]
group = B2
d = 2
[chars]
2.
{row}
[cols]
series=ps : 2.=1 {row}={entry}
series=ps : {row}=1
"""


@pytest.mark.parametrize("row, entry, message", [
    ("q.", "1", "line 6: bad partition 'q'"),
    ("1^2.", "2*x", "line 8: cannot parse expression '2*x' at '*x'"),
    ("5.", "1", "line 6: label '5.' not in catalog of B2"),  # a B5 label
    ("110.", "1", "line 6: bad partition '110'"),  # not 1^2.: a zero part is an error
])
def test_parse_errors_repeat_after_memoised_parses(row, entry, message):
    text = _BAD_B2.format(row=row, entry=entry)
    for _ in range(2):
        with pytest.raises(TableError) as exc:
            parse(text)
        assert str(exc.value) == message

def _random_table(rng):
    labels = ["2.", "1^2.", "1.1", ".2", ".1^2", "B2:."]
    n = rng.randint(2, len(labels))
    rows = labels[:n]
    params = []
    lines = ["[table]", "group = B2", "d = 2", "block = fuzz", "degrees = none"]
    body = ["[chars]"] + rows + ["[cols]"]
    for j in range(n):
        entries = [f"{rows[j]}=1"]
        for i in range(j + 1, n):
            r = rng.random()
            if r < 0.4:
                continue
            if r < 0.85:
                entries.append(f"{rows[i]}={rng.randint(1, 9)}")
            else:
                p = f"t{rng.randint(1, 3)}"
                params.append(p)
                entries.append(f"{rows[i]}={p}")
        body.append(f"series=s{j} : " + " ".join(entries))
    if params:
        lines.append("params = " + " ".join(sorted(set(params))))
    return "\n".join(lines + body) + "\n"


def test_fuzzed_roundtrip_1000():
    rng = random.Random(99)
    for _ in range(1000):
        text = _random_table(rng)
        t = parse(text)
        t2 = parse(emit(t))
        assert emit(t2) == emit(t)


# ---------------------------------------------------------------------------
# the witness search against its uncompiled form

class Reference:
    """The witness search as it was before tables compiled their parameter
    system: definitions re-derived, re-sorted and every entry evaluated for
    each candidate.  Kept verbatim as the reference."""

    def __init__(self, table):
        self.params = table.params
        self.constraints = table.constraints
        self.columns = table.columns

    def free_and_defined(self):
        """Split params into free ones and ones defined by an equality."""
        defined = {}
        for c in self.constraints:
            if c.rel != "=":
                continue
            # a definition looks like  p - rest = 0  with p not defined yet
            for m, coeff in c.expr.terms.items():
                if len(m) == 1 and abs(coeff) == 1 and m[0] not in defined:
                    rest = (c.expr - ParamExpr.var(m[0], coeff)) * (-coeff)
                    if m[0] not in rest.names():
                        defined[m[0]] = rest
                        break
        free = tuple(p for p in self.params if p not in defined)
        return free, defined

    def resolve(self, free_assignment):
        """Extend an assignment of the free parameters to all parameters."""
        out = dict(free_assignment)
        free, defined = self.free_and_defined()
        pending = dict(defined)
        while pending:
            progress = False
            for name, expr in list(pending.items()):
                if expr.names() <= set(out):
                    out[name] = expr.evaluate(out)
                    del pending[name]
                    progress = True
            if not progress:
                raise TableError("cyclic parameter definitions")
        return out

    def is_admissible(self, assignment):
        if any(v < 0 for v in assignment.values()):
            return False
        if not all(c.holds(assignment) for c in self.constraints):
            return False
        # every matrix entry must be a nonnegative integer
        for col in self.columns:
            for expr in col.entries.values():
                if expr.evaluate(assignment) < 0:
                    return False
        return True

    def sample_admissible(self, bound=30, limit=4000):
        """Deterministic search for admissible assignments of the free params."""
        free, _ = self.free_and_defined()
        lows = {}
        for p in free:
            lows[p] = 0
            for c in self.constraints:
                if c.rel == ">=" and set(c.expr.names()) == {p}:
                    coeff = c.expr.terms.get((p,), 0)
                    const = c.expr.constant()
                    if coeff > 0 and const < 0:
                        lows[p] = max(lows[p], (-const + coeff - 1) // coeff)
        found = []
        tried = 0

        def compositions(total, k, caps):
            if k == 1:
                if total <= caps[0]:
                    yield (total,)
                return
            for first in range(min(total, caps[0]) + 1):
                for rest in compositions(total - first, k - 1, caps[1:]):
                    yield (first,) + rest

        caps = [bound - lows[p] for p in free]
        # smallest assignments first: enumerate by total excess over the bounds
        for excess in range(sum(caps) + 1):
            for combo in compositions(excess, len(free), caps) if free else [()]:
                tried += 1
                if tried > limit and found or tried > 50 * limit:
                    return found
                assign = {p: lows[p] + c for p, c in zip(free, combo)}
                try:
                    full = self.resolve(assign)
                except TableError:
                    continue
                if self.is_admissible(full):
                    found.append(full)
                    if len(found) >= 8:
                        return found
            if not free:
                break
        return found


class _ParamEntryTable(tables.DecompTable):
    def entry(self, i, j):
        return self.columns[j].entries.get(i, ParamExpr())


def with_param_entries(table):
    """A copy of `table` whose int entries are `ParamExpr.const`, and whose
    `entry` gives ParamExpr() off the listed entries, as every entry was
    before parse stored constants as ints: the form the verbatim references
    read."""
    columns = tuple(dataclasses.replace(col, entries={
        i: e if isinstance(e, ParamExpr) else ParamExpr.const(e)
        for i, e in col.entries.items()}) for col in table.columns)
    fields = {f.name: getattr(table, f.name) for f in dataclasses.fields(table)}
    return _ParamEntryTable(**dict(fields, columns=columns))


def _items(witnesses):
    # dict equality ignores key order; the witness dicts' order is compared too
    return [list(w.items()) for w in witnesses]


CORPUS = list(verify.corpus_tables())


def test_corpus_has_26_tables():
    assert len(CORPUS) == 26


@pytest.mark.parametrize("bound", [8, 30])
def test_sample_admissible_matches_reference_on_corpus(bound):
    for rel, table in CORPUS:
        want = Reference(with_param_entries(table)).sample_admissible(bound=bound)
        assert _items(table.sample_admissible(bound=bound)) == _items(want), rel


def test_resolve_and_is_admissible_match_reference_on_corpus():
    rng = random.Random(5)
    # without its constraints a table's entries decide admissibility alone
    unconstrained = [(rel + " unconstrained", dataclasses.replace(table, constraints=()))
                     for rel, table in CORPUS]
    for rel, table in CORPUS + unconstrained:
        ref = Reference(with_param_entries(table))
        free, defined = ref.free_and_defined()
        assert table.system.free == free and table.system.defined == defined, rel
        for _ in range(40):
            assign = {p: rng.randint(0, 12) for p in free}
            full = table.resolve(assign)
            assert list(full.items()) == list(ref.resolve(assign).items()), rel
            assert table.is_admissible(full) == ref.is_admissible(full), rel
            # assignments that break the definitions or go negative
            other = {p: rng.randint(-2, 12) for p in table.params}
            assert table.is_admissible(other) == ref.is_admissible(other), rel


def _synthetic(params="", constraints="", entries=()):
    """A B2 table whose column j has the given entries below the diagonal."""
    return parse(_synthetic_text(params, constraints, entries))


def _synthetic_text(params="", constraints="", entries=()):
    """The text of `_synthetic(params, constraints, entries)`."""
    rows = ["2.", "1^2.", "1.1", ".2", ".1^2"]
    lines = ["[table]", "group = B2", "d = 2", "block = synthetic", "degrees = none"]
    if params:
        lines.append(f"params = {params}")
    if constraints:
        lines.append(f"constraints = {constraints}")
    lines += ["[chars]"] + rows + ["[cols]"]
    below = {}
    for i, j, expr in entries:
        below.setdefault(j, []).append(f"{rows[i]}={expr}")
    for j, lab in enumerate(rows):
        lines.append(f"series=ps : {lab}=1 " + " ".join(below.get(j, [])))
    return "\n".join(lines) + "\n"


SYNTHETIC_TEXT = {
    # a and b define each other; c stays free
    "cyclic": _synthetic_text("a b c", "a=b+c; b=a-1", [(1, 0, "a"), (2, 0, "b")]),
    # a waits for b, which waits for c: witnesses are ordered c, b, a
    "chain": _synthetic_text("a b c", "a=b+1; b=c-2", [(1, 0, "a"), (2, 1, "3-b")]),
    # 2a=2b has no coefficient +-1, so it defines nothing and only filters
    "equality without definition": _synthetic_text("a b", "2a=2b; a>=1",
                                                   [(1, 0, "a"), (3, 2, "5-b")]),
    "negative constant": _synthetic_text("a", "", [(1, 0, "a"), (4, 3, "-1")]),
    "no parameters": _synthetic_text("", "", [(1, 0, "2"), (4, 0, "1"), (3, 1, "3")]),
    # witnesses a = b at every even excess: `limit` ends the search early
    "stops at limit": _synthetic_text("a b", "a<=b; b<=a", [(1, 0, "a"), (2, 1, "b")]),
    # nothing is admissible: the search runs to 50 * limit
    "unsatisfiable": _synthetic_text("a b", "a+b>=100", [(1, 0, "a"), (2, 1, "b")]),
    # entries and inequalities with coefficients and a lower bound
    "mixed": _synthetic_text("a b c d", "d=2a-b; b>=2; c<=3; 3a+c>=4",
                             [(1, 0, "a"), (2, 0, "d"), (3, 1, "6-a-c"), (4, 2, "2c-b+1")]),
    # at bound 8 the lower bound leaves b a negative cap: no candidate at all
    "lower bound above bound": _synthetic_text("a b", "b>=12", [(1, 0, "a"), (2, 1, "b")]),
    # every candidate of excess < 15 is skipped before the first witness
    "long pruned prefix": _synthetic_text("a b c", "a+b+c>=15; 2a=3c",
                                          [(1, 0, "a"), (2, 1, "9-b"), (3, 2, "c")]),
}
SYNTHETIC = {name: parse(text) for name, text in SYNTHETIC_TEXT.items()}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
@pytest.mark.parametrize("bound,limit", [(8, 4000), (30, 4000), (8, 5), (30, 3)])
def test_sample_admissible_matches_reference_on_synthetic(name, bound, limit):
    table = SYNTHETIC[name]
    want = Reference(with_param_entries(table)).sample_admissible(bound=bound, limit=limit)
    assert _items(table.sample_admissible(bound=bound, limit=limit)) == _items(want)


def test_synthetic_cases_exercise_their_conditions():
    s = SYNTHETIC
    assert s["cyclic"].system.order is None and s["cyclic"].sample_admissible() == []
    with pytest.raises(TableError, match="cyclic"):
        s["cyclic"].resolve({"c": 0})
    assert [list(w) for w in s["chain"].sample_admissible(bound=8)][0] == ["c", "b", "a"]
    assert s["equality without definition"].system.defined == {}
    assert s["negative constant"].system.negative_constant
    assert s["negative constant"].sample_admissible() == []
    assert s["no parameters"].sample_admissible() == [{}]
    assert len(s["stops at limit"].sample_admissible(bound=8, limit=5)) == 2
    assert len(s["stops at limit"].sample_admissible(bound=8)) == 8
    assert s["unsatisfiable"].sample_admissible(bound=8, limit=5) == []
    assert s["mixed"].sample_admissible(bound=8)
    assert s["lower bound above bound"].sample_admissible(bound=8) == []
    assert s["lower bound above bound"].sample_admissible(bound=30)
    assert s["long pruned prefix"].sample_admissible(bound=8, limit=5) == []
    assert min(sum(w.values()) for w in s["long pruned prefix"].sample_admissible(bound=8)) == 15


def test_param_system_hands_out_read_only_mappings():
    # the system is cached per table, so a write through it would change
    # every later witness search of the table
    table = parse((DATA / "d2" / "B4.symbolic.dmx").read_text())
    system = table.system
    assert system.order is not None
    for field in (system.defined, system.order, system.lows, system.highs):
        assert isinstance(field, MappingProxyType)
    assert "x1" in system.lows
    with pytest.raises(TypeError):
        system.lows["x1"] = 9
    assert len(table.sample_admissible(bound=8)) == 8
    assert SYNTHETIC["cyclic"].system.order is None


@pytest.mark.parametrize("name", ["cyclic", "negative constant", "lower bound above bound",
                                  "long pruned prefix", "mixed"])
def test_compiled_system_matches_a_fresh_computation_on_synthetic(name):
    # no corpus table has cyclic definitions, a negative constant entry or
    # a lower bound above a searched bound; these synthetic tables cover each
    table = SYNTHETIC[name]
    system = table.system
    assert list(system.entry_box) == list(system.entries)
    for expr, got in system.entry_box.items():
        assert got == (system.reduce(expr), *system.bounds(expr)), expr
    order = [(bound, limit) for limit in (5, 4000) for bound in (0, 3, 8, 12, 30)]
    got = [_items(table.sample_admissible(bound=b, limit=n)) for b, n in order + order[::-1]]
    tables._counter.cache_clear()
    fresh = tables.parse.__wrapped__(SYNTHETIC_TEXT[name])
    assert fresh == table and fresh.system is not system
    want = [_items(fresh.sample_admissible(bound=b, limit=n)) for b, n in order + order[::-1]]
    assert got == want


def test_counter_matches_brute_force_enumeration():
    for k in range(4):
        for caps in itertools.product(range(4), repeat=k):
            room, count = tables._counter(caps)
            assert room == tuple(sum(caps[i:]) for i in range(k + 1)), caps
            for i in range(k + 1):
                sums = Counter(map(sum, itertools.product(*(range(c + 1) for c in caps[i:]))))
                assert [count(i, r) for r in range(room[i] + 1)] == [
                    sums[r] for r in range(room[i] + 1)], (caps, i)
    assert tables._counter((3, 0, 2)) is tables._counter((3, 0, 2))


def test_compile_reduces_each_definition_constraint_and_entry_once(monkeypatch):
    calls = []
    substitute = ParamExpr.substitute
    monkeypatch.setattr(ParamExpr, "substitute",
                        lambda expr, values: calls.append(expr) or substitute(expr, values))
    tried = [(rel, t) for rel, t in CORPUS if t.params]
    tried += [(name, SYNTHETIC[name]) for name in ("chain", "mixed", "long pruned prefix")]
    for rel, table in tried:
        calls.clear()
        system = tables.ParamSystem.compile(table)
        assert system.order is not None and system.entry_box, rel
        assert len(calls) == len(system.defined) + len(table.constraints) + len(
            system.entries), rel
    assert len(tried) > 10


def _random_form(rng, names, const_range=(0, 9)):
    """Random affine text over some of `names`, like '4-2a+c'."""
    text = str(rng.randint(*const_range))
    for p in rng.sample(names, rng.randint(1, min(3, len(names)))):
        c = rng.choice([-3, -2, -1, 1, 1, 2, 3])
        text += ("+" if c > 0 else "-") + (str(abs(c)) if abs(c) > 1 else "") + p
    return text


def _random_synthetic(rng):
    """A `_synthetic` table with up to 3 free and 2 chained defined
    parameters, equalities without a +-1 coefficient, one-variable lower and
    upper bounds, joint inequalities and random affine entries."""
    free = rng.sample("abcfg", rng.randint(1, 3))
    names = list(free)
    constraints = []
    for p in ["d", "e"][:rng.randint(0, 2)]:
        # each definition uses the parameters before it, the last defined one too
        constraints.append(f"{p}={_random_form(rng, names)}")
        names.append(p)
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        p, q = rng.choice(names), rng.choice(names)
        if kind < 0.2:
            constraints.append(f"{p}>={rng.randint(1, 4)}")
        elif kind < 0.4:
            constraints.append(f"{p}<={rng.randint(0, 6)}")
        elif kind < 0.55:
            constraints.append(f"{rng.choice([2, 3])}{p}={rng.choice([2, 4, 6])}{q}")
        elif kind < 0.65:
            constraints.append(f"{rng.choice([2, 3])}{p}={rng.choice([0, 3, 6])}+2{q}")
        else:
            constraints.append(f"{_random_form(rng, names, (-8, 4))}>=0")
    entries = [(i, j, _random_form(rng, names) if rng.random() < 0.7
                else rng.choice(names))
               for j in range(5) for i in range(j + 1, 5) if rng.random() < 0.4]
    return _synthetic(" ".join(names), "; ".join(constraints), entries)


@pytest.fixture
def verdicts(monkeypatch):
    """The result of each DecompTable.is_admissible call made in the test.

    The differential tests pass as well when the witness search skips no
    subtree; a search that skips every inadmissible candidate passes only
    witnesses to is_admissible."""
    out = []
    is_admissible = tables.DecompTable.is_admissible

    def recording(table, assignment):
        out.append(is_admissible(table, assignment))
        return out[-1]

    monkeypatch.setattr(tables.DecompTable, "is_admissible", recording)
    return out


@pytest.mark.parametrize("bound,limit", [(8, 4000), (8, 7), (12, 3), (5, 40)])
def test_sample_admissible_matches_reference_on_fuzzed_tables(bound, limit, verdicts):
    rng = random.Random(1000 * bound + limit)
    for _ in range(150):
        table = _random_synthetic(rng)
        want = Reference(with_param_entries(table)).sample_admissible(bound=bound, limit=limit)
        verdicts.clear()
        got = table.sample_admissible(bound=bound, limit=limit)
        assert _items(got) == _items(want), emit(table)
        assert verdicts == [True] * len(got), emit(table)


@pytest.mark.parametrize("bound", [8, 30])
def test_witness_search_skips_every_inadmissible_candidate_on_corpus(bound, verdicts):
    for rel, table in CORPUS:
        verdicts.clear()
        witnesses = table.sample_admissible(bound=bound)
        assert verdicts == [True] * len(witnesses), rel
