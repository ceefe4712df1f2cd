import dataclasses
import pathlib
import random

import pytest

from unipdec import tables, verify
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


def test_shipped_tables_roundtrip():
    count = 0
    for f in all_dmx():
        t = parse(f.read_text())
        t2 = parse(emit(t))
        assert emit(t2) == emit(t), f.name
        count += 1
    assert count >= 20


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


def _items(witnesses):
    # dict equality ignores key order; the witness dicts' order is compared too
    return [list(w.items()) for w in witnesses]


CORPUS = list(verify.corpus_tables())


def test_corpus_has_26_tables():
    assert len(CORPUS) == 26


@pytest.mark.parametrize("bound", [8, 30])
def test_sample_admissible_matches_reference_on_corpus(bound):
    for rel, table in CORPUS:
        want = Reference(table).sample_admissible(bound=bound)
        assert _items(table.sample_admissible(bound=bound)) == _items(want), rel


def test_resolve_and_is_admissible_match_reference_on_corpus():
    rng = random.Random(5)
    # without its constraints a table's entries decide admissibility alone
    unconstrained = [(rel + " unconstrained", dataclasses.replace(table, constraints=()))
                     for rel, table in CORPUS]
    for rel, table in CORPUS + unconstrained:
        ref = Reference(table)
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
    return parse("\n".join(lines) + "\n")


SYNTHETIC = {
    # a and b define each other; c stays free
    "cyclic": _synthetic("a b c", "a=b+c; b=a-1", [(1, 0, "a"), (2, 0, "b")]),
    # a waits for b, which waits for c: witnesses are ordered c, b, a
    "chain": _synthetic("a b c", "a=b+1; b=c-2", [(1, 0, "a"), (2, 1, "3-b")]),
    # 2a=2b has no coefficient +-1, so it defines nothing and only filters
    "equality without definition": _synthetic("a b", "2a=2b; a>=1",
                                              [(1, 0, "a"), (3, 2, "5-b")]),
    "negative constant": _synthetic("a", "", [(1, 0, "a"), (4, 3, "-1")]),
    "no parameters": _synthetic("", "", [(1, 0, "2"), (4, 0, "1"), (3, 1, "3")]),
    # witnesses a = b at every even excess: `limit` ends the search early
    "stops at limit": _synthetic("a b", "a<=b; b<=a", [(1, 0, "a"), (2, 1, "b")]),
    # nothing is admissible: the search runs to 50 * limit
    "unsatisfiable": _synthetic("a b", "a+b>=100", [(1, 0, "a"), (2, 1, "b")]),
    # entries and inequalities with coefficients and a lower bound
    "mixed": _synthetic("a b c d", "d=2a-b; b>=2; c<=3; 3a+c>=4",
                        [(1, 0, "a"), (2, 0, "d"), (3, 1, "6-a-c"), (4, 2, "2c-b+1")]),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
@pytest.mark.parametrize("bound,limit", [(8, 4000), (30, 4000), (8, 5), (30, 3)])
def test_sample_admissible_matches_reference_on_synthetic(name, bound, limit):
    table = SYNTHETIC[name]
    want = Reference(table).sample_admissible(bound=bound, limit=limit)
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
