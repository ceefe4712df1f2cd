import io
import os
import pathlib
import shlex
import shutil
import subprocess
import sys

import pytest

from unipdec.cli import main
from unipdec.verify import corpus_tables

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "unipdec" / "data"


def run(args):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_hecke_count():
    code, out = run(["hecke", "--type", "B", "--rank", "2", "--b1", "1",
                     "--branch", "1", "--d", "6"])
    assert code == 0 and out.strip() == "5"


def test_hecke_spec_product():
    code, out = run(["hecke", "--spec", "A1;q x B2;q^2;q", "--d", "2"])
    assert code == 0 and out.strip() == "2"


def test_degrees_d4():
    code, out = run(["degrees", "--group", "D4", "--d", "2"])
    assert code == 0
    assert out.count("\n") == 15  # header + 14 characters
    assert "q*P4^2" in out


def test_degrees_unknown_group():
    code, _ = run(["degrees", "--group", "E7", "--d", "2"])
    assert code == 3


def test_craven_b6_reproduces_pi6():
    code, out = run(["--format", "tsv", "craven", "--group", "B6", "--d", "6"])
    assert code == 0
    values = {}
    for line in out.splitlines()[1:]:
        parts = line.split("\t")
        values[parts[0]] = parts[-1]
    for lab, want in (("B6", "11"), ("21^3.1", "10"), ("B2:1.21", "10"),
                      ("1^3.21", "10"), ("1^4.1^2", "11"), ("B2:.2^2", "11"),
                      ("21^4.", "11"), (".31^3", "10"), (".21^4", "11"),
                      ("1^6.", "12"), (".1^6", "12")):
        assert values[lab] == want


def test_verify_subset_and_determinism():
    code1, out1 = run(["verify", "--only", "d=3", "--group", "D6"])
    code2, out2 = run(["verify", "--only", "d=3", "--group", "D6"])
    assert code1 == 0 and out1 == out2
    assert "craven" in out1


def test_verify_corrupted_corpus(tmp_path):
    d = tmp_path / "d2"
    d.mkdir()
    (d / "X.dmx").write_text("[table]\ngroup = D4\nd=2\n[chars]\n[cols]\n")
    code, _ = run(["--corpus", str(tmp_path), "verify"])
    assert code == 2


def test_induce():
    code, out = run(["induce", "--char", "4.", "--rank", "5"])
    assert code == 0
    assert "4.1" in out and "41." in out and "5." in out


def test_trees_subcommand():
    code, out = run(["trees", "--only", "d=14"])
    assert code == 0 and "pass" in out


def test_verify_tsv_matches_golden_output():
    # tests/data/verify.tsv is `unipdec --format tsv verify` over the shipped
    # corpus; a refactor must reproduce it byte for byte.
    code, out = run(["--corpus", str(DATA), "--format", "tsv", "verify"])
    assert code == 0
    golden = (pathlib.Path(__file__).parent / "data" / "verify.tsv").read_text()
    assert out == golden


def test_degrees_tsv_matches_golden_output():
    # tests/data/degrees.tsv is `unipdec --format tsv degrees` for every
    # (group, d) pair of the corpus tables that has a catalog (no E8), one
    # block per pair under a "# <group> d=<d>" line.  It pins the present
    # output, not values known to be true: the F4 rows phi{4,7}' and
    # phi{4,7}'' fail the catalog identities (ROADMAP item 6), and their
    # fix must update the file.
    golden = (pathlib.Path(__file__).parent / "data" / "degrees.tsv").read_text()
    blocks = {}
    for block in golden.split("# ")[1:]:
        head, body = block.split("\n", 1)
        blocks[head] = body
    pairs = {f"{t.group} d={t.d}" for _, t in corpus_tables(str(DATA)) if str(t.group) != "E8"}
    assert set(blocks) == pairs and len(pairs) == 22
    for head, body in blocks.items():
        group, d = head.split(" d=")
        code, out = run(["--format", "tsv", "degrees", "--group", group, "--d", d])
        assert code == 0 and out == body, head


# (directory, file, text, error, the line the error names or None for an
# error in the file's name)
_BAD_TREES = [
    ("d3", "Q9.trees", "1^3. -- O", "cannot parse group descriptor 'Q9'", None),
    ("d3", "D4.trees", "21^2. -- O -- O", "exactly one exceptional vertex", 1),
    ("d3", "E7.trees", "phi{1,0} -- O", "no E7 catalog", 1),
    ("dx", "D3.trees", ".3 -- .21 -- .1^3 -- O", "'dx' is not d<n> with n >= 1", None),
    ("d0", "D3.trees", ".3 -- .21 -- .1^3 -- O", "'d0' is not d<n> with n >= 1", None),
    ("d3", "D4.trees", "zz -- O -- .4", "bad partition 'zz'", 1),
    ("d3", "D4.trees", "# a comment\n\nzz -- O -- .4", "bad partition 'zz'", 3),
    ("d3", "D4.trees", ".4 -- O\n5. -- O", "label '5.' not in catalog of D4", 2),
    ("d3", "D4.trees", "310. -- O", "bad partition '310'", 1),
]


# a d3 case's id leaves out the directory, so the older cases keep their names
@pytest.mark.parametrize("sub, name, text, why, line", _BAD_TREES, ids=[
    "-".join(case[1:4] if case[0] == "d3" else case[:4]) for case in _BAD_TREES])
@pytest.mark.parametrize("command", ["verify", "trees"])
def test_malformed_tree_file_exits_2(tmp_path, capsys, sub, name, text, why, line, command):
    d = tmp_path / sub
    d.mkdir()
    (d / name).write_text(text + "\n")
    code, out = run(["--corpus", str(tmp_path), command])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    where = f"error: {sub}/{name}: " + (f"line {line}: " if line else "")
    assert err.startswith(where) and why in err and (line or "line" not in err)


@pytest.mark.parametrize("selection", [["--only", "d=5"], ["--group", "B4"]])
def test_bad_tree_label_outside_the_selection_exits_2(tmp_path, capsys, selection):
    # every tree is resolved when its file is read, as every table is
    d = tmp_path / "d3"
    d.mkdir()
    (d / "D4.trees").write_text(".4 -- O\nzz -- O\n")
    code, out = run(["--corpus", str(tmp_path), "trees"] + selection)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: d3/D4.trees: line 2: bad partition 'zz'")


def test_trees_tsv_matches_golden_output():
    # tests/data/trees.tsv is `unipdec --format tsv trees` over the shipped
    # corpus; a refactor must reproduce it byte for byte.
    code, out = run(["--corpus", str(DATA), "--format", "tsv", "trees"])
    assert code == 0
    assert out == (pathlib.Path(__file__).parent / "data" / "trees.tsv").read_text()


_TABLE = "[table]\ngroup = D4\nd = 2\n[chars]\n.4 | 1\n[cols]\nseries=ps : .4=1\n"
_COLS = ".4 | 1\n[cols]\nseries=ps : .4=1\n"  # replaced to give a second row and column


@pytest.mark.parametrize("old, new, why", [
    ("d = 2", "d = x", "line 3: d must be an integer, not 'x'"),
    ("group = D4\n", "", "no 'group' key"),
    (".4 | 1", ".4 | q^", "line 5: bad factor 'q^'"),
    ("group = D4", "group = Q9", "line 2: cannot parse group descriptor 'Q9'"),
    ("d = 2", "d = 0", "line 3: d must be positive, not 0"),
    ("d = 2", "d = -6", "line 3: d must be positive, not -6"),
    ("d = 2\n", "", "no 'd' key"),
    ("d = 2", "d = 3", "d = 3 but the directory is d2"),
    ("d = 2", "d = 2\nconstraint = 1 >= 0", "line 4: unknown key 'constraint' in [table]"),
    ("d = 2", "d = 2\ndegrees = ful",
     "line 4: degrees must be full, leading or none, not 'ful'"),
    ("d = 2", "d = 2\ngroup = B4", "line 4: key 'group' repeated in [table] (first on line 2)"),
    (".4=1", ".4=1 .4=7", "line 7: row '.4' given twice in one column"),
    # {4, -} written in both orientations is one type-D row
    (".4=1", ".4=1 4.=7", "line 7: row '.4' given twice in one column"),
    (".4 | 1", ".4 | 1\n| 1", "line 6: empty label"),
    (".4 | 1", ".4 | 1\nx.y", "line 6: bad partition 'x'"),
    # a label of B5, not of D4, as a row and as an entry
    (".4 | 1", ".4 | 1\n5.", "line 6: label '5.' not in catalog of D4"),
    (".4=1", ".4=1 5.=1", "line 7: label '5.' not in catalog of D4"),
    # a zero part is an error, not dropped (310. is not 31.)
    (".4 | 1", ".4 | 1\n310.", "line 6: bad partition '310'"),
    (".4=1", ".4=1 3.10=1", "line 7: bad partition '10'"),
    (".4=1", ".4=a*b", "line 7: cannot parse expression 'a*b' at '*b'"),
    (".4 | 1", ".4 | 1\n4.", "line 6: duplicate row label '.4' (first on line 5)"),
    (".4=1", ".4=1 31.=1", "line 7: column 1: unknown label '.31'"),
    (_COLS, ".4 | 1\n1.3\n[cols]\nseries=ps : .4=1\nseries=ps : .4=2\n",
     "line 9: column 2 has no diagonal 1 at '1.3'"),
    (_COLS, ".4 | 1\n1.3\n[cols]\nseries=ps : .4=1\nseries=ps : .4=2 1.3=1\n",
     "line 9: column 2 has entries above the diagonal"),
    ("d = 2", "d = 2\nconstraints = a", "line 4: no relation in constraint 'a'"),
    (_COLS, ".4 | 1\n1.3\n[cols]\nseries=ps : .4=1 1.3=b\nseries=ps : 1.3=1\n",
     "line 8: undeclared parameters ['b']"),
])
def test_malformed_table_file_exits_2(tmp_path, capsys, old, new, why):
    d = tmp_path / "d2"
    d.mkdir()
    (d / "X.dmx").write_text(_TABLE.replace(old, new))
    code, out = run(["--corpus", str(tmp_path), "verify"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: d2/X.dmx: ") and why in err


def _exceptional_table_error(tmp_path, capsys, name, edit):
    """The exit code, stdout and stderr of `verify` over a one-table corpus
    holding `edit` applied to the shipped d2/<name>."""
    d = tmp_path / "d2"
    d.mkdir()
    (d / name).write_text(edit((DATA / "d2" / name).read_text()))
    code, out = run(["--corpus", str(tmp_path), "verify"])
    return code, out, capsys.readouterr().err


def test_label_missing_from_an_exceptional_catalog_exits_2(tmp_path, capsys):
    # every occurrence renamed: rows are checked first, so the row's line is named
    code, out, err = _exceptional_table_error(
        tmp_path, capsys, "E6.principal.dmx", lambda text: text.replace("phi{1,0}", "zz"))
    assert code == 2 and out == ""
    assert err == ("error: d2/E6.principal.dmx: line 9: unknown label 'zz' "
                   "(not in the E6 catalog)\n")


def test_empty_exceptional_label_exits_2(tmp_path, capsys):
    code, out, err = _exceptional_table_error(
        tmp_path, capsys, "F4.principal.dmx",
        lambda text: text.replace("[chars]\n", "[chars]\n| 1\n"))
    assert code == 2 and out == ""
    assert err == "error: d2/F4.principal.dmx: line 9: empty label\n"


@pytest.mark.parametrize("old, new, line", [
    ("phi{112,3}", "phi{112,3}'''", 9),      # three primes
    ("phi{112,3}", "zz", 9),
    ("D4:phi{8,3}'", "B2:phi{8,3}'", 13),    # not a series of E8
    ("E6[z3]:phi{2,2}", "E6[]:phi{2,2}", 18),
    ("phi{3200,22}", "E8[z]:phi{3200,22}", 22),
])
def test_malformed_e8_label_exits_2(tmp_path, capsys, old, new, line):
    # E8 ships no catalog: a label must still be phi{n,b}, a series-prefixed
    # phi{n,b} or a cuspidal name; every occurrence is renamed, so the row's
    # line is named
    d = tmp_path / "d6"
    d.mkdir()
    (d / "E8.phi6sq.dmx").write_text((DATA / "d6" / "E8.phi6sq.dmx").read_text()
                                     .replace(old, new))
    code, out = run(["--corpus", str(tmp_path), "verify"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (f"error: d6/E8.phi6sq.dmx: line {line}: "
                                       f"bad E8 label {new!r}\n")


@pytest.mark.parametrize("sub, name, command", [
    ("d2", "X.dmx", "verify"), ("d3", "D4.trees", "verify"), ("d3", "D4.trees", "trees")])
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, sub, name, command):
    d = tmp_path / sub
    d.mkdir()
    (d / name).write_bytes(b"[table]\ngroup = D4\xff\n")
    code, out = run(["--corpus", str(tmp_path), command])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sub}/{name}: ") and "can't decode byte 0xff" in err


@pytest.mark.parametrize("command", ["verify", "trees"])
@pytest.mark.parametrize("only", ["6", "d=0", "d=", "D=6", "d=6x", "d=-6"])
def test_only_filter_must_read_d_equals_n(capsys, command, only):
    # a filter that no table can match is a usage error, not an empty report
    with pytest.raises(SystemExit) as exc:
        main([command, "--only", only])
    assert exc.value.code == 2
    assert "expected d=<n> with n >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "trees"])
@pytest.mark.parametrize("group", ["e6", "Q9", "B1"])
def test_unknown_group_filter_exits_3(capsys, command, group):
    code, out = run([command, "--group", group])
    assert code == 3 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_filters_select_the_matching_golden_lines():
    golden = (pathlib.Path(__file__).parent / "data" / "verify.tsv").read_text().splitlines()
    want = [golden[0]] + [line for line in golden[1:] if line.startswith("d2/E6.")]
    code, out = run(["--corpus", str(DATA), "--format", "tsv", "verify",
                     "--only", "d=2", "--group", "E6"])
    assert code == 0 and out.splitlines() == want
    assert len(want) == 7  # five table checks and one tree


def _corpus_with_a_negative_entry(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(DATA, corpus)
    table = corpus / "d2" / "D4.all.dmx"
    text = table.read_text()
    table.write_text(text.replace("series=ps : 1.3=1 2+=1 ", "series=ps : 1.3=1 2+=-1 "))
    assert table.read_text() != text
    return corpus


def test_fail_fast_stops_after_the_first_failing_line(tmp_path):
    corpus = str(_corpus_with_a_negative_entry(tmp_path))
    code, out = run(["--corpus", corpus, "--format", "tsv", "verify"])
    lines = out.splitlines()
    fails = [k for k, line in enumerate(lines) if line.split("\t")[2] == "fail"]
    assert code == 1 and len(lines) == 242
    assert lines[fails[0]] == ("d2/D4.all.dmx\tsatisfiable\tfail\t"
                               "entry (2+, col 2) is the negative constant -1")
    code, out = run(["--corpus", corpus, "--format", "tsv", "verify", "--fail-fast"])
    assert code == 1 and out.splitlines() == lines[:fails[0] + 1]


def test_trees_prints_the_tree_lines_of_verify():
    code, verified = run(["--corpus", str(DATA), "--format", "tsv", "verify"])
    assert code == 0
    want = []
    for line in verified.splitlines()[1:]:
        path, check, status, evidence = line.split("\t")
        if check == "tree":
            want.append("\t".join((path, status, evidence)))
    code, out = run(["--corpus", str(DATA), "--format", "tsv", "trees"])
    assert code == 0 and len(want) == 124
    assert out.splitlines() == ["file\tstatus\ttree"] + want


def test_wellformed_table_file_verifies(tmp_path):
    d = tmp_path / "d2"
    d.mkdir()
    (d / "X.dmx").write_text(_TABLE)
    code, out = run(["--corpus", str(tmp_path), "--format", "tsv", "verify"])
    assert code == 0 and "d2/X.dmx\tunitriangular\tpass" in out


# `unipdec --format tsv induce` as it printed before single-character
# induction was memoised
_INDUCE_TSV = {
    ("4.", "5"): ["4.1\t1", "41.\t1", "5.\t1"],
    ("2.1", "5"): ["2.1^3\t1", "2.21\t2", "2.3\t1", "21.1^2\t2", "21.2\t2",
                   "21^2.1\t1", "2^2.1\t1", "3.1^2\t2", "3.2\t2", "31.1\t2", "4.1\t1"],
    (".1^2", "4"): [".1^4\t1", ".21^2\t2", ".2^2\t1", ".31\t1", "1.1^3\t2",
                    "1.21\t2", "1^2.1^2\t1", "2.1^2\t1"],
}


@pytest.mark.parametrize("char, rank", sorted(_INDUCE_TSV))
def test_induce_tsv_output(char, rank):
    code, out = run(["--format", "tsv", "induce", "--char", char, "--rank", rank])
    assert code == 0
    assert out.splitlines() == ["character\tmultiplicity"] + _INDUCE_TSV[char, rank]
    # a second run reads the memo and prints the same
    assert run(["--format", "tsv", "induce", "--char", char, "--rank", rank]) == (0, out)


@pytest.mark.parametrize("target", ["nodir/x.tsv", "."])
def test_verify_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, target):
    # the file is opened before the corpus is walked, so nothing is printed
    path = tmp_path / target
    code, out = run(["--corpus", str(DATA), "--format", "tsv", "verify", "--out", str(path)])
    assert code == 2 and out == ""
    reason = "No such file or directory" if target != "." else "Is a directory"
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize("fmt", ["tsv", "text"])
def test_verify_out_file_is_the_golden_tsv(tmp_path, fmt):
    out_file = tmp_path / "verify.tsv"
    code, out = run(["--corpus", str(DATA), "--format", fmt, "verify",
                     "--out", str(out_file)])
    assert code == 0
    golden = (pathlib.Path(__file__).parent / "data" / "verify.tsv").read_text()
    assert out_file.read_text() == golden
    if fmt == "tsv":
        assert out == golden
    else:
        assert out != golden and out.splitlines()[0].split() == [
            "table", "check", "status", "evidence"]


def test_python_dash_m_runs_verify_from_a_checkout():
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("UNIPDEC_CORPUS", None)
    proc = subprocess.run([sys.executable, "-m", "unipdec", "--format", "tsv", "verify"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "tests" / "data" / "verify.tsv").read_text()


@pytest.mark.parametrize("argv, code, message", [
    (["degrees", "--group", "D4", "--d", "0"], 2, "expected an integer >= 1, not '0'"),
    (["degrees", "--group", "D4", "--d", "-2"], 2, "expected an integer >= 1, not '-2'"),
    (["hecke", "--type", "B", "--d", "2"], 2, "one of the arguments --spec --rank"),
    (["hecke", "--spec", "B;q;q", "--d", "2"], 3, "error: no rank in 'B;q;q'"),
    (["induce", "--char", "3.1", "--rank", "2"], 3,
     "error: factor sizes exceed the target rank"),
], ids=["degrees-d-0", "degrees-d-minus-2", "hecke-no-rank", "hecke-spec-no-rank",
        "induce-too-large"])
def test_bad_requests_exit_without_a_traceback(capsys, argv, code, message):
    # 1 means "a check failed"; a bad argument is 2, an unsupported request 3
    try:
        got, _ = run(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert message in capsys.readouterr().err


_NEGATIVE = "entry (1^2, col 1) is the negative constant -1"
_FIXED = "no free parameters, and the one assignment is not admissible"


@pytest.mark.parametrize("head, entry, evidence", [
    ("", "-1", _NEGATIVE),
    ("params = a\n", "-1", _NEGATIVE),  # was "no admissible assignment found"
    ("constraints = 0>=1\n", "1", _FIXED),  # was "pass: no parameters"
    ("params = a\nconstraints = a=-1\n", "a", _FIXED),
], ids=["negative-no-params", "negative-one-param", "false-constant-constraint",
        "negative-defined-param"])
def test_satisfiable_fails_with_a_proof(tmp_path, head, entry, evidence):
    d = tmp_path / "d2"
    d.mkdir()
    (d / "A1.dmx").write_text(f"[table]\ngroup = A1\nd = 2\n{head}[chars]\n2\n1^2\n"
                              f"[cols]\nseries=ps : 2=1 1^2={entry}\nseries=ps : 1^2=1\n")
    code, out = run(["--corpus", str(tmp_path), "--format", "tsv", "verify"])
    assert code == 1
    assert out.splitlines()[-1] == f"d2/A1.dmx\tsatisfiable\tfail\t{evidence}"


@pytest.mark.parametrize("argv", [["hecke", "--type", "B", "--rank", "-3", "--d", "2"],
                                  ["induce", "--char", "2.1", "--rank", "-3"]],
                         ids=["hecke", "induce"])
def test_negative_rank_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "argument --rank: expected an integer >= 0, not '-3'" in capsys.readouterr().err


def readme_commands():
    """The `unipdec …` lines of the README's `## Command line` sh block."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("unipdec ")]


def test_readme_command_line_examples_exit_0(tmp_path, monkeypatch):
    commands = readme_commands()
    assert commands
    monkeypatch.chdir(tmp_path)  # `verify --out summary.tsv` writes here
    monkeypatch.delenv("UNIPDEC_CORPUS", raising=False)
    for argv in commands:
        assert run(argv)[0] == 0, argv
