import io
import pathlib
import sys

import pytest

from unipdec.cli import main

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


@pytest.mark.parametrize("name, line, why", [
    ("Q9.trees", "1^3. -- O", "cannot parse group descriptor 'Q9'"),
    ("D4.trees", "21^2. -- O -- O", "exactly one exceptional vertex"),
    ("E7.trees", "phi{1,0} -- O", "no E7 catalog"),
])
@pytest.mark.parametrize("command", ["verify", "trees"])
def test_malformed_tree_file_exits_2(tmp_path, capsys, name, line, why, command):
    d = tmp_path / "d3"
    d.mkdir()
    (d / name).write_text(line + "\n")
    code, out = run(["--corpus", str(tmp_path), command])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: d3/{name}: ") and why in err
