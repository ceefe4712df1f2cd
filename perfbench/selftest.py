"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 perfbench/selftest.py

- two traced passes of corpus-verify give identical call and build counts;
- a verify TSV with one tree verdict flipped to `fail` is counted as a
  failed operation, and so is a wrong library answer;
- changing the seed changes the library-checks inputs and nothing else.

Takes 10 to 20 s: it runs two traced corpus-verify children and one
untraced verify pass in this process.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def traced_counts(workload):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--trace", "1"]
    payload = json.dumps(inputs.make_inputs(workload, 1))
    proc = subprocess.run(cmd, input=payload, capture_output=True, text=True,
                          env=run.child_env(), timeout=run.CHILD_TIMEOUT_S, check=True)
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    return {k: v for k, v in layers.items() if k.endswith((".calls", ".builds", ".coeff_ops"))}


class TracedCounts(unittest.TestCase):
    def test_two_traced_runs_agree(self):
        first = traced_counts("corpus-verify")
        second = traced_counts("corpus-verify")
        self.assertEqual(first, second)
        self.assertGreater(first["blocks.tree_check.calls"], 0)


class Oracle(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.inputs = inputs.make_inputs("corpus-verify", 1)
        cls.code, cls.tsv = workloads.run_corpus_verify(cls.inputs)

    def outcome(self, output):
        out = workloads.Outcome()
        workloads.check_corpus_verify(self.inputs, output, out)
        return out

    def test_shipped_tsv_passes(self):
        out = self.outcome((self.code, self.tsv))
        self.assertEqual(out.failed, 0, out.notes)
        self.assertGreater(out.attempted, 0)

    def test_flipped_tree_verdict_fails(self):
        lines = self.tsv.splitlines(keepends=True)
        i = next(k for k, ln in enumerate(lines) if "\ttree\tpass\t" in ln)
        lines[i] = lines[i].replace("\ttree\tpass\t", "\ttree\tfail\t")
        out = self.outcome((self.code, "".join(lines)))
        self.assertEqual(out.failed, 1)
        self.assertEqual(out.tsv_identical, 0)

    def test_missing_tree_record_fails(self):
        lines = self.tsv.splitlines(keepends=True)
        i = next(k for k, ln in enumerate(lines) if "\ttree\t" in ln)
        out = self.outcome((self.code, "".join(lines[:i] + lines[i + 1:])))
        self.assertEqual(out.failed, 1)

    def test_wrong_library_answer_fails(self):
        ops = [{"op": "hecke", "rank": 5, "b1": "1", "branch": "1", "d": 2, "want": None},
               {"op": "coxeter", "group": "E7"},
               {"op": "dl_multiplicity", "series": "D", "rank": 5, "pos": [], "neg": [4, 1],
                "char": "steinberg"},
               {"op": "hc_induce", "levi": inputs.KNOWN_HC_GAP[0],
                "target": inputs.KNOWN_HC_GAP[1]}]
        gap = ("raised", "HCError", "odd coefficient at a degenerate label")
        out = workloads.Outcome()
        right = [("ok", 36), ("ok", 18), ("ok", -1), gap]
        workloads.check_library_checks({"ops": ops}, right, out)
        self.assertEqual((out.attempted, out.failed, out.known_gap_raised), (4, 0, 1))
        out = workloads.Outcome()
        wrong = [("ok", 35), ("ok", 17), ("ok", 1), gap]
        workloads.check_library_checks({"ops": ops}, wrong, out)
        self.assertEqual(out.failed, 3)


class Seeds(unittest.TestCase):
    def test_seed_changes_only_library_inputs(self):
        for name in ("corpus-verify", "table-checks"):
            self.assertEqual(inputs.make_inputs(name, 1), inputs.make_inputs(name, 2))
        self.assertNotEqual(inputs.make_inputs("library-checks", 1),
                            inputs.make_inputs("library-checks", 2))
        self.assertEqual(inputs.make_inputs("library-checks", 3),
                         inputs.make_inputs("library-checks", 3))


if __name__ == "__main__":
    unittest.main()
