"""Self-tests of the benchmark's own pieces: ``python3 perfbench/selftest.py``.

They cover the seeded sampler, the self-time arithmetic of the tracer, and
the path from a wrong output to a failed op.  The library checks run the
package from ``src`` in this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


class SamplerTest(unittest.TestCase):
    def test_same_seed_same_bytes_across_processes(self):
        code = (
            "import json, sys; sys.path.insert(0, %r); import inputs; "
            "print(json.dumps([inputs.workload_ops(w, 7) for w in %r]))"
            % (str(HERE), run.WORKLOADS)
        )
        outs = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            outs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                    capture_output=True, check=True).stdout)
        self.assertEqual(len(outs), 1)
        here = json.dumps([inputs.workload_ops(w, 7) for w in run.WORKLOADS]).encode()
        self.assertEqual(outs.pop().strip(), here)

    def test_seeds_differ(self):
        for w in run.WORKLOADS:
            self.assertNotEqual(inputs.workload_ops(w, 1), inputs.workload_ops(w, 2), w)

    def test_words_are_distinct_t_words(self):
        import random

        rng = random.Random(3)
        words = inputs.stratified_words(rng, 6, 40, 120)
        self.assertEqual(len(set(words)), 40)
        basis = {inputs.fmt(w) for w in inputs.all_t_words(6)}
        self.assertEqual(len(basis), inputs.t_word_count(6))
        self.assertTrue(set(words) <= basis)

    def test_cut_count_matches_enumeration(self):
        for w in inputs.all_t_words(5):
            self.assertEqual(sum(inputs.coproduct_terms(w).values()), inputs.cut_count(w))


def _dump(spans_list, names):
    """A dump from (name, start, end, parent) rows."""
    from array import array

    return {
        "names": names,
        "counts": {},
        "name_of": array("q", [names.index(s[0]) for s in spans_list]),
        "start": array("q", [s[1] for s in spans_list]),
        "end": array("q", [s[2] for s in spans_list]),
        "parent": array("q", [s[3] for s in spans_list]),
    }


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        names = ["algebra.coproduct", "forest.cut_split", "forest.standardize"]
        d = _dump(
            [
                ("algebra.coproduct", 0, 100, -1),
                ("forest.cut_split", 10, 40, 0),
                ("forest.standardize", 15, 25, 1),
                ("forest.cut_split", 50, 70, 0),
                ("algebra.coproduct", 200, 230, -1),
            ],
            names,
        )
        s = spans.summarize(d)
        self.assertEqual(s["per_name"]["algebra.coproduct"]["self_ns"], 50 + 30)
        self.assertEqual(s["per_name"]["forest.cut_split"]["self_ns"], 20 + 20)
        self.assertEqual(s["per_name"]["forest.standardize"]["self_ns"], 10)
        self.assertEqual(s["per_name"]["forest.cut_split"]["calls"], 2)
        self.assertEqual(s["layer_self_ns"]["forest"], 50)
        self.assertEqual(s["layer_self_ns"]["algebra"], 80)
        self.assertEqual(s["top_ns"], 130)
        self.assertEqual(sum(s["layer_self_ns"].values()), s["top_ns"])

    def test_recursion_counts_outermost_span_once(self):
        names = ["algebra.antipode"]
        d = _dump([("algebra.antipode", 0, 100, -1), ("algebra.antipode", 10, 60, 0)], names)
        s = spans.summarize(d)
        self.assertEqual(s["per_name"]["algebra.antipode"]["incl_ns"], 100)
        self.assertEqual(s["per_name"]["algebra.antipode"]["self_ns"], 100)

    def test_traced_cli_process_adds_up(self):
        import tempfile

        fd, path = tempfile.mkstemp(prefix=".perfbench-tmp-", dir=HERE.parent)
        os.close(fd)
        self.addCleanup(os.unlink, path)
        forest = "2[4[1] 3]"
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_entry.py"), path, "coproduct", forest],
            env=run.child_env(), capture_output=True, text=True,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        s = spans.summarize(spans.load(path))
        per = s["per_name"]
        self.assertEqual(per["cli.execute"]["calls"], 1)
        self.assertEqual(per["algebra.coproduct"]["calls"], 1)
        cuts = inputs.cut_count(inputs.parse(forest))
        # calls between modules go through the rebound names
        self.assertEqual(per["forest.cut_split"]["calls"], cuts)
        self.assertEqual(per["forest.standardize"]["calls"], 2 * cuts)
        self.assertGreater(per["forest.format_forest"]["calls"], 0)
        self.assertEqual(s["counts"]["algebra.coproduct.terms"], len(proc.stdout.splitlines()))
        self.assertEqual(sum(s["layer_self_ns"].values()), s["top_ns"])
        self.assertEqual(s["top_ns"], per["cli.execute"]["incl_ns"])

    def test_tail_has_ten_samples_beyond(self):
        values = list(range(100))
        value, rank = run.tail(values)
        self.assertEqual(sum(v > value for v in values), 10)
        self.assertEqual(rank, 90.0)
        self.assertEqual(run.tail([3, 1, 2]), (3, 100.0))
        values = list(range(1000))
        value, rank = run.tail(values)
        self.assertEqual((value, rank), (949, 95.0))
        self.assertEqual(sum(v > value for v in values), 50)


class TamperTest(unittest.TestCase):
    def test_tampered_coproduct_output_fails(self):
        import graftwood

        ops = inputs.workload_ops("coproduct-stream", 5)[:6]
        outputs, _ = worker.run_coproduct_stream(graftwood, ops)
        self.assertEqual(worker.check_outputs("coproduct-stream", ops, outputs), [True] * 6)
        tampered = [list(o) for o in outputs]
        tampered[2][1] = "2" + tampered[2][1][1:]
        verdicts = worker.check_outputs("coproduct-stream", ops, tampered)
        self.assertEqual(verdicts.count(False), 1)

    def test_tampered_antipode_fails(self):
        import graftwood

        ops = [["antipode", "1[2] 3"], ["antipode", "3[1 2]"], ["primtot", 3]]
        outputs, _ = worker.run_antipode_primtot(graftwood, ops)
        table = worker.antipode_table(graftwood, ops)
        self.assertEqual(worker.check_outputs("antipode-primtot", ops, outputs, table), [True] * 3)
        bad = dict(table)
        bad["1[2]"] = {k: v + Fraction(1, 2) for k, v in table["1[2]"].items()}
        self.assertEqual(worker.check_outputs("antipode-primtot", ops, outputs, bad),
                         [False, True, True])
        wrong = graftwood.AlgebraElement.of(graftwood.parse_forest("3[1 2]"), -1)
        self.assertEqual(worker.check_outputs("antipode-primtot", ops, [outputs[0], wrong, 5], table),
                         [True, False, False])

    def test_tampered_cli_output_counts_in_fail_ratio(self):
        ops = [list(a) for a in inputs.README_EXAMPLES]
        honest = {tuple(a): "\n".join(inputs._readme_expected(tuple(a))) + "\n" for a in ops}
        honest[tuple(ops[3])] = "2[3 1]\n"

        def fake_run(cmd, **kwargs):
            argv = tuple(cmd[3:])
            return SimpleNamespace(returncode=0, stdout=honest[argv].encode())

        with mock.patch.object(run.subprocess, "run", fake_run):
            p = run.cli_pass(ops, None)
        self.assertEqual((p["ops"], p["failed"]), (len(ops), 1))

    def test_later_pass_must_reproduce_checked_outputs(self):
        reference = {"ok": [True, False, True], "digests": ["aa", "bb", "cc"]}
        later = {"lat_ns": [1, 2, 3], "loop_ns": 6, "maxrss_kb": 1, "digests": ["aa", "bb", "cd"]}
        fake = SimpleNamespace(returncode=0, stdout=json.dumps(later).encode(), stderr=b"")
        with mock.patch.object(run.subprocess, "run", return_value=fake) as spawn:
            p = run.library_pass("coproduct-stream", ["1", "2", "3"], None, reference)
        self.assertFalse(json.loads(spawn.call_args.kwargs["input"])["check"])
        self.assertEqual((p["ok"], p["failed"]), ([True, False, False], 2))

    def test_digest_ignores_term_order_only(self):
        lines = ["1 * () (x) 1", "1 * 1 (x) ()"]
        self.assertEqual(worker.digest("coproduct-stream", lines),
                         worker.digest("coproduct-stream", lines[::-1]))
        self.assertNotEqual(worker.digest("coproduct-stream", lines),
                            worker.digest("coproduct-stream", ["2" + lines[0][1:], lines[1]]))

    def test_dendriform_row_drift_fails(self):
        good = "ok   DELTASUCC: fine\nFAIL DELTAPREC: 58 of 194 cases fail, e.g. (1, 1[2])\n" \
               "suite dendriform at degree 5: FAIL\n"
        argv = ["check", "--suite", "dendriform"]
        self.assertTrue(inputs.check_cli(argv, 1, good))
        self.assertFalse(inputs.check_cli(argv, 1, good.replace("58 of", "57 of")))
        self.assertFalse(inputs.check_cli(argv, 0, good))


if __name__ == "__main__":
    unittest.main()
