"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests     (or pytest perfbench/tests)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import greenseq as gs  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_inputs(name: str, seed: int, count: int = 40) -> bytes:
    return json.dumps(list(islice(WORKLOADS[name](seed).inputs("main"), count))).encode()


class TestInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(first_inputs(name, 7), first_inputs(name, 7))
                self.assertNotEqual(first_inputs(name, 7), first_inputs(name, 8))

    def test_streams_differ(self):
        wl = WORKLOADS["query"](3)
        self.assertNotEqual(next(wl.inputs("main")), next(wl.inputs("warmup")))


class TestSelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        #  0 [0, 100]
        #  +- 1 [10, 40]
        #  |  +- 2 [15, 25]
        #  +- 3 [50, 90]
        #     +- 4 [60, 70]
        #     +- 5 [75, 85]
        #  6 [120, 130]
        start = [0, 10, 15, 50, 60, 75, 120]
        end = [100, 40, 25, 90, 70, 85, 130]
        parent = [-1, 0, 1, 0, 3, 3, -1]
        self.assertEqual(tracer.self_times(start, end, parent), [30, 20, 10, 20, 10, 10, 10])

    def test_spans_nest_and_originals_return(self):
        original = gs.stable_set
        t = tracer.Tracer(["stability.stable_set", "stability.candidate_pairs"])
        t.install()
        try:
            t.current_op = 4
            gs.stable_set(gs.make_charge(gs.finite_a("-+"), ["1/2", "3/2", -2], [1, 1, 1]))
        finally:
            t.uninstall()
        self.assertIs(gs.stable_set, original)
        self.assertEqual(list(t.name_id), [0, 1])
        self.assertEqual(list(t.parent), [-1, 0])
        self.assertEqual(list(t.op), [4, 4])
        self.assertTrue(t.start[0] <= t.start[1] <= t.end[1] <= t.end[0])


class Broken(WORKLOADS["fuzz"]):
    """Fuzz workload that gives a wrong answer on every third op and
    raises on the fifth."""

    def op(self, inp):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == 5:
            raise RuntimeError("injected")
        out = super().op(inp)
        return out + [{"injected": True}] if self.calls % 3 == 0 else out


class TestFailures(unittest.TestCase):
    def test_injected_wrong_answer_counts(self):
        wl = Broken(1)
        loop = worker.closed_loop(wl, islice(wl.inputs("main"), 9))
        _, detail = worker.end_to_end(loop, wl.tail_window)
        self.assertEqual((loop.attempted, loop.failed), (9, 4))
        self.assertAlmostEqual(detail["fail_ratio"], 4 / 9)

    def test_checks_reject_tampered_answers(self):
        def tamper_query(out):
            code, stdout, stderr = out
            doc = json.loads(stdout)
            doc["modules"] = doc["modules"][1:]
            return code, json.dumps(doc), stderr

        def tamper_sweep(out):
            *head, hom = out
            hom[0][0] = 0
            return (*head, hom)

        def tamper_witness(out):
            built, seq = out
            return built, gs.NonGeneric("tie", [])

        cases = {
            "fuzz": lambda out: [{"module": {"i": 0, "j": 1}}],
            "query": tamper_query,
            "sweep": tamper_sweep,
            "witness": tamper_witness,
        }
        for name, tamper in cases.items():
            with self.subTest(workload=name):
                wl = WORKLOADS[name](2)
                # first input whose untampered answer is correct and can be tampered
                for inp in wl.inputs("main"):
                    out = wl.op(inp)
                    self.assertTrue(wl.check(inp, out))
                    if name != "query" or inp[0] == "stable-set":
                        if name != "witness" or not isinstance(out[1], gs.NonGeneric):
                            break
                self.assertFalse(wl.check(inp, tamper(out)))

    def test_fuzz_rejects_kernels_wrong_in_the_same_way(self):
        wl = WORKLOADS["fuzz"](2)
        inp = next(wl.inputs("main"))
        self.assertTrue(wl.check(inp, wl.op(inp)))

        def everything_stable(Z, i, j, strict):
            return True

        with mock.patch.multiple(gs.stability, _oracle=everything_stable, _chord=everything_stable,
                                 _wire=everything_stable):
            out = wl.op(inp)
            self.assertEqual(out, [])
            self.assertFalse(wl.check(inp, out))


class TestContract(unittest.TestCase):
    def test_layer_map_covers_every_per_layer_metric(self):
        layer_map = json.loads((BENCH / "layer_map.json").read_text())
        mapped = [name for group in layer_map["map"] for name in group["metrics"]]
        self.assertEqual(sorted(mapped), sorted(m["name"] for m in SPEC["per_layer"]))

    def test_end_to_end_names(self):
        loop = worker.Loop()
        loop.latencies_ns, loop.attempted = list(range(1, 101)), 100
        loop.probes = [(0, worker.REFERENCE_PROBE_NS)]
        metrics, detail = worker.end_to_end(loop, 1000)
        self.assertEqual(sorted(metrics) + ["setup_s"], sorted(m["name"] for m in SPEC["end_to_end"]))
        self.assertEqual(metrics["op_p50_ms"][0], 50.5 / 1e6)

    def test_latencies_scaled_to_reference_speed(self):
        # the machine runs at half speed for the second half of the run
        ref = worker.REFERENCE_PROBE_NS
        loop = worker.Loop()
        loop.latencies_ns = [100] * 20 + [200] * 20
        loop.probes = [(k, ref if k < 20 else 2 * ref) for k in range(40)]
        norm = loop.normalized_ns()
        self.assertEqual(norm[:14], [100] * 14)
        self.assertEqual(norm[-14:], [100] * 14)

    def test_tail_is_median_over_windows(self):
        # five windows of 200 ops and a part window that is dropped; one
        # window holds a burst of slow ops
        lat = [1.0] * 1000
        lat[10:30] = [50.0] * 20
        for w in range(5):
            lat[w * 200 + 100 : w * 200 + 111] = [2.0] * 11
        value, pct, n = worker.tail(lat + [9.0] * 150, 200)
        self.assertEqual((value, pct, n), (2.0, 95.0, 1150))

    def test_fails_without_sources(self):
        scratch = ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                SPEC["command"] + ["--workload", "fuzz", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
