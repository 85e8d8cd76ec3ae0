"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench        (or: python3 -m pytest bench)
"""

from __future__ import annotations

import random
import sys
import unittest
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import parley  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def small_cases(seed: int) -> dict[str, list[workloads.Case]]:
    def rng(name: str) -> random.Random:
        return random.Random(f"{name}:{seed}")

    return {
        "bundled_mix": workloads.bundled_mix(seed, run.SCENARIOS, count=40),
        "wide_store": [workloads.wide_store_case(rng("wide"), n=60)],
        "deep_chain": [workloads.deep_chain_case(rng("deep"), d=8)],
        "search_fanout": [workloads.search_fanout_case(rng("fan"), k=4)],
    }


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        first, again, other = small_cases(3), small_cases(3), small_cases(4)
        for workload in first:
            texts = [case.text for case in first[workload]]
            self.assertEqual(texts, [case.text for case in again[workload]], workload)
            self.assertNotEqual(texts, [case.text for case in other[workload]], workload)

    def test_full_size_generation_is_deterministic(self):
        for workload in workloads.WORKLOADS:
            a = workloads.generate(workload, 7, run.SCENARIOS)
            b = workloads.generate(workload, 7, run.SCENARIOS)
            self.assertEqual([c.text for c in a], [c.text for c in b], workload)

    def test_inputs_parse_and_keep_their_shape(self):
        for workload, cases in small_cases(5).items():
            checks = run.Checks()
            for index, case in enumerate(cases):
                run.run_case(parley, case, checks, {}, index)
            self.assertEqual(checks.failed, 0, (workload, checks.notes))

    def test_shape_check_counts_a_mismatch_as_failure(self):
        case = small_cases(1)["deep_chain"][0]
        wrong = workloads.Case(case.label, case.text, workloads.Shape(nodes=7))
        checks = run.Checks()
        run.run_case(parley, wrong, checks, {}, 0)
        self.assertEqual(checks.failed, 1)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_time_once(self):
        # root [0,10]: a [1,4] (with d [2,3]), b [3,6] overlaps a, c [8,12]
        # runs past the root's end and is clipped to [8,10]
        parent = array("i", [-1, 0, 1, 0, 0])
        start = array("d", [0.0, 1.0, 2.0, 3.0, 8.0])
        end = array("d", [10.0, 4.0, 3.0, 6.0, 12.0])
        self.assertEqual(list(spans.self_times(parent, start, end)), [3.0, 2.0, 1.0, 3.0, 4.0])

    def test_nested_calls_of_one_layer_count_once(self):
        recorder = spans.Recorder()
        inner = recorder.wrap("beliefs.revise", lambda: None)
        outer = recorder.wrap("beliefs.revise", lambda: inner())
        with recorder.operation():
            outer()
            outer()
        metrics = spans.layer_metrics(recorder, 1, 0)
        self.assertEqual(metrics["beliefs.revise_calls"], (2.0, "count"))
        self.assertEqual(len(recorder), 5)

    def test_tail_keeps_ten_samples_beyond(self):
        samples = [float(i) for i in range(30)]
        self.assertEqual(run.tail(samples), (19.0, 100.0 * 20 / 30))
        self.assertEqual(run.tail(samples[:5]), (4.0, 100.0))
        self.assertEqual(run.tail(samples[:13]), (6.0, 100.0 * 7 / 13))
        # never below the median, which averages the middle pair
        self.assertEqual(run.tail(samples[:12]), (6.0, 100.0 * 7 / 12))

    def test_timed_run_scales_each_slice_by_the_host_speed(self):
        checks = run.Checks()
        timed = run.timed_run(parley, small_cases(6)["bundled_mix"], 0.5, checks)
        self.assertEqual(checks.failed, 0, checks.notes)
        self.assertEqual(len(timed["ops"]), len(timed["ops_scaled"]))
        self.assertGreater(len(timed["ops"]), 0)
        for raw, scaled in zip(timed["ops"], timed["ops_scaled"]):
            self.assertIn(scaled, {raw * speed for speed in timed["speed"]})


class WrapperTest(unittest.TestCase):
    def snapshot(self):
        modules = [m for n, m in sys.modules.items() if n == "parley" or n.startswith("parley.")]
        state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        for cls in (parley.KnowledgeBase, parley.Trace):
            state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
        return state

    def test_wrappers_reach_every_importer_and_are_restored(self):
        before = self.snapshot()
        recorder = spans.Recorder()
        smith = (run.SCENARIOS / "smith.scenario").read_text(encoding="utf-8")
        with spans.instrumented(recorder) as patches:
            self.assertIsNot(
                parley.evaluation.revise_detail, before[("parley.evaluation", "revise_detail")]
            )
            self.assertIsNot(parley.negotiate, before[("parley", "negotiate")])
            with recorder.operation():
                run.operation(parley, smith)
        self.assertEqual(spans.unrestored(patches), [])
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[key] is value for key, value in before.items()))
        names = {recorder.names[i] for i in recorder.name}
        self.assertLessEqual({"scenario.parse", "beliefs.revise", "focus.minset"}, names)

    def test_restored_when_the_body_raises(self):
        before = self.snapshot()
        with self.assertRaises(RuntimeError):
            with spans.instrumented(spans.Recorder()):
                raise RuntimeError("boom")
        after = self.snapshot()
        self.assertTrue(all(after[key] is value for key, value in before.items()))

    def test_traced_run_reproduces_untraced_digests_and_counts_nodes(self):
        for workload in ("search_fanout", "deep_chain"):
            checks = run.Checks()
            cases = small_cases(2)[workload]
            recorder = spans.Recorder()
            totals = run.traced_run(parley, cases, 0.05, checks, recorder)
            self.assertGreater(totals["ops"], 0)
            self.assertEqual(checks.failed, 0, checks.notes)
        self.assertEqual(recorder.nodes, 8 * totals["ops"])


if __name__ == "__main__":
    unittest.main()
