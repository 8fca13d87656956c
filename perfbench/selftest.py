"""The benchmark's own tests.

Run from the repository root::

    python3 perfbench/selftest.py

* every workload, at a tiny scale, prints exactly the metric names that
  ``BENCHMARK.json`` declares (end-to-end untraced, per-layer traced);
* an oracle fed a perturbed ranking reports a failed operation;
* span self-time arithmetic is correct on a hand-built span tree.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from spans import Span, Tracer, self_time, self_times_by_layer, uncovered_share  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int) -> dict:
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if completed.returncode != 0:
        raise AssertionError(f"{workload} failed:\n{completed.stdout[-3000:]}\n{completed.stderr[-3000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_every_workload_emits_the_declared_metrics(self) -> None:
        declared = {
            0: {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]},
            1: {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]},
        }
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny_run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, declared[trace])
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)
                    else:
                        # Every restart replays a journal tail, and the
                        # sharded reads ran.
                        for name, metric in result["metrics"].items():
                            if name.startswith(("sharding.", "persistence.replay")):
                                self.assertGreater(metric["value"], 0, name)


class Oracles(unittest.TestCase):
    def test_a_perturbed_ranking_is_a_failed_operation(self) -> None:
        from inputs import WORKLOADS, plan_corpus
        from session import Recorder, Session

        shape = dataclasses.replace(WORKLOADS["live_serve"], sources=8, posts=900)
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as workdir:
            rec = Recorder()
            session = Session(shape, 5, plan_corpus(shape, 5), Path(workdir), rec)
            try:
                session.build(0)
                session.assess_cold()
                self.assertEqual(rec.failed, 0)
                self.assertIn("cold_rank", rec.checks)

                live_rank = session.model.rank

                def perturbed(corpus, *args, **kwargs):
                    ranking = live_rank(corpus, *args, **kwargs)
                    ranking[0], ranking[1] = ranking[1], ranking[0]
                    return ranking

                session.model.rank = perturbed
                session.assess_cold()
                self.assertEqual(rec.failed, 1)
                self.assertIn("cold_rank", rec.errors[0])
            finally:
                session.close()


class SelfTime(unittest.TestCase):
    def tree(self) -> Span:
        root = Span(0, "fresh_read", None, 0, start=0.0, end=10.0)
        flush = Span(1, "serving.flush", 0, 0, start=1.0, end=6.0)
        patch = Span(2, "core.patch", 1, 0, start=2.0, end=5.0)
        rank = Span(3, "core.rank_read", 0, 0, start=7.0, end=9.0)
        root.children = [flush, rank]
        flush.children = [patch]
        return root

    def test_self_time_subtracts_children(self) -> None:
        root = self.tree()
        flush, rank = root.children
        self.assertAlmostEqual(self_time(root), 3.0)
        self.assertAlmostEqual(self_time(flush), 2.0)
        self.assertAlmostEqual(self_time(flush.children[0]), 3.0)
        self.assertAlmostEqual(self_time(rank), 2.0)

    def test_layer_self_times_sum_to_the_operation(self) -> None:
        root = self.tree()
        layers = self_times_by_layer(root)
        self.assertEqual(layers, {"op": 3.0, "serving": 2.0, "core": 5.0})
        self.assertAlmostEqual(sum(layers.values()), root.duration)
        self.assertAlmostEqual(uncovered_share(root), 0.3)

    def test_overlapping_children_are_counted_once(self) -> None:
        root = Span(0, "op", None, 0, start=0.0, end=10.0)
        root.children = [Span(1, "a.x", 0, 0, 1.0, 5.0), Span(2, "a.y", 0, 0, 3.0, 8.0)]
        self.assertAlmostEqual(self_time(root), 3.0)

    def test_tracer_nests_spans_and_skips_when_inactive(self) -> None:
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("write"):
            with tracer.span("sources.mutate"):
                pass
        tracer.active = False
        with tracer.span("write"):
            pass
        self.assertEqual([s.name for s in tracer.spans], ["write", "sources.mutate"])
        root = tracer.roots()[0]
        self.assertEqual(root.children[0].parent, root.span_id)
        self.assertAlmostEqual(self_time(root), 2.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
