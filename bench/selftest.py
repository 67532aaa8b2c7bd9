"""Self-tests for the benchmark code: ``python3 bench/selftest.py``.

They cover the input generators (same seed, same bytes), the output
checker (a perturbed curve is rejected), the span arithmetic (self times
on synthetic spans) and the operation spawner.  They do not run ``clfsec``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import signal
import sys
import threading
import unittest
from concurrent.futures import ThreadPoolExecutor

import check
import gen
import run
from tracing import Tracer, self_times, summarize

WORK = run.BENCH_DIR / "_work" / "selftest"


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _span(i, parent, thread, name, t0, t1, cpu):
    return [i, parent, thread, name, t0, t1, 0.0, cpu]


class GeneratorTest(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = gen.write_workload(workload, 7, WORK / "a")
                b = gen.write_workload(workload, 7, WORK / "b")
                c = gen.write_workload(workload, 8, WORK / "c")
                self.assertEqual(a, b)
                inputs = [k for k in a if k != "config.yaml"]
                self.assertTrue(inputs)
                for k in inputs:
                    self.assertNotEqual(a[k], c[k], k)
                # writing over another seed's files leaves exactly this seed's bytes
                self.assertEqual(gen.write_workload(workload, 7, WORK / "c"), a)
                self.assertEqual(_tree(WORK / "c"), _tree(WORK / "a"))
                shutil.rmtree(WORK)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.refs = json.loads(check.REFERENCE_PATH.read_text(encoding="utf-8"))

    def curve(self, workload):
        ref = self.refs[workload]
        k = run.WORKLOADS[workload]["k"]
        return {"strengths": list(ref["strengths"]), "means": list(ref["means"]),
                "stds": list(ref["stds"]), "ks": [k] * len(ref["strengths"])}

    def problems(self, workload, curve):
        lane = run.WORKLOADS[workload]
        return check.check_curve(curve, lane) + check.check_reference(
            curve, workload, run.REFERENCE_SEED
        )

    def test_reference_curves_pass(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.problems(workload, self.curve(workload)), [], workload)

    def test_perturbed_curves_are_rejected(self):
        for workload in run.WORKLOADS:
            good = self.curve(workload)
            perturbations = {
                "tiny drift": lambda c: c["means"].__setitem__(1, c["means"][1] + 1e-6),
                "out of range": lambda c: c["means"].__setitem__(2, 1.5),
                "negative std": lambda c: c["stds"].__setitem__(0, -1.0),
                "wrong k": lambda c: c["ks"].__setitem__(0, c["ks"][0] + 1),
                "missing strength": lambda c: [c[key].pop() for key in c],
                "not finite": lambda c: c["means"].__setitem__(0, float("nan")),
            }
            for name, perturb in perturbations.items():
                with self.subTest(workload=workload, perturbation=name):
                    bad = copy.deepcopy(good)
                    perturb(bad)
                    self.assertTrue(self.problems(workload, bad))

    def test_lane_invariants(self):
        spam = self.curve("spam-email")
        spam["means"][-1] = spam["means"][-2] + 1e-3
        self.assertTrue(check.check_curve(spam, run.WORKLOADS["spam-email"]))
        ids = self.curve("ids-payload")
        ids["means"][-1] = ids["means"][0]
        self.assertTrue(check.check_curve(ids, run.WORKLOADS["ids-payload"]))
        bio = self.curve("bio-scores")
        bio["means"][-1] = bio["means"][0] / 2
        self.assertTrue(check.check_curve(bio, run.WORKLOADS["bio-scores"]))

    def test_parse_rejects_bad_csv(self):
        self.assertTrue(check.parse_curve("strength,mean\n0,1\n")[1])
        self.assertTrue(check.parse_curve("strength,mean,std,k\n0,x,0,1\n")[1])

    def test_roc_checks(self):
        lane = run.WORKLOADS["bio-scores"]
        roc = {"fp": [0.0, 0.5, 1.0], "tp": [0.2, 0.9, 1.0], "thresholds": [float("inf"), 2.0, 1.0]}
        good = {"roc_curves": {"strength_0": roc, "strength_1": roc}}
        self.assertEqual(check.check_rocs(good, lane), [])
        bad = copy.deepcopy(good)
        bad["roc_curves"]["strength_1"]["fp"] = [0.0, 0.7, 0.6]
        self.assertTrue(check.check_rocs(bad, lane))
        self.assertTrue(check.check_rocs({"roc_curves": {"strength_0": roc}}, lane))
        self.assertEqual(check.check_rocs({"roc_curves": {}}, run.WORKLOADS["ids-payload"]), [])


class SpanArithmeticTest(unittest.TestCase):
    # main thread 1: sweep [0, 10] > build_pools [1, 4] > spoof [2, 3]; score [5, 6]
    # worker thread 2: train [1, 9], parent sweep (another thread)
    SPANS = [
        _span(0, None, 1, "evaluation.sweep", 0.0, 10.0, 5.0),
        _span(1, 0, 1, "data_model.build_pools", 1.0, 4.0, 2.5),
        _span(2, 1, 1, "attacks.spoof", 2.0, 3.0, 1.0),
        _span(3, 0, 1, "classifiers.score", 5.0, 6.0, 0.5),
        _span(4, 0, 2, "classifiers.train", 1.0, 9.0, 6.0),
    ]

    def test_self_times(self):
        got = self_times(self.SPANS)
        self.assertEqual(got[0], (6.0, 5.0 - 2.5 - 0.5))
        self.assertEqual(got[1], (2.0, 1.5))
        self.assertEqual(got[2], (1.0, 1.0))
        self.assertEqual(got[3], (1.0, 0.5))
        # a child on another thread runs in parallel: nothing subtracted
        self.assertEqual(got[4], (8.0, 6.0))

    def test_summary(self):
        s = summarize(self.SPANS, main_thread=1)
        self.assertEqual(s["main_covered_s"], 10.0)
        self.assertEqual(s["worker_self_s"], 8.0)
        self.assertEqual(s["total_s"]["evaluation.sweep"], 10.0)
        self.assertEqual(s["self_s"]["evaluation.sweep"], 6.0)
        # wait = self wall - self CPU over the spans under the sweep
        self.assertEqual(s["wait_in_sweep_s"], (2.0 - 1.5) + 0.0 + (1.0 - 0.5) + (8.0 - 6.0))

    def test_overlapping_children_counted_once(self):
        spans = [
            _span(0, None, 1, "a", 0.0, 10.0, 0.0),
            _span(1, 0, 1, "b", 1.0, 5.0, 0.0),
            _span(2, 0, 1, "c", 3.0, 12.0, 0.0),
        ]
        self.assertEqual(self_times(spans)[0][0], 1.0)

    def test_tracer_parents_worker_spans_under_main_span(self):
        tracer = Tracer()
        work = tracer.wrap(lambda x: x + 1, "classifiers.train")
        with tracer.span("evaluation.sweep"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                self.assertEqual(list(pool.map(work, range(4))), [1, 2, 3, 4])
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s[3], []).append(s)
        (sweep,) = by_name["evaluation.sweep"]
        self.assertEqual(sweep[2], threading.main_thread().ident)
        self.assertEqual(len(by_name["classifiers.train"]), 4)
        for s in by_name["classifiers.train"]:
            self.assertEqual(s[1], sweep[0])


class LayerMetricsTest(unittest.TestCase):
    DOC = {
        "spans": SpanArithmeticTest.SPANS,
        "counts": {"evaluation.points": 7.0},
        "main_thread": 1,
        "main_entered": 0.0,
        "clfsec_file": str(run.ROOT / "src" / "clfsec" / "__init__.py"),
    }

    def test_every_per_layer_metric(self):
        lane = dict(run.WORKLOADS["ids-payload"], layers=["evaluation.sweep", "classifiers.train"])
        # spawned 0.5 s before main; 0.5 s after the last span until exit
        m, problems = run.layer_metrics(self.DOC, wall=11.0, spawned=-0.5, lane=lane)
        self.assertEqual(problems, [])
        self.assertEqual(set(m), set(run.PER_LAYER) - {"trace.overhead"})
        self.assertEqual((m["cli.startup_s"], m["cli.self_s"]), (0.5, 0.5))
        self.assertEqual(m["evaluation.sweep_s"], 10.0)
        self.assertEqual(m["classifiers.train_useful_ratio"], 1.0)
        self.assertEqual(m["evaluation.points"], 7.0)

    def test_time_outside_the_layers_fails(self):
        lane = dict(run.WORKLOADS["ids-payload"], layers=[])
        # 2 s after the last span is 2 / 12.5 of the operation
        m, problems = run.layer_metrics(self.DOC, wall=12.5, spawned=-0.5, lane=lane)
        self.assertEqual(m["cli.self_s"], 2.0)
        self.assertEqual(len(problems), 1)
        self.assertIn("time outside every traced layer", problems[0])

    def test_missing_layer_fails(self):
        lane = dict(run.WORKLOADS["bio-scores"])
        _, problems = run.layer_metrics(self.DOC, wall=11.0, spawned=-0.5, lane=lane)
        self.assertIn("layer span evaluation.collect_roc recorded nothing", problems)


class SpawnTest(unittest.TestCase):
    def spawn(self, code, timeout_s):
        WORK.mkdir(parents=True, exist_ok=True)
        try:
            return run._spawn_and_wait([sys.executable, "-c", code], WORK, WORK / "out.txt",
                                       WORK / "err.txt", ceiling_mb=512, timeout_s=timeout_s)
        finally:
            shutil.rmtree(WORK)

    def test_reports_the_child_itself(self):
        got = self.spawn("b = bytearray(64 << 20)", 30.0)
        self.assertEqual(os.waitstatus_to_exitcode(got["status"]), 0)
        self.assertFalse(got["timed_out"])
        # the 64 MB buffer, not the resident size of this test process
        self.assertGreater(got["maxrss_kb"], 64 << 10)
        self.assertLess(got["maxrss_kb"], (64 << 10) + (64 << 10))

    def test_ceiling_and_timeout(self):
        got = self.spawn("b = bytearray(1 << 30)", 30.0)
        self.assertEqual(os.waitstatus_to_exitcode(got["status"]), 1)
        got = self.spawn("import time; time.sleep(30)", 0.3)
        self.assertTrue(got["timed_out"])
        self.assertEqual(os.waitstatus_to_exitcode(got["status"]), -signal.SIGKILL)


class TailPercentileTest(unittest.TestCase):
    def test_needs_eleven_samples(self):
        self.assertEqual(run.tail_percentile([1.0] * 10), (None, None))
        pct, value = run.tail_percentile([float(i) for i in range(20)])
        self.assertEqual((pct, value), (50.0, 9.0))


if __name__ == "__main__":
    unittest.main()
