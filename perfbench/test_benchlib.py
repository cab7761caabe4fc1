"""Tests for the benchmark's own arithmetic (benchlib.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 0.50), 50)
        self.assertEqual(benchlib.percentile(values, 0.95), 95)
        self.assertEqual(benchlib.percentile(values, 1.0), 100)
        self.assertEqual(benchlib.percentile([7.5], 0.95), 7.5)

    def test_order_does_not_matter(self):
        self.assertEqual(benchlib.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_rejects_empty_and_bad_rank(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 0.5)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 0.0)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 1.5)

    def test_samples_beyond(self):
        # The sweep's 360 jobs leave 18 beyond p95.
        self.assertEqual(benchlib.samples_beyond(360, 0.95), 18)
        self.assertEqual(benchlib.samples_beyond(100, 0.50), 50)
        self.assertEqual(benchlib.samples_beyond(1, 0.95), 0)

    def test_tail_rule_needs_ten_beyond(self):
        self.assertTrue(benchlib.tail_is_reportable(200, 0.95))
        self.assertFalse(benchlib.tail_is_reportable(199, 0.95))
        self.assertTrue(benchlib.tail_is_reportable(20, 0.50))

    def test_iqr_spread_matches_statistics(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.iqr_spread(values), (q3 - q1) / med)


class MetricNameTest(unittest.TestCase):
    def test_accepts_grammar(self):
        for name in ("replay_aps", "trace.gen.ns", "cnt.l1_sink_ns",
                     "exec.job-overhead", "0ms", "a" * 64):
            self.assertTrue(benchlib.valid_metric_name(name), name)

    def test_rejects_outside_grammar(self):
        for name in ("", "_lead", ".lead", "has space", "slash/name",
                     "ünïcode", "a" * 65, "colon:x"):
            self.assertFalse(benchlib.valid_metric_name(name), name)

    def test_every_reported_name_is_valid(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(benchlib.valid_metric_name(name), name)


class LadderTest(unittest.TestCase):
    def test_subtracts_consecutive_passes(self):
        stages = [("decode", 13.0), ("stats", 23.0), ("cache", 89.0),
                  ("base", 113.0), ("cnt", 155.0)]
        out = benchlib.ladder(stages, ("overhead", 162.0))
        self.assertEqual(out, {"decode": 13.0, "stats": 10.0, "cache": 66.0,
                               "base": 24.0, "cnt": 42.0, "overhead": 7.0})

    def test_accounts_for_the_total_exactly(self):
        stages = [("a", 1.5), ("b", 4.25), ("c", 3.0)]
        out = benchlib.ladder(stages, ("rest", 9.0))
        self.assertAlmostEqual(sum(out.values()), 9.0)
        # A noisy pass can read slower than the next one: the difference
        # is reported as measured, negative, not clipped.
        self.assertLess(out["c"], 0)


class DigestTest(unittest.TestCase):
    GOLDEN = {"stream_srv": "aa", "sweep_policy": "bb"}

    def test_all_match(self):
        self.assertEqual(benchlib.check_digests(
            ["d1", "d1"], {"stream_srv": "aa"}, self.GOLDEN), [])

    def test_golden_mismatch(self):
        problems = benchlib.check_digests(["d1"], {"stream_srv": "ab"},
                                          self.GOLDEN)
        self.assertEqual(len(problems), 1)
        self.assertIn("stream_srv", problems[0])

    def test_missing_golden_entry(self):
        problems = benchlib.check_digests([], {"hier_writeburst": "cc"},
                                          self.GOLDEN)
        self.assertEqual(len(problems), 1)
        self.assertIn("no committed golden", problems[0])

    def test_iterations_must_agree(self):
        problems = benchlib.check_digests(["d1", "d2", "d1"], {}, self.GOLDEN)
        self.assertEqual(len(problems), 1)
        self.assertIn("1 of 3", problems[0])

    def test_committed_golden_covers_every_workload(self):
        with open(os.path.join(HERE, "golden.json")) as f:
            golden = json.load(f)
        self.assertEqual(sorted(golden["digests"]),
                         sorted(benchlib.WORKLOADS))


def raw_record(**overrides):
    raw = {
        "env": {"optimized": True, "build_type": "RelWithDebInfo",
                "failpoints_enabled": False, "job_timeout_armed": False},
        "refused": "",
        "runs": [{"wall_s": 0.1, "accesses": 1000, "jobs": 1, "failed": 0,
                  "workers": 1, "digest": "d"}] * 3,
        "checks": {"stream_identity": True},
        "golden": {"stream_srv": {"digest": "aa"}},
        "spans": [],
    }
    raw.update(overrides)
    return raw


class VerdictTest(unittest.TestCase):
    GOLDEN = {"stream_srv": "aa"}

    def test_clean_run(self):
        attempted, failed, problems = benchlib.verdict(raw_record(),
                                                       self.GOLDEN)
        self.assertEqual((attempted, failed, problems), (5, 0, []))

    def test_digest_mismatch_fails_the_run(self):
        raw = raw_record(golden={"stream_srv": {"digest": "zz"}})
        _, failed, problems = benchlib.verdict(raw, self.GOLDEN)
        self.assertEqual(failed, 1)
        self.assertEqual(len(problems), 1)

    def test_failed_check_and_jobs_count(self):
        runs = [{"wall_s": 1.0, "accesses": 10, "jobs": 360, "failed": 2,
                 "workers": 2, "digest": "d"}]
        raw = raw_record(runs=runs, checks={"jsonl_identity": False})
        attempted, failed, _ = benchlib.verdict(raw, self.GOLDEN)
        self.assertEqual(attempted, 362)
        self.assertEqual(failed, 3)

    def test_refuses_invalid_environments(self):
        for env_change in ({"optimized": False}, {"failpoints_enabled": True},
                           {"job_timeout_armed": True}):
            raw = raw_record()
            raw["env"] = dict(raw["env"], **env_change)
            attempted, failed, problems = benchlib.verdict(raw, self.GOLDEN)
            self.assertEqual((attempted, failed), (1, 1), env_change)
            self.assertIn("refused", problems[0])


class EndToEndTest(unittest.TestCase):
    def test_single_replay_iterations(self):
        raw = raw_record(
            runs=[{"wall_s": w, "accesses": 1000, "jobs": 1, "failed": 0,
                   "workers": 1, "digest": "d"} for w in (0.1, 0.2, 0.4)],
            job_ms=[100.0, 200.0, 400.0], peak_rss_bytes=3 * 2**20,
            setup_s=[0.3, 0.1, 0.2])
        m = benchlib.end_to_end(raw)
        self.assertAlmostEqual(m["replay_aps"][0], 10000.0)
        self.assertAlmostEqual(m["sims_per_s"][0], 10.0)
        self.assertEqual(m["replay_aps"][1], "1/s")
        self.assertEqual(m["job_ms_p50"], (200.0, "ms"))
        self.assertEqual(m["job_ms_p95"], (400.0, "ms"))
        self.assertEqual(m["peak_rss_mib"], (3.0, "MiB"))
        self.assertEqual(m["setup_s"], (0.2, "s"))

    def test_best_of_n_is_taken_job_by_job(self):
        # Two iterations of three jobs on two workers. Each iteration has
        # one slow job; the best times are 10, 20 and 30 ms. Both
        # iterations keep the workers 80 % busy.
        job_ms = [10.0, 40.0, 30.0,
                  20.0, 20.0, 60.0]
        runs = [{"wall_s": sum(job_ms[i:i + 3]) / 1e3 / (2 * 0.8),
                 "accesses": 600, "jobs": 3, "failed": 0, "workers": 2,
                 "digest": "d"} for i in (0, 3)]
        raw = raw_record(runs=runs, job_ms=job_ms)
        best_s = (10.0 + 20.0 + 30.0) / 1e3 / (2 * 0.8)
        self.assertAlmostEqual(benchlib.best_iteration_s(raw), best_s)
        self.assertAlmostEqual(benchlib.end_to_end(dict(
            raw, peak_rss_bytes=0, setup_s=[1.0]))["sims_per_s"][0],
            3 / best_s)

    def test_job_times_must_cover_every_iteration(self):
        raw = raw_record(job_ms=[1.0, 2.0])
        with self.assertRaises(ValueError):
            benchlib.best_iteration_s(raw)


def span(name, ns, items, start=0):
    return {"name": name, "start_ns": start, "end_ns": start + ns,
            "items": items}


def traced_record():
    spans = [span("stream_srv/trace.gen", 40_000, 1000),
             span("stream_srv/trace.gen+write", 70_000, 1000)]
    # Two ladder rounds; the second is slower and must not count.
    for scale in (1, 2):
        for stage, ns in (("decode", 13), ("stats", 23), ("cache", 89),
                          ("baseline", 113), ("cnt", 155), ("simulate", 162)):
            spans.append(span(f"stream_srv/ladder.{stage}",
                              ns * 1000 * scale, 1000))
    jobs = 2
    for _round in range(2):
        for gen_ms, replay_ms in ((1.0, 3.0), (2.0, 4.0)):
            spans.append(span("sweep_policy/job",
                              int((gen_ms + replay_ms) * 1e6), 1))
            spans.append(span("sweep_policy/trace.gen", int(gen_ms * 1e6), 1))
            spans.append(span("sweep_policy/sim.replay",
                              int(replay_ms * 1e6), 1))
    # Two 1-worker engine rounds of 13 and 11 ms; their jobs took 12 and
    # 10.5 ms (samples below).
    spans.append(span("sweep_policy/exec.run.serial", int(13e6), jobs))
    spans.append(span("sweep_policy/exec.run.serial", int(11e6), jobs))
    spans.append(span("sweep_policy/exec.run.parallel", int(6e6), jobs))
    for name, ns in (("cnt_all", 200), ("cnt_l1_off", 150),
                     ("cnt_l2_off", 190)):
        spans.append(span(f"hier_writeburst/{name}", ns * 1000, 1000))
    counts = {"exec.journal_bytes_per_job": 578.0, "cache.miss_ratio": 0.49,
              "cache.writebacks_per_kacc": 64.0, "cache.l2_miss_ratio": 0.8,
              "cnt.reencode_ratio": 0.01, "cnt.fifo_drop_ratio": 0.0,
              "trace.stream.bytes_per_access": 2.95}
    samples = {"exec.job_ms.serial": [5.0, 7.0, 4.5, 6.0],
               "exec.job_ms.parallel": [5.0, 6.0],
               "tracing.untraced_s.stream_srv": [0.10, 0.12],
               "tracing.traced_s.stream_srv": [0.101, 0.13]}
    return raw_record(trace=True, spans=spans, counts=counts,
                      samples=samples,
                      env=dict(raw_record()["env"], parallel_workers=2))


class PerLayerTest(unittest.TestCase):
    def test_reports_every_listed_metric(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        out = benchlib.per_layer(traced_record())
        self.assertEqual(sorted(out),
                         sorted(m["name"] for m in spec["per_layer"]))
        for m in spec["per_layer"]:
            self.assertEqual(out[m["name"]][1], m["unit"], m["name"])

    def test_values(self):
        out = {name: value for name, (value, _)
               in benchlib.per_layer(traced_record()).items()}
        # The ladder uses each stage's best round and sums to simulate().
        self.assertAlmostEqual(out["cache.access_ns"], 66.0)
        self.assertAlmostEqual(out["sim.overhead_ns"], 7.0)
        ladder = ("trace.stream.decode_ns", "trace.stats_ns",
                  "cache.access_ns", "cnt.baseline_sink_ns",
                  "cnt.cnt_sink_ns", "sim.overhead_ns")
        self.assertAlmostEqual(sum(out[n] for n in ladder),
                               out["sim.simulate_ns"])
        self.assertAlmostEqual(out["trace.gen.ns"], 40.0)
        self.assertAlmostEqual(out["trace.stream.write_ns"], 30.0)
        self.assertAlmostEqual(out["trace.gen.ms_per_job"], 1.5)
        self.assertAlmostEqual(out["sim.replay_ms_per_job"], 3.5)
        # The engine runs spend 0.5 and 0.25 ms a job outside their jobs.
        self.assertAlmostEqual(out["exec.job_overhead_ms"], 0.375)
        self.assertAlmostEqual(out["exec.worker_busy_ratio"], 11.0 / 12.0)
        self.assertAlmostEqual(out["cnt.l1_sink_ns"], 50.0)
        self.assertAlmostEqual(out["cnt.l2_sink_ns"], 10.0)
        # The median of the pairs' ratios 1.01 and 1.0833.
        self.assertAlmostEqual(out["tracing.overhead_ratio"],
                               (0.101 / 0.10 + 0.13 / 0.12) / 2 - 1)

    def test_engine_job_times_must_cover_every_engine_run(self):
        runs = [span("sweep_policy/exec.run.serial", int(13e6), 2)]
        self.assertAlmostEqual(
            benchlib.engine_overhead_ms(runs, [5.0, 7.0]), 0.5)
        with self.assertRaises(ValueError):
            benchlib.engine_overhead_ms(runs, [5.0, 7.0, 4.5])

    def test_tracing_overhead_averages_the_measured_workloads(self):
        raw = traced_record()
        raw["samples"].update({"tracing.untraced_s.sweep_policy": [2.0, 1.9],
                               "tracing.traced_s.sweep_policy": [1.95, 2.0]})
        out = benchlib.per_layer(raw)
        stream = (0.101 / 0.10 + 0.13 / 0.12) / 2
        sweep = (1.95 / 2.0 + 2.0 / 1.9) / 2
        self.assertAlmostEqual(out["tracing.overhead_ratio"][0],
                               (stream + sweep) / 2 - 1)


if __name__ == "__main__":
    unittest.main()
