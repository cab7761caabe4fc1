"""Metric arithmetic for the repository benchmark (see README.md).

perfbench_driver records raw samples, spans, digests and check verdicts;
the functions here turn one raw record into the metrics BENCHMARK.json
names and decide whether the run was correct. They are pure, so
test_benchlib.py covers them without building anything.
"""

import math
import re
import statistics

WORKLOADS = ("stream_srv", "sweep_policy", "hier_writeburst")

# A metric name: a letter or digit, then letters, digits, "_", "." or "-",
# at most 64 characters in all.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_TAIL_SAMPLES = 10


def valid_metric_name(name):
    return _NAME.fullmatch(name) is not None


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    q of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError(f"percentile rank {q} is outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n, q):
    """How many of n samples lie strictly above the nearest-rank q
    percentile's position (360 samples leave 18 beyond p95)."""
    return n - max(1, math.ceil(q * n))


def tail_is_reportable(n, q):
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


def iqr_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles' default method)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def ladder(stages, total):
    """Attribute a total per-access time to additive stages.

    `stages` is an ordered list of (name, time) pairs where each pass adds
    one layer to the previous one; `total` is (name, time) of the full
    call. Each stage gets its time minus the previous pass's, and the
    total's name gets what the last stage leaves over, so the values sum
    to the total's time exactly.
    """
    out = {}
    previous = 0.0
    for name, value in stages:
        out[name] = value - previous
        previous = value
    total_name, total_value = total
    out[total_name] = total_value - previous
    return out


def check_digests(run_digests, golden_seen, golden_expected):
    """Problems with a run's simulated-output digests, as readable lines.

    run_digests: the digest of every timed iteration (one seed, so all
        must be equal).
    golden_seen: {workload: digest} computed this run at the golden seed.
    golden_expected: {workload: digest} committed in golden.json.
    """
    problems = []
    if run_digests:
        first = run_digests[0]
        differing = sum(1 for d in run_digests if d != first)
        if differing:
            problems.append(
                f"{differing} of {len(run_digests)} iterations changed "
                f"their simulated output")
    for workload, digest in sorted(golden_seen.items()):
        expected = golden_expected.get(workload)
        if expected is None:
            problems.append(f"{workload}: no committed golden digest")
        elif digest != expected:
            problems.append(
                f"{workload}: digest {digest} != golden {expected}")
    return problems


def refusal(env):
    """Why a run's environment makes its timings invalid, or ""."""
    if not env.get("optimized", False):
        return f"non-optimised build ({env.get('build_type', '?')})"
    if env.get("failpoints_enabled", True):
        return "failpoints armed (CNT_FAILPOINTS)"
    if env.get("job_timeout_armed", True):
        return "job watchdog armed (CNT_JOB_TIMEOUT_MS)"
    return ""


def refusal_of(raw):
    return raw.get("refused") or refusal(raw["env"])


def verdict(raw, golden_expected):
    """(attempted, failed, problems) for one raw record."""
    reason = refusal_of(raw)
    if reason:
        return 1, 1, [f"refused to measure: {reason}"]
    runs = raw["runs"]
    problems = check_digests([r["digest"] for r in runs],
                             {w: g["digest"] for w, g in raw["golden"].items()},
                             golden_expected)
    problems += [f"check failed: {name}"
                 for name, ok in sorted(raw["checks"].items()) if not ok]
    failed = len(problems)
    failed_jobs = sum(r["failed"] for r in runs)
    if failed_jobs:
        failed += failed_jobs
        problems.append(f"{failed_jobs} simulations failed or were "
                        f"quarantined")
    attempted = (sum(r["jobs"] for r in runs) + len(raw["checks"]) +
                 len(raw["golden"]) + len(raw["spans"]))
    return max(attempted, 1), failed, problems


def best_per_job(values, jobs):
    """Each job's best time, from per-job samples listed round by round."""
    return [min(values[j::jobs]) for j in range(jobs)]


def best_iteration_s(raw):
    """Best-of-N time of one timed iteration, taken job by job.

    Co-tenants on the host slow the replay loops by up to 2x in phases of
    ten seconds to minutes, so a whole-iteration median, or even the best
    whole iteration of a 3 s sweep, mostly measures the host. Each job's
    fastest time in the run is far steadier. The iteration is then the sum
    of its jobs' best times spread over its workers at the run's median
    busy ratio (sum of job times / (workers x wall)), so engine overhead
    and load imbalance still count. For a single-replay iteration this is
    simply the fastest iteration.
    """
    runs = raw["runs"]
    per = runs[0]["jobs"]
    job_ms = raw["job_ms"]
    if len(job_ms) != per * len(runs):
        raise ValueError(f"{len(job_ms)} job times for {len(runs)} "
                         f"iterations of {per} jobs")
    best_ms = best_per_job(job_ms, per)
    busy = statistics.median(
        sum(job_ms[i * per:(i + 1) * per]) /
        (r["workers"] * r["wall_s"] * 1e3) for i, r in enumerate(runs))
    return sum(best_ms) / 1e3 / (runs[0]["workers"] * busy)


def end_to_end(raw):
    """{name: (value, unit)} for an untraced run. The job-time
    percentiles are printed but not in BENCHMARK.json: see README.md."""
    runs = raw["runs"]
    job_ms = raw["job_ms"]
    best_s = best_iteration_s(raw)
    return {
        "replay_aps": (runs[0]["accesses"] / best_s, "1/s"),
        "sims_per_s": (runs[0]["jobs"] / best_s, "1/s"),
        "job_ms_p50": (percentile(job_ms, 0.50), "ms"),
        "job_ms_p95": (percentile(job_ms, 0.95), "ms"),
        "peak_rss_mib": (raw["peak_rss_bytes"] / 2**20, "MiB"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
    }


def _span_groups(spans):
    groups = {}
    for s in spans:
        groups.setdefault(s["name"], []).append(s)
    return groups


def _best_ns_per_item(spans):
    """Best-of-N: the fastest span's nanoseconds per item."""
    return min((s["end_ns"] - s["start_ns"]) / s["items"] for s in spans)


def _ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


STREAM_LADDER = (
    ("decode", "trace.stream.decode_ns"),
    ("stats", "trace.stats_ns"),
    ("cache", "cache.access_ns"),
    ("baseline", "cnt.baseline_sink_ns"),
    ("cnt", "cnt.cnt_sink_ns"),
)


def per_layer(raw):
    """{name: (value, unit)} for a traced run."""
    g = _span_groups(raw["spans"])
    counts = raw["counts"]
    out = {}

    # stream_srv: the additive ladder and the set-up split.
    stage_ns = [(metric, _best_ns_per_item(g[f"stream_srv/ladder.{st}"]))
                for st, metric in STREAM_LADDER]
    simulate_ns = _best_ns_per_item(g["stream_srv/ladder.simulate"])
    ladder_ns = ladder(stage_ns, ("sim.overhead_ns", simulate_ns))
    for name, value in ladder_ns.items():
        out[name] = (value, "ns")
    out["sim.simulate_ns"] = (simulate_ns, "ns")
    gen_ns = _best_ns_per_item(g["stream_srv/trace.gen"])
    out["trace.gen.ns"] = (gen_ns, "ns")
    out["trace.stream.write_ns"] = (
        _best_ns_per_item(g["stream_srv/trace.gen+write"]) - gen_ns, "ns")

    # sweep_policy: serial direct passes alternated with the 1-worker
    # engine, then one N-worker engine run.
    workers = raw["env"]["parallel_workers"]
    run_n = g["sweep_policy/exec.run.parallel"][-1]
    jobs = run_n["items"]
    gen_ms = best_per_job([_ms(s) for s in g["sweep_policy/trace.gen"]], jobs)
    replay_ms = best_per_job(
        [_ms(s) for s in g["sweep_policy/sim.replay"]], jobs)
    out["trace.gen.ms_per_job"] = (statistics.fmean(gen_ms), "ms")
    out["sim.replay_ms_per_job"] = (statistics.fmean(replay_ms), "ms")
    busy_ms = sum(raw["samples"]["exec.job_ms.parallel"][-jobs:])
    out["exec.worker_busy_ratio"] = (busy_ms / (workers * _ms(run_n)), "ratio")
    out["exec.job_overhead_ms"] = (
        engine_overhead_ms(g["sweep_policy/exec.run.serial"],
                           raw["samples"]["exec.job_ms.serial"]), "ms")
    out["exec.journal_bytes_per_job"] = (
        counts["exec.journal_bytes_per_job"], "B")

    # hier_writeburst: CNT on everywhere, then off at L1 or at L2.
    all_ns = _best_ns_per_item(g["hier_writeburst/cnt_all"])
    out["sim.hier_ns"] = (all_ns, "ns")
    out["cnt.l1_sink_ns"] = (
        all_ns - _best_ns_per_item(g["hier_writeburst/cnt_l1_off"]), "ns")
    out["cnt.l2_sink_ns"] = (
        all_ns - _best_ns_per_item(g["hier_writeburst/cnt_l2_off"]), "ns")

    # Simulated statistics: exact counts, identical on every run of a seed.
    out["cache.miss_ratio"] = (counts["cache.miss_ratio"], "ratio")
    out["cache.writebacks_per_kacc"] = (
        counts["cache.writebacks_per_kacc"], "1/kacc")
    out["cache.l2_miss_ratio"] = (counts["cache.l2_miss_ratio"], "ratio")
    out["cnt.reencode_ratio"] = (counts["cnt.reencode_ratio"], "ratio")
    out["cnt.fifo_drop_ratio"] = (counts["cnt.fifo_drop_ratio"], "ratio")
    out["trace.stream.bytes_per_access"] = (
        counts["trace.stream.bytes_per_access"], "B")

    out["tracing.overhead_ratio"] = (tracing_overhead(raw["samples"]),
                                     "ratio")
    return out


def engine_overhead_ms(runs, job_ms):
    """What the engine spends per job outside the job's own calls.

    `runs` are the spans of the 1-worker engine runs, `job_ms` their jobs'
    JobOutcome.wall_ms run after run. wall_ms times build_workload and
    simulate, the calls a direct job makes; the rest of a run's wall time
    is queueing, the retry and watchdog wrapper and the JSONL and journal
    writes. Both halves come from the same run, so a host phase hits both;
    the result is the median over the runs.
    """
    per_run = []
    done = 0
    for run in runs:
        jobs = run["items"]
        inside = sum(job_ms[done:done + jobs])
        done += jobs
        per_run.append((_ms(run) - inside) / jobs)
    if done != len(job_ms):
        raise ValueError(f"{len(job_ms)} job times for {done} engine jobs")
    return statistics.median(per_run)


def tracing_overhead(samples):
    """The span recording's own cost on the measured workloads' loops.

    Each untraced iteration is paired with the traced one run right after
    it, so both halves of a pair see the same host phase. A workload's
    overhead is the median of its pairs' traced / untraced ratios; the
    result is the mean over the measured workloads, so a workload with
    long iterations does not outweigh the others.
    """
    ratios = []
    for key in sorted(samples):
        if not key.startswith("tracing.untraced_s."):
            continue
        workload = key.split(".", 2)[2]
        pairs = zip(samples[f"tracing.traced_s.{workload}"], samples[key])
        ratios.append(statistics.median(t / u for t, u in pairs))
    return statistics.fmean(ratios) - 1
