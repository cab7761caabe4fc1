#!/usr/bin/env python3
"""Run the repository benchmark (see README.md).

    python3 perfbench/run.py [--workload stream_srv|sweep_policy|hier_writeburst|all]
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-golden

Builds the simulator and perfbench_driver from source into .bench_build/
at the checkout root, runs the driver, and prints every metric by name
and unit. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer metrics. Without --workload
all three workloads run; untraced, their metrics are prefixed with the
workload's name, and traced, one driver run measures the layers of all
three (the per-layer metrics are common to the workloads). --seconds
defaults to BENCHMARK.json's run_seconds, the value its command is
run with. The exit code is 0 only for a correct run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
DRIVER = os.path.join(BUILD, "perfbench_driver")
GOLDEN = os.path.join(HERE, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Every run must finish within 180 s; leave room for the arithmetic.
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"run.py: no simulator sources at {ROOT}/src")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def run_driver(workload, seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"raw-{workload}-{seed}-{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK, "--out", out]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the driver and waits for it before raising.
        sys.exit(f"run.py: {workload} ran past {DRIVER_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(f"run.py: driver exited with {done.returncode} on {workload}")
    with open(out) as f:
        raw = json.load(f)
    log(f"run.py: {workload} took {time.monotonic() - start:.1f} s")
    return raw


def load_golden():
    try:
        with open(GOLDEN) as f:
            return json.load(f)["digests"]
    except FileNotFoundError:
        return {}


def evaluate(raw, golden):
    attempted, failed, problems = benchlib.verdict(raw, golden)
    metrics = {}
    if not benchlib.refusal_of(raw):
        metrics = (benchlib.per_layer(raw) if raw["trace"]
                   else benchlib.end_to_end(raw))
    return attempted, failed, problems, metrics


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def spec_names(trace):
    spec = load_spec()
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def reported(metrics, trace):
    """The metrics BENCHMARK.json lists for this kind of run, in its order.
    The table may print more (the job-time percentiles); the result line
    carries these."""
    names = spec_names(trace)
    bad = [n for n in names if not benchlib.valid_metric_name(n)]
    if bad:
        sys.exit(f"run.py: BENCHMARK.json has invalid metric names: {bad}")
    missing = [n for n in names if n not in metrics]
    if metrics and missing:
        sys.exit(f"run.py: BENCHMARK.json metrics not measured: {missing}")
    return {n: metrics[n] for n in names if n in metrics}


def print_table(workload, raw, attempted, failed, problems, metrics):
    env = raw["env"]
    print(f"== {workload}  seed {raw['seed']}  trace {int(raw['trace'])}  "
          f"nproc {env['nproc']}  workers {env['workers']} "
          f"(traced check {env['parallel_workers']})  "
          f"build {env['build_type']}")
    gated = spec_names(raw["trace"])
    for name, (value, unit) in metrics.items():
        note = "" if name in gated else "  (printed only, no bound)"
        print(f"  {name:32s} {value:16.6g} {unit}{note}")
    if not raw["trace"] and raw["job_ms"]:
        n = len(raw["job_ms"])
        beyond = benchlib.samples_beyond(n, 0.95)
        note = "" if benchlib.tail_is_reportable(n, 0.95) else "  (too few)"
        print(f"  job_ms samples: {n}, {beyond} beyond p95{note}")
    print(f"  {'fail_ratio':32s} {failed / attempted:16.6g} ratio "
          f"({failed} of {attempted} operations)")
    for name, g in sorted(raw["golden"].items()):
        saving = g.get("cnt_saving")
        extra = f", cnt_saving {saving:.6f}" if saving is not None else ""
        print(f"  golden {name}: {g['digest']}{extra}")
    for p in problems:
        print(f"  FAIL: {p}")


def write_golden():
    # A traced run computes the golden digests of all three workloads.
    raw = run_driver("stream_srv", 0, 1, 1)
    doc = {
        "seed": raw["golden_seed"],
        "digests": {w: g["digest"] for w, g in sorted(raw["golden"].items())},
        "cnt_saving": {w: g["cnt_saving"]
                       for w, g in sorted(raw["golden"].items())
                       if "cnt_saving" in g},
    }
    with open(GOLDEN, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(doc, indent=2, sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=benchlib.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int,
                    help="length of the timed phase "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="re-pin golden.json from the current build")
    args = ap.parse_args()
    seconds = (args.seconds if args.seconds is not None
               else load_spec()["run_seconds"])

    build()
    if args.write_golden:
        write_golden()
        return 0

    golden = load_golden()
    if args.workload != "all" or args.trace:
        workloads = (args.workload,)
    else:
        workloads = benchlib.WORKLOADS
    total_attempted = total_failed = 0
    all_metrics = {}
    for workload in workloads:
        raw = run_driver(workload, args.seed, seconds, args.trace)
        attempted, failed, problems, metrics = evaluate(raw, golden)
        print_table(workload, raw, attempted, failed, problems, metrics)
        total_attempted += attempted
        total_failed += failed
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, (value, unit) in reported(metrics, args.trace).items():
            all_metrics[prefix + name] = {"value": value, "unit": unit}
    correct = total_failed == 0
    print(json.dumps({"correct": correct, "attempted": total_attempted,
                      "failed": total_failed, "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
