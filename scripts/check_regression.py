#!/usr/bin/env python3
"""Regression gate over a cnt_sim/stats_dump JSON file.

Usage:
    build/examples/cnt_sim my.ini           # with [output] json = run.json
    python3 scripts/check_regression.py run.json [--min-saving 0.10]
    python3 scripts/check_regression.py results/BENCH_stream_replay.json \
        [--min-aps 100000]

Checks the invariants a healthy run must satisfy (finite positive
energies, savings within sane bounds, baseline policy present) and,
optionally, a minimum CNT-Cache saving.

Also accepts perf-bench documents (schema cnt-bench-perf-v2, emitted by
bench_perf_stream_replay and bench_perf_kernels): finite positive
throughput, a positive peak-RSS reading, and a byte-identical
in-RAM-vs-streamed energy ledger, with an optional --min-aps accesses/sec
floor. The run-varying wall-clock/throughput/RSS fields nest under a
"timing" object so the stable identity fields diff cleanly across runs
(docs/performance.md); kernel-suite documents carry a "kernels" array of
{name, ops, timing} entries and --min-aps gates their "replay" kernel.

Exit codes: 0 = pass, 1 = invariant violated, 2 = prerequisite missing
(file absent/unreadable, malformed JSON, missing schema tag).
"""

import argparse
import json
import math
import sys


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def check_result(r, min_saving):
    name = r.get("workload", "?")
    policies = {p["name"]: p for p in r.get("policies", [])}
    if "cnfet_base" not in policies:
        return fail(f"{name}: baseline policy missing")
    if "cnt_cache" not in policies:
        return fail(f"{name}: cnt_cache policy missing")

    for pname, p in policies.items():
        total = p.get("total_j")
        if total is None or not math.isfinite(total) or total <= 0:
            return fail(f"{name}/{pname}: bad total energy {total}")
        cat_sum = sum(c["joules"] for c in p.get("categories", {}).values())
        if abs(cat_sum - total) > 1e-9 * max(total, 1e-30):
            return fail(
                f"{name}/{pname}: categories sum {cat_sum} != total {total}")

    saving = r.get("savings", {}).get("cnt_cache")
    if saving is None or not -1.0 < saving < 1.0:
        return fail(f"{name}: implausible saving {saving}")
    if min_saving is not None and saving < min_saving:
        return fail(f"{name}: saving {saving:.3f} below gate {min_saving}")

    cache = r.get("cache", {})
    if not 0.0 <= cache.get("hit_rate", -1) <= 1.0:
        return fail(f"{name}: bad hit rate")
    print(f"ok: {name}  saving={saving:.3f}  "
          f"hit_rate={cache.get('hit_rate'):.3f}")
    return 0


def positive_number(v):
    return isinstance(v, (int, float)) and math.isfinite(v) and v > 0


def check_perf(doc, min_aps):
    """Checks for a cnt-bench-perf-v2 document: stable identity fields at
    the top level, run-varying measurements nested under "timing"."""
    name = doc.get("bench", "?")
    if doc.get("failpoints_enabled"):
        return fail(f"{name}: measured with failpoints armed "
                    "(failpoints_enabled=true); rerun without CNT_FAILPOINTS")
    if doc.get("job_timeout_armed"):
        return fail(f"{name}: measured with the job watchdog armed "
                    "(job_timeout_armed=true); rerun without "
                    "CNT_JOB_TIMEOUT_MS")

    if "kernels" in doc:
        kernels = doc["kernels"]
        if not isinstance(kernels, list) or not kernels:
            return fail(f"{name}: empty or malformed kernels array")
        rc = 0
        for k in kernels:
            kname = k.get("name", "?")
            timing = k.get("timing", {})
            if not positive_number(k.get("ops")):
                rc |= fail(f"{name}/{kname}: bad ops {k.get('ops')!r}")
                continue
            for key in ("seconds", "ops_per_sec"):
                if not positive_number(timing.get(key)):
                    rc |= fail(f"{name}/{kname}: bad timing.{key} "
                               f"{timing.get(key)!r}")
                    break
            else:
                rate = timing["ops_per_sec"]
                if (min_aps is not None and kname == "replay"
                        and rate < min_aps):
                    rc |= fail(f"{name}/{kname}: {rate:.0f} ops/sec below "
                               f"gate {min_aps:.0f}")
                else:
                    print(f"ok: {name}/{kname}  {rate:.0f} ops/sec")
        return rc

    timing = doc.get("timing", {})
    for key in ("accesses", "file_bytes"):
        if not positive_number(doc.get(key)):
            return fail(f"{name}: bad {key} {doc.get(key)!r}")
    for key in ("seconds", "accesses_per_sec", "peak_rss_bytes"):
        if not positive_number(timing.get(key)):
            return fail(f"{name}: bad timing.{key} {timing.get(key)!r}")
    if doc.get("ledger_identical") is not True:
        return fail(f"{name}: streamed replay diverged from the in-RAM "
                    "energy ledger")
    aps = timing["accesses_per_sec"]
    if min_aps is not None and aps < min_aps:
        return fail(f"{name}: {aps:.0f} accesses/sec below gate {min_aps:.0f}")
    print(f"ok: {name}  {aps:.0f} accesses/sec  "
          f"peak_rss={timing['peak_rss_bytes'] / 2**20:.1f} MiB  "
          f"ledger_identical=true")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("json_file")
    ap.add_argument("--min-saving", type=float, default=None,
                    help="fail if any workload's cnt_cache saving is below")
    ap.add_argument("--min-aps", type=float, default=None,
                    help="fail if a perf bench's accesses/sec is below")
    args = ap.parse_args()

    # Prerequisite problems exit 2 loudly instead of tracebacking (or,
    # worse, passing vacuously on an empty/absent input).
    try:
        with open(args.json_file) as fh:
            doc = json.load(fh)
    except OSError as exc:
        fail(f"cannot read {args.json_file}: {exc}")
        return 2
    except json.JSONDecodeError as exc:
        fail(f"malformed JSON in {args.json_file}: {exc}")
        return 2
    if not isinstance(doc, dict):
        fail(f"{args.json_file}: top-level JSON value is not an object")
        return 2

    # stats_dump stamps multi-result files with a schema tag; a
    # single-result dump is recognised by its top-level "workload" key.
    # Anything else is not a results file at all -- refuse it rather
    # than defaulting the schema to the happy path.
    if "workload" in doc:
        results = [doc]
    elif "schema" not in doc:
        fail(f"{args.json_file}: missing schema tag "
             "(expected cnt-cache-results-v1 or cnt-bench-perf-v2)")
        return 2
    elif doc["schema"] == "cnt-bench-perf-v2":
        rc = check_perf(doc, args.min_aps)
        if rc == 0:
            print("PASS: perf bench healthy")
        return rc
    elif doc["schema"] != "cnt-cache-results-v1":
        return fail(f"unknown schema {doc['schema']}")
    else:
        results = doc.get("results", [])
    if not results:
        return fail("no results found in the JSON document")

    rc = 0
    for r in results:
        rc |= check_result(r, args.min_saving)
    if rc == 0:
        print(f"PASS: {len(results)} result(s) healthy")
    return rc


if __name__ == "__main__":
    sys.exit(main())
