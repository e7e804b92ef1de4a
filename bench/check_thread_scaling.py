#!/usr/bin/env python3
"""CI smoke gate for thread-scaling regressions.

Reads the JSON emitted by bench_threads (BENCH_threads.json) and fails when
the merge-phase speedup at a given thread count (the round-based engine)
over the 1-thread run (the sequential engine) drops below a threshold. Meant for smoke-scale CI
runs, so the default threshold (1.3x at 4 threads) leaves ample headroom
over the ~3x seen on dedicated hardware.

Usage:
    check_thread_scaling.py [BENCH_threads.json]
        [--threads N] [--min-speedup X] [--min-merge-seconds S]

Exit codes: 0 pass, 1 regression, 2 bad input. If the 1-thread merge phase
ran faster than --min-merge-seconds, the gate passes with a notice instead
of judging noise-dominated timings.
"""

import argparse
import json
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", nargs="?", default="BENCH_threads.json")
    parser.add_argument("--threads", type=int, default=4,
                        help="thread count whose speedup is gated")
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="minimum acceptable merge-phase speedup")
    parser.add_argument("--min-merge-seconds", type=float, default=0.2,
                        help="skip the gate when the 1-thread merge phase "
                             "is shorter than this (timing noise)")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {args.report}: {err}", file=sys.stderr)
        return 2

    runs = report.get("runs", [])
    by_threads = {r["threads"]: r for r in runs}
    base = by_threads.get(1)
    gated = by_threads.get(args.threads)
    if base is None or gated is None:
        print(f"error: need runs at 1 and {args.threads} "
              f"threads in {args.report}", file=sys.stderr)
        return 2

    for run in runs:
        if not run.get("lossless", False):
            print(f"FAIL: run at {run['threads']} threads was not lossless",
                  file=sys.stderr)
            return 1

    cores = os.cpu_count() or 1
    if cores < args.threads:
        print(f"SKIP: only {cores} core(s) available; cannot judge a "
              f"{args.threads}-thread speedup")
        return 0

    base_s = base["merge_seconds"]
    gated_s = gated["merge_seconds"]
    if base_s < args.min_merge_seconds:
        print(f"SKIP: 1-thread merge phase took only {base_s:.3f}s "
              f"(< {args.min_merge_seconds}s); too noisy to gate")
        return 0

    speedup = base_s / gated_s if gated_s > 0 else float("inf")
    verdict = "PASS" if speedup >= args.min_speedup else "FAIL"
    print(f"{verdict}: merge-phase speedup at {args.threads} threads = "
          f"{speedup:.2f}x (1t {base_s:.3f}s -> {args.threads}t "
          f"{gated_s:.3f}s, threshold {args.min_speedup}x)")
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
