#!/usr/bin/env python3
"""CI smoke gate for the out-of-core storage layer.

Reads the JSON emitted by bench_storage (BENCH_storage.json) and fails
when either of the paged format's two serving promises regresses:

  1. Cold open: a paged open reads only the header and page table, so it
     must be at least --min-open-speedup (default 10x) faster than the
     monolithic load of the same summary.
  2. Warm throughput: once the batch's records are published and its
     pages fetched, paged batch queries must stay within
     --max-query-slowdown (default 2x) of the in-memory walk.

Also requires the in-memory and paged query sweeps to have agreed on
their checksums (same answers off disk as from memory).

Usage:
    check_storage.py [BENCH_storage.json]
        [--min-open-speedup X] [--max-query-slowdown Y]
        [--min-mono-open-seconds S]

Exit codes: 0 pass, 1 regression, 2 bad input. If the monolithic open
finished faster than --min-mono-open-seconds, the open-speedup gate
passes with a notice instead of judging noise-dominated timings (the
checksum and throughput gates still apply).
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", nargs="?", default="BENCH_storage.json")
    parser.add_argument("--min-open-speedup", type=float, default=10.0,
                        help="minimum cold-open speedup of paged over "
                             "monolithic")
    parser.add_argument("--max-query-slowdown", type=float, default=2.0,
                        help="max warm paged query latency as a multiple "
                             "of the in-memory batch walk")
    parser.add_argument("--min-mono-open-seconds", type=float, default=0.005,
                        help="skip the open gate when the monolithic open "
                             "is shorter than this (timing noise)")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {args.report}: {err}", file=sys.stderr)
        return 2

    open_stats = report.get("open", {})
    query = report.get("query", {})
    for section, keys in (("open", ("monolithic_seconds", "paged_seconds")),
                          ("query", ("inmem_qps", "paged_qps",
                                     "checksums_agree"))):
        block = report.get(section, {})
        missing = [k for k in keys if k not in block]
        if missing:
            print(f"error: {args.report} section '{section}' is missing "
                  f"{missing}", file=sys.stderr)
            return 2

    failures = []

    if not query["checksums_agree"]:
        failures.append("paged and in-memory query checksums disagree")

    mono = open_stats["monolithic_seconds"]
    paged = open_stats["paged_seconds"]
    if mono < args.min_mono_open_seconds:
        print(f"notice: monolithic open took only {mono * 1e3:.2f}ms "
              f"(< {args.min_mono_open_seconds * 1e3:.0f}ms); open-speedup "
              f"gate skipped as noise-dominated")
    else:
        speedup = mono / paged if paged > 0 else float("inf")
        print(f"cold open: monolithic {mono * 1e3:.2f}ms, paged "
              f"{paged * 1e3:.3f}ms -> {speedup:.1f}x "
              f"(gate >= {args.min_open_speedup:.0f}x)")
        if speedup < args.min_open_speedup:
            failures.append(
                f"paged cold open only {speedup:.1f}x faster than the "
                f"monolithic load (need >= {args.min_open_speedup:.0f}x)")

    inmem_qps = query["inmem_qps"]
    paged_qps = query["paged_qps"]
    slowdown = inmem_qps / paged_qps if paged_qps > 0 else float("inf")
    print(f"warm query: in-memory {inmem_qps:.0f} q/s, paged "
          f"{paged_qps:.0f} q/s -> {slowdown:.2f}x slower "
          f"(gate <= {args.max_query_slowdown:.1f}x)")
    if slowdown > args.max_query_slowdown:
        failures.append(
            f"warm paged queries {slowdown:.2f}x slower than in-memory "
            f"(limit {args.max_query_slowdown:.1f}x)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("storage gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
