#!/usr/bin/env python3
"""CI smoke gate for sharded scatter-gather serving regressions.

Reads the JSON emitted by bench_dist (BENCH_dist.json) and fails when
the coordinator at a given shard count stops beating the sequential
single-box NeighborsBatch by the required factor. Checksum agreement
between the single box and every sharded run is checked UNCONDITIONALLY
and is fatal — a sharded deployment that answers differently is wrong at
any speed, noise floor or not.

Usage:
    check_dist.py [BENCH_dist.json]
        [--shards N] [--min-speedup X] [--min-single-seconds S]

Exit codes: 0 pass, 1 regression or checksum divergence, 2 bad input.
If the single-box baseline ran faster than --min-single-seconds, the
speedup gate passes with a notice instead of judging noise-dominated
timings (the checksum check stays live).
"""

import argparse
import json
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", nargs="?", default="BENCH_dist.json")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count whose coordinator speedup is gated")
    parser.add_argument("--min-speedup", type=float, default=1.3,
                        help="minimum acceptable speedup over the "
                             "sequential single-box batch")
    parser.add_argument("--min-single-seconds", type=float, default=0.2,
                        help="skip the speedup gate when the single-box "
                             "baseline is shorter than this (timing noise)")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {args.report}: {err}", file=sys.stderr)
        return 2

    runs = report.get("runs", [])
    single = next((r for r in runs if r.get("mode") == "single"), None)
    sharded = next((r for r in runs if r.get("mode") == "sharded"
                    and r.get("shards") == args.shards), None)
    if single is None or sharded is None:
        print(f"error: need a 'single' run and a 'sharded' run at "
              f"{args.shards} shards in {args.report}", file=sys.stderr)
        return 2

    # Correctness first, and never skipped: every sharded run must agree
    # with the single box byte for byte (the bench hashes every position's
    # neighbor list, in input order).
    diverged = [r for r in runs
                if r.get("checksum") != single.get("checksum")]
    if diverged:
        for r in diverged:
            print(f"FAIL: checksum diverged at {r.get('shards')} shard(s): "
                  f"{r.get('checksum')} != {single.get('checksum')}",
                  file=sys.stderr)
        return 1
    print(f"checksums agree across {len(runs)} run(s)")

    cores = os.cpu_count() or 1
    if cores < args.shards:
        print(f"SKIP: only {cores} core(s) available; cannot judge a "
              f"{args.shards}-shard dispatch speedup")
        return 0

    if single["seconds"] < args.min_single_seconds:
        print(f"SKIP: single-box baseline took {single['seconds']:.3f}s "
              f"(< {args.min_single_seconds}s); timings are noise at this "
              f"scale")
        return 0

    speedup = sharded["queries_per_second"] / single["queries_per_second"]
    print(f"single box: {single['queries_per_second']:,.0f} q/s; "
          f"{args.shards}-shard coordinator: "
          f"{sharded['queries_per_second']:,.0f} q/s -> {speedup:.2f}x")
    if speedup < args.min_speedup:
        print(f"FAIL: {args.shards}-shard speedup {speedup:.2f}x is below "
              f"the {args.min_speedup:.2f}x floor", file=sys.stderr)
        return 1
    print(f"PASS: >= {args.min_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
