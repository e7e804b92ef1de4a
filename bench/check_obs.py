#!/usr/bin/env python3
"""CI gate for the observability layer.

Compares bench_obs runs of the normal instrumented build (BENCH_obs.json)
and of the -DSLUGGER_OBS=OFF stripped build (BENCH_obs_off.json), and
fails when instrumentation costs more than --max-overhead (default 5%)
on the warm batch-query path. CI runs the two builds alternately, three
times each, and passes the reports in run order; the i-th instrumented
report pairs with the i-th stripped one, and the gate judges the median
of the paired overheads, so one slow spell of a shared runner cannot
decide it alone. The single-query overhead is printed for the record
but not gated: it is sampled 1-in-64 and sits inside timing noise by
construction.

Also verifies the end-to-end wiring: the Prometheus dump the
instrumented run wrote (BENCH_obs.prom) must contain at least one
metric family from EVERY instrumented layer — engine, query path,
paged storage/buffer manager, dynamic graph, snapshot registry, and
the sharded coordinator. A refactor that silently drops one layer's
instrumentation fails here, not in production.

Usage:
    check_obs.py [--on BENCH_obs.json ...] [--off BENCH_obs_off.json ...]
        [--prom BENCH_obs.prom] [--max-overhead F]
        [--min-loop-seconds S]

Exit codes: 0 pass, 1 regression, 2 bad input. When any stripped
build's batch loop ran shorter than --min-loop-seconds in total, the
overhead gate passes with a notice instead of judging noise-dominated
timings (the checksum and wiring assertions still apply).
"""

import argparse
import json
import statistics
import sys

# One required metric-name prefix per instrumented layer. bench_obs
# exercises all of them before dumping, so every prefix must appear.
LAYER_PREFIXES = {
    "engine": "slugger_engine_",
    "query path": "slugger_query_",
    "buffer manager": "slugger_buffer_",
    "paged storage": "slugger_paged_",
    "dynamic graph": "slugger_dynamic_",
    "snapshot registry": "slugger_snapshot_",
    "coordinator": "slugger_coord_",
}


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--on", nargs="+", default=["BENCH_obs.json"],
                        help="instrumented reports, in run order")
    parser.add_argument("--off", nargs="+", default=["BENCH_obs_off.json"],
                        help="stripped reports, in run order")
    parser.add_argument("--prom", default="BENCH_obs.prom",
                        help="Prometheus dump from the instrumented run")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="max fractional slowdown of the instrumented "
                             "warm batch path vs the stripped build, as the "
                             "median over the pairs")
    parser.add_argument("--min-loop-seconds", type=float, default=0.2,
                        help="skip the overhead gate when a stripped "
                             "batch loop totalled less than this")
    args = parser.parse_args()
    if len(args.on) != len(args.off):
        print(f"error: {len(args.on)} instrumented reports but "
              f"{len(args.off)} stripped ones; they are judged in pairs",
              file=sys.stderr)
        return 2

    try:
        ons = [load(path) for path in args.on]
        offs = [load(path) for path in args.off]
        with open(args.prom, encoding="utf-8") as f:
            prom = f.read()
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read inputs: {err}", file=sys.stderr)
        return 2

    if (not all(on.get("obs_enabled") for on in ons) or
            any(off.get("obs_enabled") for off in offs)):
        print(f"error: expected {args.on} from an instrumented build "
              f"and {args.off} from a SLUGGER_OBS=OFF build",
              file=sys.stderr)
        return 2
    for report, name in zip(ons + offs, args.on + args.off):
        missing = [k for k in ("batch_qps", "single_qps", "checksum",
                               "batch_total_seconds") if k not in report]
        if missing:
            print(f"error: {name} is missing {missing}", file=sys.stderr)
            return 2

    failures = []

    # Same workload, same answers: a checksum mismatch means the runs did
    # not do comparable work, so the comparison is void.
    checksums = sorted({report["checksum"] for report in ons + offs})
    if len(checksums) != 1:
        failures.append(
            f"checksum mismatch between runs ({checksums}): runs are not "
            f"comparable")

    overheads = []
    for i, (on, off) in enumerate(zip(ons, offs), start=1):
        single = (off["single_qps"] - on["single_qps"]) / off["single_qps"]
        batch = (off["batch_qps"] - on["batch_qps"]) / off["batch_qps"]
        overheads.append(batch)
        print(f"pair {i}: batch stripped {off['batch_qps']:.0f} q/s, "
              f"instrumented {on['batch_qps']:.0f} q/s "
              f"({batch * 100:+.1f}%); single stripped "
              f"{off['single_qps']:.0f} q/s, instrumented "
              f"{on['single_qps']:.0f} q/s ({single * 100:+.1f}%, not gated)")

    overhead = statistics.median(overheads)
    print(f"batch query:  median overhead of {len(overheads)} pairs "
          f"{overhead * 100:+.1f}% (gate <= {args.max_overhead * 100:.0f}%)")
    shortest = min(off["batch_total_seconds"] for off in offs)
    if shortest < args.min_loop_seconds:
        print(f"notice: a stripped batch loop totalled only "
              f"{shortest:.3f}s (< {args.min_loop_seconds:.1f}s); overhead "
              f"gate skipped as noise-dominated")
    elif overhead > args.max_overhead:
        failures.append(
            f"instrumented warm batch path {overhead * 100:.1f}% slower "
            f"than stripped in the median of {len(overheads)} pairs "
            f"(limit {args.max_overhead * 100:.0f}%)")

    # Wiring: every layer must show up in the instrumented dump.
    for layer, prefix in LAYER_PREFIXES.items():
        if prefix not in prom:
            failures.append(
                f"{args.prom} has no '{prefix}*' metric: the {layer} "
                f"layer lost its instrumentation")
    print(f"prometheus dump: {len(prom)} bytes, "
          f"{sum(1 for line in prom.splitlines() if line.startswith('# TYPE'))}"
          f" metric families")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("observability gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
