#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload serve-paged --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The build, scratch files and trace dumps go
to .bench_build/. The last line of standard output is the run's JSON
result; the lines before it are the program's provenance and metric lines.

BENCHMARK.json is the one list of metrics: a run's metrics must have its
names and units (every end-to-end metric with --trace 0; per-layer ones
with --trace 1, where a layer that does not run in the workload reads 0).

The exact-repeat guard: outputs that must not depend on timing (relative
size, bytes per edge, answer checksums, fan-out, fold and rebuild counts)
are stored per source tree, workload, size and seed, and a later run of
the same seed that reads differently fails.

--smoke runs every workload at tiny sizes, with and without tracing, and
checks metric names and units against BENCHMARK.json, the oracles, and
the traced run's Chrome trace-event file.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "perfbench"
RUN_TIMEOUT_S = 170
SPEC = ROOT / "BENCHMARK.json"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no library sources next to {HERE.name}/ (expected src/ and CMakeLists.txt in {ROOT})")
    BUILD.mkdir(exist_ok=True)
    cmake_dir = BUILD / "cmake"
    log_path = BUILD / "build.log"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(cmake_dir), "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; see {log_path}")


def source_fingerprint():
    """Hash of the code that determines the exact-repeat outputs."""
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        paths += sorted(p for p in top.rglob("*")
                        if p.suffix in (".cpp", ".hpp", ".txt") and p.is_file())
    for p in paths:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()[:16]


def run_program(workload, seed, seconds, trace, size):
    """Runs the program once; returns (result dict, stdout lines, trace path)."""
    work = BUILD / "work"
    traces = BUILD / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    trace_path = traces / f"{workload}-{size}-seed{seed}.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size, "--work-dir", str(work),
           "--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{workload} exited with code {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1], object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, ValueError) as e:
        fail(f"{workload} did not end with a JSON result: {e}", 1)
    result["metrics"] = checked_metrics(workload, trace, result["metrics"])
    check_repeat(workload, size, seed, lines, result)
    return result, lines[:-1], trace_path


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"repeated keys {sorted(k for k in set(keys) if keys.count(k) > 1)}")
    return dict(pairs)


def checked_metrics(workload, trace, metrics):
    """The run's metrics in BENCHMARK.json's order; fails on any name or unit
    BENCHMARK.json does not list for the run's mode."""
    spec = json.loads(SPEC.read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    wrong = [f"{n} ({m['unit']})" for n, m in metrics.items() if units.get(n) != m["unit"]]
    if wrong:
        fail(f"{workload} reported metrics BENCHMARK.json does not list: {', '.join(wrong)}", 1)
    missing = [n for n in units if n not in metrics]
    if missing and not trace:
        fail(f"{workload} did not measure {', '.join(missing)}", 1)
    return {n: metrics.get(n, {"value": 0, "unit": u}) for n, u in units.items()}


def check_repeat(workload, size, seed, lines, result):
    exact = {}
    for line in lines:
        if line.startswith("# exact "):
            _, _, key, value = line.split(" ", 3)
            exact[key] = value
    record = BUILD / "repeat" / source_fingerprint() / f"{workload}-{size}-seed{seed}.json"
    if not record.is_file():
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(exact, indent=1, sort_keys=True))
        return
    before = json.loads(record.read_text())
    result["attempted"] += 1
    if before != exact:
        for key in sorted(set(before) | set(exact)):
            if before.get(key) != exact.get(key):
                print(f"perfbench: exact-repeat {key} was {before.get(key)}, now {exact.get(key)}",
                      file=sys.stderr)
        result["failed"] += 1
        result["correct"] = False


def smoke():
    spec = json.loads(SPEC.read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    # Per-layer metrics each workload must measure (nonzero), and spans its
    # trace must hold.
    expect = {
        "serve-paged": (["storage.open_s", "storage.fetches_per_node",
                         "storage.record_cache_hit_ratio", "storage.paged_over_inmem",
                         "summary.batch_ms", "core.p_edges", "storage.self_share",
                         "summary.self_share"],
                        ["storage.Save", "storage.Open", "storage.PagedSummarySource::NeighborsBatch"]),
        "serve-sharded": (["dist.build_s", "dist.partition_s", "dist.dispatch_ms",
                           "dist.stitch_ms", "dist.fanout", "dist.over_single_box",
                           "api.self_share", "dist.self_share", "summary.self_share"],
                          ["api.ShardedGraph::NeighborsBatch", "dist.coord.batch",
                           "summary.coord.dispatch"]),
        "serve-live": (["stream.apply_ms", "stream.rebuilds", "stream.compact_s",
                        "stream.edits_per_s", "summary.chain_reuse_ratio", "core.summarize_s",
                        "core.evaluations", "core.merge_accept_ratio", "stream.self_share",
                        "summary.self_share", "core.self_share"],
                       ["stream.DynamicGraph::ApplyEdits", "stream.DynamicGraph::Compact",
                        "core.engine.summarize", "api.DynamicGraph::NeighborsBatch",
                        "core.Summarize", "api.Engine::Summarize"]),
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, _, trace_path = run_program(workload, 1, 1, trace, "tiny")
            where = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            metrics = result["metrics"]
            if not trace:
                problems += [f"{where}: {n} is 0" for n in e2e if metrics.get(n, {}).get("value") == 0]
                continue
            nonzero, spans = expect.get(workload, ([], []))
            problems += [f"{where}: {n} is 0" for n in nonzero if not metrics.get(n, {}).get("value")]
            try:
                events = json.loads(trace_path.read_text())["traceEvents"]
            except (OSError, ValueError, KeyError) as e:
                problems.append(f"{where}: unreadable trace {trace_path}: {e}")
                continue
            names = {e["name"] for e in events if e.get("ph") == "X" and e.get("dur", -1) >= 0}
            problems += [f"{where}: no {s} span in {trace_path}" for s in spans if s not in names]
        print(f"smoke: {workload} done", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        fail("--workload is required")
    result, lines, _ = run_program(args.workload, args.seed, args.seconds, args.trace, args.size)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
