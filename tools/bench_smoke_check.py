#!/usr/bin/env python3
"""Checks the bench smoke run (tools/check.sh --bench-smoke).

Usage: bench_smoke_check.py BUILD_DIR

Each gate reads one fixed-name JSON file from BUILD_DIR (the CHECKS table at
the bottom); a missing file fails the run.

From bench_smoke.json it asserts the observability overhead bound: with no
sink configured, the per-operator instrumentation (one disabled-Span
construction per operator invocation) must cost <2% of a representative
query (BM_ScanFilter/250). It also asserts the group-commit bound: at 8
concurrent writers the WAL's piggybacked fsync must recover >= 3x the
single-writer fsync-on-commit throughput (DESIGN.md §9). Also validates that
the LDV_METRICS_OUT snapshot bench_micro wrote (metrics_smoke.json) is a
well-formed metrics JSON document.

From bench_parallel.json (the trajectory the parallel benchmarks emit) it
asserts the morsel-driven scaling bound (DESIGN.md §10): with >= 4 hardware
threads, BM_ParallelScan plus at least one of BM_ParallelHashJoin /
BM_ParallelAgg must reach >= 2.5x the --threads 1 throughput at 8 threads.
On boxes without enough cores the scaling bound is physically unreachable,
so it is SKIPPED (loudly) and only a no-regression bound is enforced:
parallel execution at 8 threads must keep >= 0.7x the serial throughput (the
morsel machinery must not tax a serial box).

From bench_governance.json (the latency JSON the LDV_BENCH_GOVERNANCE_OUT
probe emits) it asserts the resource-governance responsiveness bound
(DESIGN.md §11): a cancel landing mid-scan on the 150k-row table must unwind
within 100 ms, and a statement deadline must not overshoot by more than 100
ms, at both 1 and 8 threads.

From bench_concurrent.json (the curve bench_concurrent emits) it asserts the
inter-query parallelism bound (DESIGN.md §12): with >= 4 hardware threads,
read-only QPS at 8 clients must reach >= 3x the single-client QPS. On boxes
without enough cores the bound is physically unreachable, so it is SKIPPED
(loudly) and only a no-regression floor is enforced: 8 clients must keep >=
0.7x the single-client QPS (the MVCC locking must not tax a serial box). The
mixed workload must additionally show both reads and writes making progress.

From bench_prepared.json (the comparison bench_prepared emits) it asserts
the repeated-statement bound (DESIGN.md §13): with >= 4 hardware threads,
EXECUTE against a prepared handle (bind-and-execute through the shared plan
cache) must reach >= 2x the QPS of re-sending the same SELECT as literal
SQL. On smaller/noisier boxes the 2x bound is SKIPPED (loudly) and only a
no-regression floor is enforced: EXECUTE must keep >= 0.9x the literal QPS
(the cache lookup must never cost more than the parse/plan it saves).

From bench_repl.json (the summary bench_repl emits) it asserts the
replication bounds (DESIGN.md §14): with >= 4 hardware threads, failover
(primary death -> promoted standby serving a write through the
multi-endpoint client) must complete within 2 s, and the hot standby must
serve reads at >= 0.8x the primary's QPS. On smaller boxes the read-ratio
bound is SKIPPED (loudly) with a relaxed 0.5x floor, and the failover
ceiling is relaxed to 10 s — a replica that takes tens of seconds to take
over is broken on any hardware.

From bench_vector.json (the comparison bench_vector emits) it asserts the
vectorized-execution bound (DESIGN.md §15): with >= 4 hardware threads, the
columnar kernels must run the single-threaded scan-filter-agg pipeline at >=
2x the row engine's rows/s. On smaller or noisier boxes the 2x bound is
SKIPPED (loudly) and only a no-regression floor is enforced: every measured
kernel must keep >= 0.9x the row engine's throughput (batching must never
cost more than it saves).
"""
import json
import os
import sys

PARALLEL_SPEEDUP = 2.5
PARALLEL_NO_REGRESSION = 0.7
# Cores needed before the 2.5x-at-8-threads bound is physically meaningful.
PARALLEL_MIN_HW = 4
# Cancel-to-return / deadline-overshoot ceiling (milliseconds).
GOVERNANCE_LATENCY_MS = 100.0
# Inter-query parallelism: read-only QPS multiple required at 8 clients.
CONCURRENT_SPEEDUP = 3.0
CONCURRENT_NO_REGRESSION = 0.7
CONCURRENT_MIN_HW = 4
# Prepared statements: EXECUTE-vs-literal QPS multiple (plan-cache savings).
PREPARED_SPEEDUP = 2.0
PREPARED_NO_REGRESSION = 0.9
PREPARED_MIN_HW = 4
# Replication: failover ceiling, standby-read floor (vs primary reads).
REPL_FAILOVER_MS = 2000.0
REPL_FAILOVER_RELAXED_MS = 10000.0
REPL_READ_RATIO = 0.8
REPL_READ_RATIO_RELAXED = 0.5
REPL_MIN_HW = 4
# Vectorized execution: columnar-vs-row rows/s multiple on scan-filter-agg.
VECTOR_SPEEDUP = 2.0
VECTOR_NO_REGRESSION = 0.9
VECTOR_MIN_HW = 4

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Generous upper bound on operator invocations per query; the scan-filter
# plan actually executes three operators (Scan, Filter, Project) once each.
OPS_PER_QUERY = 16


def real_ns(benchmarks, name):
    for bench in benchmarks:
        if (bench.get("name") == name
                and bench.get("run_type", "iteration") == "iteration"):
            return bench["real_time"] * UNIT_NS[bench.get("time_unit", "ns")]
    raise SystemExit(f"bench_smoke_check: benchmark {name!r} missing from results")


def items_per_second(benchmarks, name):
    for bench in benchmarks:
        if (bench.get("name") == name
                and bench.get("run_type", "iteration") == "iteration"):
            return bench["items_per_second"]
    raise SystemExit(f"bench_smoke_check: benchmark {name!r} missing from results")


def curve_point(curve, threads):
    for point in curve:
        if point.get("threads") == threads:
            return point["items_per_second"]
    raise SystemExit(
        f"bench_smoke_check: threads={threads} point missing from curve")


def check_parallel(path):
    with open(path) as f:
        trajectory = json.load(f)
    hw = trajectory.get("hardware_threads", 1)
    curves = trajectory.get("curves", {})
    if "scan" not in curves:
        raise SystemExit(
            "bench_smoke_check: scan curve missing from " + path)
    speedups = {}
    for name, curve in sorted(curves.items()):
        serial = curve_point(curve, 1)
        eight = curve_point(curve, 8)
        speedups[name] = eight / serial
        print(f"bench_smoke_check: parallel {name}: {serial:.0f} rows/s at 1"
              f" thread, {eight:.0f} at 8 = {speedups[name]:.2f}x")
    if hw >= PARALLEL_MIN_HW:
        if speedups["scan"] < PARALLEL_SPEEDUP:
            raise SystemExit(
                f"bench_smoke_check: BM_ParallelScan reached only"
                f" {speedups['scan']:.2f}x at 8 threads"
                f" (need >= {PARALLEL_SPEEDUP}x)")
        others = [speedups[n] for n in ("hash_join", "agg") if n in speedups]
        if others and max(others) < PARALLEL_SPEEDUP:
            raise SystemExit(
                f"bench_smoke_check: neither join nor agg reached"
                f" {PARALLEL_SPEEDUP}x at 8 threads"
                f" (best {max(others):.2f}x)")
        print(f"bench_smoke_check: parallel scaling bound"
              f" ({PARALLEL_SPEEDUP}x at 8 threads) met on {hw} cores")
    else:
        print(f"bench_smoke_check: SKIPPING the {PARALLEL_SPEEDUP}x scaling"
              f" bound: only {hw} hardware thread(s) available"
              f" (needs >= {PARALLEL_MIN_HW}); enforcing no-regression only")
        for name, speedup in speedups.items():
            if speedup < PARALLEL_NO_REGRESSION:
                raise SystemExit(
                    f"bench_smoke_check: parallel {name} regressed to"
                    f" {speedup:.2f}x of serial at 8 threads on a"
                    f" {hw}-core box (floor {PARALLEL_NO_REGRESSION}x)")


def check_governance(path):
    with open(path) as f:
        probe = json.load(f)
    for bound in ("cancel_latency_ms", "deadline_overshoot_ms"):
        points = probe.get(bound)
        if not points:
            raise SystemExit(
                f"bench_smoke_check: {bound} missing from {path}")
        for threads, latency in sorted(points.items()):
            print(f"bench_smoke_check: governance {bound} {threads}:"
                  f" {latency:.1f}ms (bound {GOVERNANCE_LATENCY_MS:.0f}ms)")
            if latency > GOVERNANCE_LATENCY_MS:
                raise SystemExit(
                    f"bench_smoke_check: governance {bound} at {threads} ="
                    f" {latency:.1f}ms exceeds the"
                    f" {GOVERNANCE_LATENCY_MS:.0f}ms responsiveness bound")


def check_concurrent(path):
    with open(path) as f:
        curve = json.load(f)
    hw = curve.get("hardware_threads", 1)
    read_only = curve.get("read_only", {})
    for key in ("clients_1", "clients_8"):
        if key not in read_only:
            raise SystemExit(
                f"bench_smoke_check: read_only.{key} missing from {path}")
    single = read_only["clients_1"]
    eight = read_only["clients_8"]
    if single <= 0:
        raise SystemExit(
            "bench_smoke_check: single-client QPS is zero — no reads ran")
    ratio = eight / single
    print(f"bench_smoke_check: concurrent read-only {single:.0f} qps at 1"
          f" client, {eight:.0f} at 8 = {ratio:.2f}x")
    if hw >= CONCURRENT_MIN_HW:
        if ratio < CONCURRENT_SPEEDUP:
            raise SystemExit(
                f"bench_smoke_check: read-only QPS reached only {ratio:.2f}x"
                f" at 8 clients (need >= {CONCURRENT_SPEEDUP}x on {hw} cores)")
        print(f"bench_smoke_check: inter-query scaling bound"
              f" ({CONCURRENT_SPEEDUP}x at 8 clients) met on {hw} cores")
    else:
        print(f"bench_smoke_check: SKIPPING the {CONCURRENT_SPEEDUP}x"
              f" inter-query scaling bound: only {hw} hardware thread(s)"
              f" available (needs >= {CONCURRENT_MIN_HW}); enforcing"
              f" no-regression only")
        if ratio < CONCURRENT_NO_REGRESSION:
            raise SystemExit(
                f"bench_smoke_check: read-only QPS regressed to {ratio:.2f}x"
                f" of single-client at 8 clients on a {hw}-core box"
                f" (floor {CONCURRENT_NO_REGRESSION}x)")
    mixed = curve.get("mixed", {})
    reads = mixed.get("reads_per_sec", 0)
    writes = mixed.get("writes_per_sec", 0)
    print(f"bench_smoke_check: concurrent mixed {reads:.0f} reads/s,"
          f" {writes:.0f} writes/s at {mixed.get('clients', '?')} clients")
    if reads <= 0 or writes <= 0:
        raise SystemExit(
            "bench_smoke_check: mixed workload starved — readers and the"
            " writer must both make progress")


def check_prepared(path):
    with open(path) as f:
        comparison = json.load(f)
    hw = comparison.get("hardware_threads", 1)
    literal = comparison.get("literal_qps", 0)
    execute = comparison.get("execute_qps", 0)
    if literal <= 0 or execute <= 0:
        raise SystemExit(
            "bench_prepared: a side of the comparison ran zero statements")
    ratio = execute / literal
    print(f"bench_smoke_check: prepared {literal:.0f} literal qps,"
          f" {execute:.0f} execute qps = {ratio:.2f}x")
    if hw >= PREPARED_MIN_HW:
        if ratio < PREPARED_SPEEDUP:
            raise SystemExit(
                f"bench_smoke_check: EXECUTE reached only {ratio:.2f}x the"
                f" literal-SQL QPS (need >= {PREPARED_SPEEDUP}x on {hw} cores)")
        print(f"bench_smoke_check: repeated-statement bound"
              f" ({PREPARED_SPEEDUP}x via the plan cache) met on {hw} cores")
    else:
        print(f"bench_smoke_check: SKIPPING the {PREPARED_SPEEDUP}x"
              f" repeated-statement bound: only {hw} hardware thread(s)"
              f" available (needs >= {PREPARED_MIN_HW}); enforcing"
              f" no-regression only")
        if ratio < PREPARED_NO_REGRESSION:
            raise SystemExit(
                f"bench_smoke_check: EXECUTE regressed to {ratio:.2f}x of the"
                f" literal-SQL QPS on a {hw}-core box"
                f" (floor {PREPARED_NO_REGRESSION}x)")


def check_repl(path):
    with open(path) as f:
        summary = json.load(f)
    hw = summary.get("hardware_threads", 1)
    for field in ("write_qps", "steady_lag_mean_lsn", "steady_lag_max_lsn",
                  "failover_ms", "primary_read_qps", "standby_read_qps"):
        if field not in summary:
            raise SystemExit(
                f"bench_smoke_check: {field} missing from {path}")
    failover = summary["failover_ms"]
    primary = summary["primary_read_qps"]
    standby = summary["standby_read_qps"]
    if primary <= 0 or standby <= 0:
        raise SystemExit(
            "bench_smoke_check: a replication read side ran zero queries")
    ratio = standby / primary
    print(f"bench_smoke_check: repl {summary['write_qps']:.0f} semi-sync"
          f" writes/s (lag mean {summary['steady_lag_mean_lsn']:.2f} max"
          f" {summary['steady_lag_max_lsn']} lsn), standby reads"
          f" {ratio:.2f}x primary, failover {failover:.1f}ms")
    if hw >= REPL_MIN_HW:
        if failover > REPL_FAILOVER_MS:
            raise SystemExit(
                f"bench_smoke_check: failover took {failover:.0f}ms"
                f" (ceiling {REPL_FAILOVER_MS:.0f}ms on {hw} cores)")
        if ratio < REPL_READ_RATIO:
            raise SystemExit(
                f"bench_smoke_check: standby served only {ratio:.2f}x the"
                f" primary's read QPS (floor {REPL_READ_RATIO}x on"
                f" {hw} cores)")
        print(f"bench_smoke_check: replication bounds"
              f" (failover <= {REPL_FAILOVER_MS:.0f}ms, standby reads"
              f" >= {REPL_READ_RATIO}x) met on {hw} cores")
    else:
        print(f"bench_smoke_check: SKIPPING the strict replication bounds:"
              f" only {hw} hardware thread(s) available"
              f" (needs >= {REPL_MIN_HW}); enforcing relaxed floors only")
        if failover > REPL_FAILOVER_RELAXED_MS:
            raise SystemExit(
                f"bench_smoke_check: failover took {failover:.0f}ms even"
                f" against the relaxed {REPL_FAILOVER_RELAXED_MS:.0f}ms"
                f" ceiling — promotion is broken on any hardware")
        if ratio < REPL_READ_RATIO_RELAXED:
            raise SystemExit(
                f"bench_smoke_check: standby served only {ratio:.2f}x the"
                f" primary's read QPS on a {hw}-core box"
                f" (relaxed floor {REPL_READ_RATIO_RELAXED}x)")


def check_vector(path):
    with open(path) as f:
        comparison = json.load(f)
    hw = comparison.get("hardware_threads", 1)
    kernels = comparison.get("kernels", {})
    if "scan_filter_agg" not in kernels:
        raise SystemExit(
            f"bench_smoke_check: scan_filter_agg kernel missing from {path}")
    for name, kernel in sorted(kernels.items()):
        print(f"bench_smoke_check: vector {name}:"
              f" {kernel['vectorized_rps']:.0f} vectorized rows/s vs"
              f" {kernel['row_rps']:.0f} row = {kernel['ratio']:.2f}x")
    ratio = kernels["scan_filter_agg"]["ratio"]
    if hw >= VECTOR_MIN_HW:
        if ratio < VECTOR_SPEEDUP:
            raise SystemExit(
                f"bench_smoke_check: vectorized scan-filter-agg reached only"
                f" {ratio:.2f}x the row engine (need >= {VECTOR_SPEEDUP}x"
                f" on {hw} cores)")
        print(f"bench_smoke_check: vectorized-execution bound"
              f" ({VECTOR_SPEEDUP}x scan-filter-agg) met on {hw} cores")
    else:
        print(f"bench_smoke_check: SKIPPING the {VECTOR_SPEEDUP}x vectorized"
              f" scan-filter-agg bound: only {hw} hardware thread(s)"
              f" available (needs >= {VECTOR_MIN_HW}); enforcing"
              f" no-regression only")
        for name, kernel in sorted(kernels.items()):
            if kernel["ratio"] < VECTOR_NO_REGRESSION:
                raise SystemExit(
                    f"bench_smoke_check: vectorized {name} regressed to"
                    f" {kernel['ratio']:.2f}x of the row engine on a"
                    f" {hw}-core box (floor {VECTOR_NO_REGRESSION}x)")


def check_micro(path):
    with open(path) as f:
        benchmarks = json.load(f)["benchmarks"]
    span_ns = real_ns(benchmarks, "BM_ObsSpanDisabled")
    query_ns = real_ns(benchmarks, "BM_ScanFilter/250")
    overhead_ns = span_ns * OPS_PER_QUERY
    bound_ns = 0.02 * query_ns
    print(f"bench_smoke_check: disabled span {span_ns:.1f}ns x {OPS_PER_QUERY}"
          f" ops = {overhead_ns:.0f}ns vs 2% of query"
          f" {query_ns:.0f}ns = {bound_ns:.0f}ns")
    if overhead_ns >= bound_ns:
        raise SystemExit(
            "bench_smoke_check: disabled-instrumentation overhead bound violated")

    single = items_per_second(
        benchmarks, "BM_WalCommit/sync:2/real_time/threads:1")
    grouped = items_per_second(
        benchmarks, "BM_WalCommit/sync:2/real_time/threads:8")
    ratio = grouped / single
    print(f"bench_smoke_check: group commit {grouped:.0f} commits/s at 8"
          f" writers vs {single:.0f} single-writer = {ratio:.2f}x (need >= 3x)")
    if ratio < 3.0:
        raise SystemExit(
            "bench_smoke_check: group commit recovered < 3x of the"
            " fsync-on-commit throughput at 8 writers")


def check_metrics(path):
    with open(path) as f:
        metrics = json.load(f)
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics:
            raise SystemExit(
                f"bench_smoke_check: metrics snapshot missing {section!r}")
    histogram = metrics["histograms"].get("bench.latency")
    if not histogram or not histogram.get("buckets"):
        raise SystemExit(
            "bench_smoke_check: bench.latency histogram missing from snapshot")


# (file in the build directory, gate over it), run in this order.
CHECKS = (
    ("bench_smoke.json", check_micro),
    ("metrics_smoke.json", check_metrics),
    ("bench_parallel.json", check_parallel),
    ("bench_governance.json", check_governance),
    ("bench_concurrent.json", check_concurrent),
    ("bench_prepared.json", check_prepared),
    ("bench_repl.json", check_repl),
    ("bench_vector.json", check_vector),
)


def main():
    if len(sys.argv) != 2:
        raise SystemExit("usage: bench_smoke_check.py BUILD_DIR")
    for name, check in CHECKS:
        path = os.path.join(sys.argv[1], name)
        if not os.path.exists(path):
            raise SystemExit(f"bench_smoke_check: {path} missing")
        check(path)
    print("bench_smoke_check: ok")


if __name__ == "__main__":
    main()
