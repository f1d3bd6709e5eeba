#!/usr/bin/env bash
# Tier-1 gate: configure, build and run the full test suite twice — once
# plain, once instrumented with AddressSanitizer + UndefinedBehaviorSanitizer
# (see the LDV_SANITIZE option in the top-level CMakeLists.txt).
#
# --bench-smoke additionally runs bench_micro and bench_concurrent once,
# asserts the disabled-instrumentation overhead bound (<2%, see DESIGN.md
# §8), the group-commit bound (>= 3x single-writer fsync throughput at 8
# writers, DESIGN.md §9), the morsel-parallel scaling bound (>= 2.5x at 8
# threads with enough cores, no-regression otherwise, DESIGN.md §10), the
# resource-governance responsiveness bound (cancel/deadline kills land
# within 100 ms mid-scan at 1 and 8 threads, DESIGN.md §11), the
# inter-query parallelism bound (>= 3x read-only QPS at 8 clients vs 1 with
# enough cores, no-regression otherwise, DESIGN.md §12), the
# repeated-statement bound (>= 2x QPS for EXECUTE through the plan cache vs
# re-sent literal SQL, DESIGN.md §13) and the vectorized-execution bound
# (>= 2x single-threaded scan-filter-agg rows/s for the columnar kernels vs
# the row engine, DESIGN.md §15). The artifacts (benchmark results, metrics
# snapshot, scaling curve, governance probe, concurrency curve,
# prepared-statement comparison, vectorized comparison) are left in build/
# and mirrored to BENCH_*.json in the repo root.
#
# --tsan additionally builds with ThreadSanitizer (LDV_SANITIZE=thread) and
# runs the concurrency-sensitive suites (thread pool, parallel execution,
# vectorized differential, exec incl. DML pre-state scans and lineage, net,
# txn/governance, mvcc, prepared-statement differential fuzzer) under it.
#
# --torture N runs N seeded kill-at-faultpoint iterations of crash_torture
# (on top of the short smoke pass ctest already includes).
#
# --repl-torture N runs N seeded iterations of the replication chaos
# campaign (crash_torture --repl): kill the streaming primary at WAL/net
# fault points, sever the stream mid-load, promote the hot standby, and
# verify zero committed-data loss plus bit-identical standby restart.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
TSAN=0
TORTURE_ITERS=0
REPL_TORTURE_ITERS=0
expect_torture=0
expect_repl_torture=0
for arg in "$@"; do
  if [[ "$expect_torture" == 1 ]]; then
    TORTURE_ITERS="$arg"; expect_torture=0; continue
  fi
  if [[ "$expect_repl_torture" == 1 ]]; then
    REPL_TORTURE_ITERS="$arg"; expect_repl_torture=0; continue
  fi
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --tsan) TSAN=1 ;;
    --torture) expect_torture=1 ;;
    --repl-torture) expect_repl_torture=1 ;;
    *) echo "check.sh: unknown argument: $arg" >&2; exit 2 ;;
  esac
done
if [[ "$expect_torture" == 1 ]]; then
  echo "check.sh: --torture needs an iteration count" >&2; exit 2
fi
if [[ "$expect_repl_torture" == 1 ]]; then
  echo "check.sh: --repl-torture needs an iteration count" >&2; exit 2
fi

echo "== tracked build artifacts =="
# Generated trees must never be committed; fail fast if any tracked path
# lives under a build directory.
if git ls-files | grep -E '^build[^/]*/' | head -5 | grep .; then
  echo "check.sh: tracked files under build*/ — git rm -r --cached them" >&2
  exit 1
fi

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j
# --timeout: no single test may wedge the gate — a hung cancellation or a
# deadlocked pool shows up as a per-test failure, not a stuck CI job.
(cd build && ctest --output-on-failure --timeout 120 -j)

if [[ "$BENCH_SMOKE" == 1 ]]; then
  echo "== bench smoke =="
  LDV_METRICS_OUT=build/metrics_smoke.json \
  LDV_BENCH_PARALLEL_OUT=build/bench_parallel.json \
  LDV_BENCH_GOVERNANCE_OUT=build/bench_governance.json \
  ./build/bench/bench_micro \
    --benchmark_filter='BM_Obs|BM_ScanFilter|BM_WalCommit/sync:2|BM_Parallel' \
    --benchmark_out=build/bench_smoke.json --benchmark_out_format=json
  ./build/bench/bench_concurrent build/bench_concurrent.json
  ./build/bench/bench_prepared build/bench_prepared.json
  ./build/bench/bench_repl build/bench_repl.json
  ./build/bench/bench_vector build/bench_vector.json
  python3 tools/bench_smoke_check.py build
  # Repo-root artifacts so a gate run leaves an inspectable record.
  cp build/bench_smoke.json BENCH_SMOKE.json
  cp build/bench_parallel.json BENCH_PARALLEL.json
  cp build/bench_governance.json BENCH_GOVERNANCE.json
  cp build/bench_concurrent.json BENCH_CONCURRENT.json
  cp build/bench_prepared.json BENCH_PREPARED.json
  cp build/bench_repl.json BENCH_REPL.json
  cp build/bench_vector.json BENCH_VECTOR.json
fi

if [[ "$TORTURE_ITERS" -gt 0 ]]; then
  echo "== crash torture ($TORTURE_ITERS iterations) =="
  ./build/tools/crash_torture --iters "$TORTURE_ITERS" --threads 4 \
    --units 30 --seed "${TORTURE_SEED:-42}"
fi

if [[ "$REPL_TORTURE_ITERS" -gt 0 ]]; then
  echo "== replication chaos torture ($REPL_TORTURE_ITERS iterations) =="
  ./build/tools/crash_torture --repl --iters "$REPL_TORTURE_ITERS" \
    --threads 3 --units 25 --seed "${TORTURE_SEED:-42}"
fi

echo "== asan+ubsan build =="
cmake -B build-san -S . -DLDV_SANITIZE=address,undefined >/dev/null
cmake --build build-san -j
(cd build-san && ctest --output-on-failure --timeout 240 -j)

if [[ "$TSAN" == 1 ]]; then
  echo "== tsan build (concurrency suites) =="
  cmake -B build-tsan -S . -DLDV_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target \
    thread_pool_test parallel_exec_test vectorized_exec_test exec_select_test \
    exec_features_test exec_dml_test lineage_test net_test txn_test \
    governance_test mvcc_test prepared_statement_test prepared_fuzz_test \
    repl_test
  # -R must precede the bare -j: ctest would otherwise swallow it as the
  # job count and silently run the whole (mostly unbuilt) suite.
  (cd build-tsan && ctest --output-on-failure --timeout 240 \
    -R 'ThreadPool|Parallel|Vectorized|ExecSelect|ExecFeatures|ExecDml|Lineage|Net|Protocol|EngineHandle|DbServer|SocketDbClient|Txn|Governance|Mvcc|SharedMutex|SnapshotManager|Prepared|Normalize|Repl' -j)
fi

echo "check.sh: plain and sanitizer suites both passed"
