// Figure 7 (a+b): execution time of each application step (Insert 1000 /
// First Select / Other Selects / Update 100) for query Q1-1 under
//   - the PostgreSQL+PTU baseline (PTU mode: OS-level capture only),
//   - the LDV server-included package,
//   - the LDV server-excluded package,
// during audit (7a) and during replay (7b, plus the replay Initialization
// step that only server-included pays meaningfully).
//
// Env: LDV_BENCH_SF (default 0.01), LDV_BENCH_INSERTS, LDV_BENCH_UPDATES.

#include <cstdio>

#include "harness.h"

using ldv::PackageMode;
using ldv::bench::BenchConfig;
using ldv::bench::RunExperiment;
using ldv::bench::RunResult;

int main() {
  BenchConfig config = BenchConfig::FromEnv();
  const ldv::bench::BenchWorkdir guard("fig7");
  const std::string& workdir = guard.path();
  auto query = ldv::tpch::FindQuery("Q1-1");
  LDV_CHECK(query.ok());

  std::printf(
      "Figure 7 — per-step execution time, query Q1-1, TPC-H sf=%.3f "
      "(%d inserts / %d selects / %d updates)\n\n",
      config.scale_factor, config.num_inserts, config.num_selects,
      config.num_updates);

  struct Row {
    const char* label;
    PackageMode mode;
  };
  const Row rows[] = {
      {"PostgreSQL+PTU", PackageMode::kPtu},
      {"Server-included", PackageMode::kServerIncluded},
      {"Server-excluded", PackageMode::kServerExcluded},
  };

  // An untimed warm-up first: the process's first run pays its start-up
  // costs (page faults, allocator growth), which would otherwise land in
  // the reference row and skew every audit/no-audit ratio.
  (void)ldv::bench::RunUnaudited(*query, config, workdir);
  ldv::tpch::StepTimings plain =
      ldv::bench::RunUnaudited(*query, config, workdir);
  std::printf("(a) Audit — seconds per step\n");
  std::printf("%-18s %12s %12s %14s %12s\n", "configuration", "Inserts",
              "FirstSelect", "OtherSelects", "Updates");
  std::printf("%-18s %12.4f %12.4f %14.4f %12.4f\n", "no audit (ref)",
              plain.inserts_seconds, plain.first_select_seconds,
              plain.other_selects_seconds, plain.updates_seconds);

  RunResult results[3];
  for (int i = 0; i < 3; ++i) {
    results[i] = RunExperiment(rows[i].mode, *query, config, workdir);
    const ldv::tpch::StepTimings& t = results[i].audit_times;
    std::printf("%-18s %12.4f %12.4f %14.4f %12.4f\n", rows[i].label,
                t.inserts_seconds, t.first_select_seconds,
                t.other_selects_seconds, t.updates_seconds);
  }

  std::printf("\n(b) Replay — seconds per step\n");
  std::printf("%-18s %14s %12s %12s %14s %12s\n", "configuration",
              "Initialization", "Inserts", "FirstSelect", "OtherSelects",
              "Updates");
  for (int i = 0; i < 3; ++i) {
    const ldv::tpch::StepTimings& t = results[i].replay_times;
    std::printf("%-18s %14.4f %12.4f %12.4f %14.4f %12.4f\n", rows[i].label,
                results[i].replay_report.init_seconds, t.inserts_seconds,
                t.first_select_seconds, t.other_selects_seconds,
                t.updates_seconds);
  }

  std::printf(
      "\nexpected shape (paper Fig. 7): audit overhead server-included > "
      "server-excluded > PTU,\nlargest on First Select (cold provenance "
      "cache) and Updates (reenactment queries);\nreplay Initialization "
      "dominated by server-included tuple restore; server-excluded\nselects "
      "replay fastest (recorded answers read from disk).\n");
  return 0;
}
