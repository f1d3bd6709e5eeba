// Figure 8 (a+b): execution time of each of the 18 Table II queries during
// audit (left) and replay (right), per configuration; replay additionally
// includes the modeled VM baseline of §IX-F.
//
// The reported number is the average wall time of one query execution inside
// the experiment application (the Select step / 10). Inserts and updates are
// scaled down (they are Figure 7's subject) so the 18x3 sweep stays fast;
// override with LDV_BENCH_INSERTS / LDV_BENCH_UPDATES / LDV_BENCH_SF.

#include <cstdio>
#include <cstdlib>

#include "harness.h"

using ldv::PackageMode;
using ldv::bench::BenchConfig;
using ldv::bench::RunExperiment;
using ldv::bench::RunResult;

int main() {
  BenchConfig config = BenchConfig::FromEnv();
  if (std::getenv("LDV_BENCH_INSERTS") == nullptr) config.num_inserts = 100;
  if (std::getenv("LDV_BENCH_UPDATES") == nullptr) config.num_updates = 20;
  const ldv::bench::BenchWorkdir guard("fig8");
  const std::string& workdir = guard.path();

  ldv::VmImageModel vm({.scale = config.scale_factor});

  std::printf(
      "Figure 8 — per-query execution time (avg seconds per query "
      "execution), TPC-H sf=%.3f\n\n", config.scale_factor);
  std::printf("%-6s | %10s %10s %10s | %10s %10s %10s %10s\n", "query",
              "audit:ptu", "audit:inc", "audit:exc", "rep:ptu", "rep:inc",
              "rep:exc", "rep:vm");

  const int n = config.num_selects;
  for (const ldv::tpch::QuerySpec& query : ldv::tpch::ExperimentQueries()) {
    double audit_s[3];
    double replay_s[3];
    const PackageMode modes[] = {PackageMode::kPtu,
                                 PackageMode::kServerIncluded,
                                 PackageMode::kServerExcluded};
    for (int m = 0; m < 3; ++m) {
      RunResult r = RunExperiment(modes[m], query, config, workdir);
      audit_s[m] = (r.audit_times.first_select_seconds +
                    r.audit_times.other_selects_seconds) /
                   n;
      replay_s[m] = (r.replay_times.first_select_seconds +
                     r.replay_times.other_selects_seconds) /
                    n;
    }
    // VM baseline (modeled): native query time inside a VM with the §IX-F
    // slowdown; boot time is amortized outside per-query numbers, as in the
    // paper's Fig. 8b.
    double vm_replay = vm.ReplaySeconds(replay_s[0]);
    std::printf("%-6s | %10.5f %10.5f %10.5f | %10.5f %10.5f %10.5f %10.5f\n",
                query.id.c_str(), audit_s[0], audit_s[1], audit_s[2],
                replay_s[0], replay_s[1], replay_s[2], vm_replay);
  }
  std::printf(
      "\nexpected shape (paper Fig. 8): audit time grows with selectivity; "
      "server-included\naudit pays the provenance overhead at every "
      "selectivity; replay of server-excluded\nis fastest (linear in result "
      "size — extreme for the single-row Q3), server-included\nreplay "
      "matches or beats the full-DB configurations, and the VM is slowest.\n");
  return 0;
}
