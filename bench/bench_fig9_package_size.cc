// Figure 9: package size (MB) of the PTU, server-included, and
// server-excluded packages for each of the 18 Table II queries.
//
// Also prints the component breakdown that explains the shape: PTU carries
// the full data files; server-included carries the relevant tuple subset
// (at most ~25% of tuples for these queries); server-excluded carries the
// recorded query answers (x10 executions).

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
  const ldv::bench::BenchWorkdir guard("fig9");
  const std::string& workdir = guard.path();

  std::printf(
      "Figure 9 — package sizes (MB), TPC-H sf=%.3f (10 executions per "
      "query)\n\n", config.scale_factor);
  std::printf("%-6s | %10s %10s %10s | %12s %12s %12s\n", "query", "PTU",
              "included", "excluded", "full-data", "tuple-subset",
              "replay-log");

  for (const ldv::tpch::QuerySpec& query : ldv::tpch::ExperimentQueries()) {
    const PackageMode modes[] = {PackageMode::kPtu,
                                 PackageMode::kServerIncluded,
                                 PackageMode::kServerExcluded};
    double total_mb[3];
    double component_mb[3];
    int64_t packaged_tuples = 0;
    for (int m = 0; m < 3; ++m) {
      RunResult r = RunExperiment(modes[m], query, config, workdir);
      total_mb[m] = static_cast<double>(r.package.total_bytes) / 1e6;
      component_mb[0] = m == 0 ? static_cast<double>(
                                     r.package.full_data_bytes) /
                                     1e6
                               : component_mb[0];
      if (m == 1) {
        component_mb[1] =
            static_cast<double>(r.package.tuple_data_bytes) / 1e6;
        packaged_tuples = r.package.packaged_tuples;
      }
      if (m == 2) {
        component_mb[2] =
            static_cast<double>(r.package.replay_log_bytes) / 1e6;
      }
    }
    std::printf(
        "%-6s | %10.3f %10.3f %10.3f | %12.3f %12.3f %12.3f   (%lld tuples)\n",
        query.id.c_str(), total_mb[0], total_mb[1], total_mb[2],
        component_mb[0], component_mb[1], component_mb[2],
        static_cast<long long>(packaged_tuples));
  }
  std::printf(
      "\nexpected shape (paper Fig. 9): PTU packages are largest (full data "
      "files);\nserver-included packages shrink with selectivity (only the "
      "relevant tuples);\nserver-excluded is smallest for low-selectivity / "
      "small-result queries and\novertakes server-included when 10x the "
      "result outweighs the input subset.\n");
  return 0;
}
