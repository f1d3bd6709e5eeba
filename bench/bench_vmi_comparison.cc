// §IX-F: comparison with the virtual-machine-image approach. The paper's
// headline numbers: an 8.2 GB VMI vs ~100 MB average LDV package — 80x —
// and VM replay slightly slower than a non-audited native execution.
//
// The VMI is modeled (DESIGN.md substitution #5): size = scaled base OS
// image + full data files + app; replay = boot + slowdown x native.

#include <cstdio>

#include "harness.h"

using ldv::PackageMode;
using ldv::bench::BenchConfig;
using ldv::bench::RunExperiment;
using ldv::bench::RunResult;

int main() {
  BenchConfig config = BenchConfig::FromEnv();
  const ldv::bench::BenchWorkdir guard("vmi");
  const std::string& workdir = guard.path();

  std::printf("§IX-F — VM image vs LDV packages (sf=%.3f)\n\n",
              config.scale_factor);

  // Average LDV package size over a spread of queries (the paper reports a
  // ~100 MB average across its experiments).
  const char* sample_queries[] = {"Q1-1", "Q1-5", "Q2-2", "Q3-2", "Q4-3"};
  double sum_included = 0;
  double sum_excluded = 0;
  RunResult last_included;
  for (const char* id : sample_queries) {
    auto query = ldv::tpch::FindQuery(id);
    LDV_CHECK(query.ok());
    RunResult inc =
        RunExperiment(PackageMode::kServerIncluded, *query, config, workdir);
    RunResult exc =
        RunExperiment(PackageMode::kServerExcluded, *query, config, workdir);
    sum_included += static_cast<double>(inc.package.total_bytes);
    sum_excluded += static_cast<double>(exc.package.total_bytes);
    last_included = inc;
  }
  const int n = static_cast<int>(std::size(sample_queries));
  double avg_ldv_mb = (sum_included + sum_excluded) / (2.0 * n) / 1e6;

  // The VMI package for the same experiment.
  auto q11 = ldv::tpch::FindQuery("Q1-1");
  LDV_CHECK(q11.ok());
  RunResult vmi = RunExperiment(PackageMode::kVmImage, *q11, config, workdir);
  double vmi_mb = static_cast<double>(vmi.package.total_bytes) / 1e6;

  ldv::VmImageModel vm({.scale = config.scale_factor});
  ldv::tpch::StepTimings native =
      ldv::bench::RunUnaudited(*q11, config, workdir);
  double native_selects =
      native.first_select_seconds + native.other_selects_seconds;
  double vm_selects = vm.ReplaySeconds(native_selects);

  std::printf("VM image size:              %10.2f MB (materialized)\n",
              vmi_mb);
  std::printf("average LDV package size:   %10.2f MB (over %d queries x 2 "
              "modes)\n", avg_ldv_mb, n);
  std::printf("size ratio VMI / LDV:       %10.1fx   (paper: ~80x)\n",
              vmi_mb / avg_ldv_mb);
  std::printf("\nnative select step:         %10.4f s\n", native_selects);
  std::printf("modeled VM select step:     %10.4f s (+ %.2f s boot)\n",
              vm_selects, vm.BootSeconds());
  std::printf("LDV included replay step:   %10.4f s\n",
              last_included.replay_times.first_select_seconds +
                  last_included.replay_times.other_selects_seconds);
  std::printf(
      "\nexpected shape (paper §IX-F / Fig. 8b): VMI is one to two orders of "
      "magnitude\nlarger than LDV packages and replays slightly slower than "
      "native; LDV replay is\nthe same or faster than native.\n");
  return 0;
}
