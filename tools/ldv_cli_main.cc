// ldv: command-line front end mirroring the prototype's ldv-audit /
// ldv-exec workflow (paper §IX) for the TPC-H experiment application, plus
// package inspection and CDE-style ptrace packaging of real commands.
//
//   ldv audit   --mode MODE --query Qx-y --out DIR [--sf SF] [--seed N]
//               [--db-socket PATH] [--retries N] [--retry-deadline-ms N]
//               [--fault SPEC] [--fault-seed N]
//               [--metrics-out FILE] [--trace-out FILE]
//   ldv replay  --package DIR --query Qx-y [--sf SF] [--seed N]
//               [--metrics-out FILE] [--trace-out FILE]
//   ldv inspect --package DIR
//   ldv trace-dot --package DIR
//   ldv ptrace  --out DIR -- <command> [args...]
//
// `--db-socket` audits over a live DB server socket (start one with
// ldv_server); the connection is wrapped in the retrying client, so the
// audit survives transient transport failures. `--fault` arms the in-process
// fault injector (spec grammar in common/fault.h), e.g. for rehearsing a
// flaky-network audit: --fault "net.send=p:0.2;net.recv=p:0.2".
//
// `--metrics-out` writes a metrics snapshot after the run: {"local": <this
// process>} plus, when auditing over --db-socket, {"server": <the server's
// snapshot>} fetched via the Stats protocol message. `--trace-out` records
// trace spans during the run and writes a Chrome trace_event file (load in
// chrome://tracing or Perfetto); with --db-socket the server's spans are
// fetched and merged into the same file.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "exec/executor.h"
#include "exec/plan_cache.h"
#include "ldv/auditor.h"
#include "ldv/packager.h"
#include "ldv/replayer.h"
#include "net/db_client.h"
#include "net/retrying_db_client.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "os/ptrace_tracer.h"
#include "tpch/app.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "trace/prov_export.h"
#include "trace/serialize.h"
#include "util/fsutil.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

int Fail(const ldv::Status& status) {
  std::fprintf(stderr, "ldv: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::printf(
      "usage:\n"
      "  ldv audit   --mode server-included|server-excluded|ptu|vm-image\n"
      "              --query Q1-1..Q4-5 --out DIR [--sf SF] [--seed N]\n"
      "              [--db-socket PATH] [--retries N]\n"
      "              [--retry-deadline-ms N] [--fault SPEC] [--fault-seed N]\n"
      "              [--metrics-out FILE] [--trace-out FILE]\n"
      "  ldv replay  --package DIR --query Qx-y [--sf SF] [--seed N]\n"
      "              [--metrics-out FILE] [--trace-out FILE]\n"
      "  ldv inspect --package DIR\n"
      "  ldv trace-dot --package DIR\n"
      "  ldv trace-prov --package DIR      (W3C PROV-JSON export)\n"
      "  ldv ptrace  --out DIR -- <command> [args...]\n"
      "  ldv cancel  --db-socket PATH --pid N [--qid N]\n"
      "              (cancel in-flight statements on a live server; --qid 0\n"
      "               or omitted targets every statement of the process)\n"
      "  ldv stats   --db-socket PATH\n"
      "              (print a live server's metrics snapshot as JSON:\n"
      "               counters, in-flight statements, snapshot/lock state,\n"
      "               plus a replication summary — role, applied LSN,\n"
      "               per-standby lag — when the server has a WAL)\n"
      "  ldv promote --db-socket PATH\n"
      "              (failover: flip a hot standby into a writable primary\n"
      "               after its apply queue drains; idempotent)\n"
      "global: --threads N   query degree of parallelism (default: hardware\n"
      "                      concurrency; 1 disables parallel execution)\n"
      "        --plan-cache-entries N   bound on the shared prepared-\n"
      "                      statement plan cache (default 256; 0 disables)\n");
  return 2;
}

struct Flags {
  std::map<std::string, std::string> named;
  std::vector<std::string> rest;  // after "--"
};

Flags ParseFlags(int argc, char** argv, int start) {
  Flags flags;
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--") {
      for (int k = i + 1; k < argc; ++k) flags.rest.push_back(argv[k]);
      break;
    }
    if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags.named[arg.substr(2)] = argv[++i];
    }
  }
  return flags;
}

/// Arms the process-wide fault injector from --fault/--fault-seed. Returns
/// non-OK on a malformed spec.
ldv::Status ArmFaultsFromFlags(const Flags& flags) {
  if (!flags.named.count("fault")) return ldv::Status::Ok();
  ldv::FaultInjector& injector = ldv::FaultInjector::Instance();
  LDV_RETURN_IF_ERROR(injector.ConfigureFromSpec(flags.named.at("fault")));
  uint64_t fault_seed =
      flags.named.count("fault-seed")
          ? static_cast<uint64_t>(
                std::atoll(flags.named.at("fault-seed").c_str()))
          : 42;
  injector.Enable(fault_seed);
  std::printf("ldv: fault injection armed (%s, seed=%llu)\n",
              flags.named.at("fault").c_str(),
              static_cast<unsigned long long>(fault_seed));
  return ldv::Status::Ok();
}

/// Starts local span recording when --trace-out is set; with a control
/// connection, recording also starts on the server.
void StartObservability(const Flags& flags, ldv::net::DbClient* control) {
  if (!flags.named.count("trace-out")) return;
  ldv::obs::TraceRecorder::Clear();
  ldv::obs::TraceRecorder::Enable();
  if (control != nullptr) {
    ldv::Status started = ldv::net::StartServerTrace(control);
    if (!started.ok()) {
      std::fprintf(stderr, "ldv: server trace start failed: %s\n",
                   started.ToString().c_str());
    }
  }
}

/// Writes the --metrics-out / --trace-out files, merging the server-side
/// snapshot and spans fetched over `control` when available. Server fetch
/// failures degrade to local-only files rather than failing the command.
ldv::Status WriteObservability(const Flags& flags,
                               ldv::net::DbClient* control) {
  // The dumps are the run's durable outputs — an armed --fault injector must
  // not sabotage them. Disabling keeps the per-point counts, so the fault.*
  // metrics still reflect the run.
  ldv::FaultInjector::Instance().Disable();
  std::vector<ldv::obs::SpanEvent> server_events;
  ldv::Json server_stats = ldv::Json::MakeObject();
  bool have_server_stats = false;
  if (control != nullptr) {
    if (flags.named.count("trace-out")) {
      auto trace = ldv::net::FetchServerTrace(control);
      if (trace.ok()) {
        server_events = ldv::obs::TraceRecorder::EventsFromJson(*trace);
      } else {
        std::fprintf(stderr, "ldv: server trace fetch failed: %s\n",
                     trace.status().ToString().c_str());
      }
    }
    auto stats = ldv::net::FetchServerStats(control);
    if (stats.ok()) {
      server_stats = std::move(*stats);
      have_server_stats = true;
    } else {
      std::fprintf(stderr, "ldv: server stats fetch failed: %s\n",
                   stats.status().ToString().c_str());
    }
  }
  if (flags.named.count("metrics-out")) {
    ldv::obs::CaptureFaultInjectorMetrics(&ldv::obs::MetricsRegistry::Global());
    ldv::Json root = ldv::Json::MakeObject();
    root.Set("local", ldv::obs::MetricsRegistry::Global().Snapshot().ToJson());
    if (have_server_stats) root.Set("server", std::move(server_stats));
    const std::string& path = flags.named.at("metrics-out");
    LDV_RETURN_IF_ERROR(ldv::WriteStringToFile(path, root.Dump(true) + "\n"));
    std::printf("ldv: wrote metrics to %s\n", path.c_str());
  }
  if (flags.named.count("trace-out")) {
    const std::string& path = flags.named.at("trace-out");
    LDV_RETURN_IF_ERROR(ldv::obs::TraceRecorder::WriteTo(path, server_events));
    ldv::obs::TraceRecorder::Disable();
    ldv::obs::TraceRecorder::Clear();
    std::printf("ldv: wrote trace to %s\n", path.c_str());
  }
  return ldv::Status::Ok();
}

ldv::tpch::AppOptions MakeAppOptions(const ldv::tpch::QuerySpec& query,
                                     double sf, uint64_t seed) {
  ldv::tpch::AppOptions options;
  options.query_sql = query.sql;
  ldv::tpch::TpchSizes sizes = ldv::tpch::SizesFor(sf);
  options.insert_orderkey_base = sizes.orders;
  options.update_orderkey_max = sizes.orders;
  options.customer_max = sizes.customers;
  options.seed = seed;
  return options;
}

void PrintTimings(const char* phase, const ldv::tpch::StepTimings& t) {
  std::printf(
      "%s timings: inserts=%.4fs first_select=%.4fs other_selects=%.4fs "
      "updates=%.4fs rows=%lld fp=%llu\n",
      phase, t.inserts_seconds, t.first_select_seconds,
      t.other_selects_seconds, t.updates_seconds,
      static_cast<long long>(t.rows_returned),
      static_cast<unsigned long long>(t.result_fingerprint));
}

int CmdAudit(const Flags& flags) {
  auto mode = ldv::ParsePackageMode(
      flags.named.count("mode") ? flags.named.at("mode") : "server-included");
  if (!mode.ok()) return Fail(mode.status());
  auto query = ldv::tpch::FindQuery(
      flags.named.count("query") ? flags.named.at("query") : "Q1-1");
  if (!query.ok()) return Fail(query.status());
  if (!flags.named.count("out")) return Usage();
  double sf = flags.named.count("sf") ? std::atof(flags.named.at("sf").c_str())
                                      : 0.005;
  uint64_t seed = flags.named.count("seed")
                      ? static_cast<uint64_t>(
                            std::atoll(flags.named.at("seed").c_str()))
                      : 7;

  ldv::storage::Database db;
  ldv::tpch::GenOptions gen;
  gen.scale_factor = sf;
  ldv::Status generated = ldv::tpch::Generate(&db, gen);
  if (!generated.ok()) return Fail(generated);
  std::printf("ldv: generated TPC-H sf=%.4f (%lld rows)\n", sf,
              static_cast<long long>(db.TotalLiveRows()));

  ldv::AuditOptions options;
  options.mode = *mode;
  options.package_dir = flags.named.at("out");
  options.sandbox_root = options.package_dir + ".sandbox";
  options.server_binary_path = ldv::FindLdvServerBinary();
  if (flags.named.count("db-socket")) {
    options.db_socket_path = flags.named.at("db-socket");
  }
  if (flags.named.count("retries")) {
    options.db_retry.max_attempts = std::atoi(flags.named.at("retries").c_str());
  }
  if (flags.named.count("retry-deadline-ms")) {
    options.db_retry.request_deadline_micros =
        std::atoll(flags.named.at("retry-deadline-ms").c_str()) * 1000;
  }
  ldv::Status armed = ArmFaultsFromFlags(flags);
  if (!armed.ok()) return Fail(armed);
  ldv::Status made = ldv::MakeDirs(options.sandbox_root);
  if (!made.ok()) return Fail(made);

  // Dedicated control connection for the Stats/Trace protocol messages, so
  // the fetches do not interleave with the audited statement stream. Goes
  // through the same retry policy as the audit: the end-of-run stats fetch
  // must survive a fault-armed server.
  std::unique_ptr<ldv::net::RetryingDbClient> control;
  if (flags.named.count("db-socket") &&
      (flags.named.count("metrics-out") || flags.named.count("trace-out"))) {
    control = ldv::net::RetryingDbClient::ForSocket(
        flags.named.at("db-socket"), options.db_retry);
  }
  StartObservability(flags, control.get());

  ldv::tpch::StepTimings timings;
  ldv::Auditor auditor(&db, options);
  auto report =
      auditor.Run(ldv::tpch::MakeExperimentApp(MakeAppOptions(*query, sf, seed),
                                               &timings));
  if (!report.ok()) return Fail(report.status());
  PrintTimings("audit", timings);
  std::printf(
      "ldv: package %s mode=%s statements=%lld tuples=%lld trace=%lld nodes/"
      "%lld edges (%.2f MB)\n",
      report->package_dir.c_str(),
      std::string(ldv::PackageModeName(*mode)).c_str(),
      static_cast<long long>(report->statements_audited),
      static_cast<long long>(report->tuples_persisted),
      static_cast<long long>(report->trace_nodes),
      static_cast<long long>(report->trace_edges),
      static_cast<double>(ldv::TreeSize(report->package_dir)) / 1e6);
  ldv::Status obs_written = WriteObservability(flags, control.get());
  if (!obs_written.ok()) return Fail(obs_written);
  return 0;
}

int CmdReplay(const Flags& flags) {
  if (!flags.named.count("package")) return Usage();
  auto query = ldv::tpch::FindQuery(
      flags.named.count("query") ? flags.named.at("query") : "Q1-1");
  if (!query.ok()) return Fail(query.status());
  double sf = flags.named.count("sf") ? std::atof(flags.named.at("sf").c_str())
                                      : 0.005;
  uint64_t seed = flags.named.count("seed")
                      ? static_cast<uint64_t>(
                            std::atoll(flags.named.at("seed").c_str()))
                      : 7;

  ldv::ReplayOptions options;
  options.package_dir = flags.named.at("package");
  options.scratch_dir = options.package_dir + ".scratch";
  StartObservability(flags, nullptr);  // before Open: captures replay.init
  auto replayer = ldv::Replayer::Open(options);
  if (!replayer.ok()) return Fail(replayer.status());
  ldv::tpch::StepTimings timings;
  auto report = (*replayer)->Run(
      ldv::tpch::MakeExperimentApp(MakeAppOptions(*query, sf, seed),
                                   &timings));
  if (!report.ok()) return Fail(report.status());
  PrintTimings("replay", timings);
  std::printf("ldv: replayed mode=%s init=%.4fs restored=%lld replayed=%lld\n",
              std::string(ldv::PackageModeName(report->mode)).c_str(),
              report->init_seconds,
              static_cast<long long>(report->restored_tuples),
              static_cast<long long>(report->statements_replayed));
  ldv::Status obs_written = WriteObservability(flags, nullptr);
  if (!obs_written.ok()) return Fail(obs_written);
  return 0;
}

int CmdInspect(const Flags& flags) {
  if (!flags.named.count("package")) return Usage();
  auto info = ldv::InspectPackage(flags.named.at("package"));
  if (!info.ok()) return Fail(info.status());
  std::printf("mode:            %s\n",
              std::string(ldv::PackageModeName(info->mode)).c_str());
  std::printf("total:           %.3f MB\n",
              static_cast<double>(info->total_bytes) / 1e6);
  std::printf("app files:       %.3f MB\n",
              static_cast<double>(info->app_files_bytes) / 1e6);
  std::printf("server binary:   %.3f MB\n",
              static_cast<double>(info->server_binary_bytes) / 1e6);
  std::printf("tuple subset:    %.3f MB (%lld tuples)\n",
              static_cast<double>(info->tuple_data_bytes) / 1e6,
              static_cast<long long>(info->packaged_tuples));
  std::printf("full data files: %.3f MB\n",
              static_cast<double>(info->full_data_bytes) / 1e6);
  std::printf("replay log:      %.3f MB\n",
              static_cast<double>(info->replay_log_bytes) / 1e6);
  std::printf("trace:           %.3f MB\n",
              static_cast<double>(info->trace_bytes) / 1e6);
  std::printf("vm image:        %.3f MB\n",
              static_cast<double>(info->vm_image_bytes) / 1e6);
  return 0;
}

int CmdTraceDot(const Flags& flags) {
  if (!flags.named.count("package")) return Usage();
  auto bytes = ldv::ReadFileToString(ldv::JoinPath(
      flags.named.at("package"), std::string(ldv::kTraceFile)));
  if (!bytes.ok()) return Fail(bytes.status());
  auto graph = ldv::trace::DeserializeTrace(*bytes);
  if (!graph.ok()) return Fail(graph.status());
  std::fputs(graph->ToDot().c_str(), stdout);
  return 0;
}

int CmdTraceProv(const Flags& flags) {
  if (!flags.named.count("package")) return Usage();
  auto bytes = ldv::ReadFileToString(ldv::JoinPath(
      flags.named.at("package"), std::string(ldv::kTraceFile)));
  if (!bytes.ok()) return Fail(bytes.status());
  auto graph = ldv::trace::DeserializeTrace(*bytes);
  if (!graph.ok()) return Fail(graph.status());
  std::fputs(ldv::trace::ExportProvJson(*graph).c_str(), stdout);
  return 0;
}

int CmdPtrace(const Flags& flags) {
  if (!flags.named.count("out") || flags.rest.empty()) return Usage();
  ldv::os::PtraceTracer tracer;
  auto report = tracer.Run(flags.rest);
  if (!report.ok()) return Fail(report.status());
  auto package = ldv::BuildCdePackage(*report, flags.named.at("out"));
  if (!package.ok()) return Fail(package.status());
  std::printf(
      "ldv: traced %zu events, exit=%d; packaged %lld files (%.3f MB) into "
      "%s\n",
      report->events.size(), report->exit_code,
      static_cast<long long>(package->files_copied),
      static_cast<double>(package->bytes_copied) / 1e6,
      package->package_dir.c_str());
  return 0;
}

/// `ldv cancel`: sends the kCancel protocol verb to a live server. The kill
/// is cooperative — targets unwind with Cancelled at their next governor
/// check (DESIGN.md §11).
int CmdCancel(const Flags& flags) {
  if (!flags.named.count("db-socket") || !flags.named.count("pid")) {
    return Usage();
  }
  auto client =
      ldv::net::SocketDbClient::Connect(flags.named.at("db-socket"));
  if (!client.ok()) return Fail(client.status());
  const int64_t pid = std::atoll(flags.named.at("pid").c_str());
  const int64_t qid = flags.named.count("qid")
                          ? std::atoll(flags.named.at("qid").c_str())
                          : 0;
  ldv::Result<int64_t> cancelled =
      ldv::net::CancelServerQuery(client->get(), pid, qid);
  if (!cancelled.ok()) return Fail(cancelled.status());
  std::printf("ldv: signalled %lld in-flight statement(s)\n",
              static_cast<long long>(*cancelled));
  return 0;
}

/// `ldv stats`: fetches the server's metrics snapshot (the same document the
/// audit embeds) and prints it — includes engine.concurrent_reads,
/// txn.snapshots_live and the lock-contention counters, so concurrent
/// serving is observable from the command line.
int CmdStats(const Flags& flags) {
  if (!flags.named.count("db-socket")) return Usage();
  auto client =
      ldv::net::SocketDbClient::Connect(flags.named.at("db-socket"));
  if (!client.ok()) return Fail(client.status());
  ldv::Result<ldv::Json> stats = ldv::net::FetchServerStats(client->get());
  if (!stats.ok()) return Fail(stats.status());
  std::printf("%s\n", stats->Dump(/*pretty=*/true).c_str());
  // Replication at a glance (servers without a WAL have no such section).
  const ldv::Json* repl = stats->Find("replication");
  if (repl != nullptr && repl->is_object()) {
    std::printf("replication: role=%s",
                repl->GetString("role", "?").c_str());
    if (const ldv::Json* applied = repl->Find("applied_lsn")) {
      std::printf(" applied_lsn=%lld lag_lsn=%lld",
                  static_cast<long long>(applied->AsInt()),
                  static_cast<long long>(repl->GetInt("lag_lsn", 0)));
      const std::string error = repl->GetString("last_error", "");
      if (!error.empty()) std::printf(" last_error=\"%s\"", error.c_str());
    } else {
      std::printf(" last_appended_lsn=%lld",
                  static_cast<long long>(repl->GetInt("last_appended_lsn", 0)));
    }
    std::printf("\n");
    const ldv::Json* standbys = repl->Find("standbys");
    if (standbys != nullptr && standbys->is_array()) {
      for (const ldv::Json& standby : standbys->AsArray()) {
        std::printf("  standby %s: acked_lsn=%lld lag_lsn=%lld "
                    "last_seen=%lldms ago\n",
                    standby.GetString("standby", "?").c_str(),
                    static_cast<long long>(standby.GetInt("acked_lsn", 0)),
                    static_cast<long long>(standby.GetInt("lag_lsn", 0)),
                    static_cast<long long>(
                        standby.GetInt("last_seen_ms_ago", 0)));
      }
    }
  }
  return 0;
}

/// `ldv promote`: flips a hot standby into a writable primary (kPromote).
/// Safe to re-issue; an already-primary server answers idempotently.
int CmdPromote(const Flags& flags) {
  if (!flags.named.count("db-socket")) return Usage();
  auto client =
      ldv::net::SocketDbClient::Connect(flags.named.at("db-socket"));
  if (!client.ok()) return Fail(client.status());
  ldv::Result<uint64_t> applied = ldv::net::PromoteServer(client->get());
  if (!applied.ok()) return Fail(applied.status());
  std::printf("ldv: promoted; server is primary at lsn %llu\n",
              static_cast<unsigned long long>(*applied));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Flags flags = ParseFlags(argc, argv, 2);
  if (flags.named.count("threads")) {
    // Pool size for morsel-parallel query execution; results are
    // bit-identical at any value (DESIGN.md §10).
    ldv::ThreadPool::SetDefaultDop(
        std::atoi(flags.named.at("threads").c_str()));
  }
  if (flags.named.count("plan-cache-entries")) {
    // Bound on the shared prepared-statement plan cache; 0 disables
    // caching, every EXECUTE then replans (DESIGN.md §13).
    const int64_t entries =
        std::atoll(flags.named.at("plan-cache-entries").c_str());
    if (entries < 0) {
      std::fprintf(stderr,
                   "ldv: --plan-cache-entries must be >= 0 (got %lld); 0 "
                   "disables caching\n",
                   static_cast<long long>(entries));
      return 2;
    }
    ldv::exec::PlanCache::Global().set_capacity(static_cast<size_t>(entries));
  }
  if (command == "audit") return CmdAudit(flags);
  if (command == "replay") return CmdReplay(flags);
  if (command == "inspect") return CmdInspect(flags);
  if (command == "trace-dot") return CmdTraceDot(flags);
  if (command == "trace-prov") return CmdTraceProv(flags);
  if (command == "ptrace") return CmdPtrace(flags);
  if (command == "cancel") return CmdCancel(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "promote") return CmdPromote(flags);
  return Usage();
}
