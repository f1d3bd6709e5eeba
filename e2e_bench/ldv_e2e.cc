// ldv_e2e: the measured core of the end-to-end ledger benchmark.
//
// One process, one closed-loop client. Each iteration runs the §IX-A
// application end to end:
//   1. TPC-H set-up (generation, plus a DbServer on a Unix socket for
//      workloads that audit through the wire),
//   2. an unaudited reference run,
//   3. for server-included, server-excluded and PTU: Auditor::Run,
//      InspectPackage, then Replayer::Open + Run of the package.
// Every replay must reproduce the reference run's result fingerprint, and
// every packaged table must restore to its manifest row count. Iterations
// repeat until --seconds have passed; the raw per-iteration figures go to
// --out as JSON and run.py turns them into the reported metrics.
//
// The benchmark sits outside the program: it times calls into each layer's
// public functions and reads deltas of metrics the program registers. With
// --trace 1, every other iteration records obs::Spans from this file around
// those calls (the program's own spans nest underneath) and the last traced
// iteration's spans are written to <workdir>/trace.json.
//
// Usage: ldv_e2e --workload NAME --seed N --seconds S --trace 0|1
//                --dop N --workdir DIR --server-binary PATH --out FILE

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "ldv/auditor.h"
#include "ldv/manifest.h"
#include "ldv/replayer.h"
#include "net/db_client.h"
#include "net/db_server.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sql/parser.h"
#include "storage/persistence.h"
#include "tpch/app.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "trace/serialize.h"
#include "util/csv.h"
#include "util/fsutil.h"
#include "util/thread_pool.h"

namespace ldv::e2e {
namespace {

constexpr double kScaleFactor = 0.01;
// Replays of one package repeat until this much time is spent on them, at
// most kMaxReplays times.
constexpr double kReplaySeconds = 0.5;
constexpr int kMaxReplays = 15;

struct Workload {
  const char* name;
  const char* query_id;
  int inserts;
  int selects;
  int updates;
  /// Audit (and the reference run) through a DbServer on a Unix socket
  /// instead of in-process clients.
  bool via_server;
  /// Times per iteration that the reference run and the server-excluded and
  /// PTU modes run. Above 1 where the server-included audit is several times
  /// longer than they are, so that a run has as many samples of them as its
  /// length allows.
  int short_phase_runs;
  /// Power of the calibration factor that scales the phases running the
  /// app against the full database (the reference run and the audits).
  /// Above 1 where those phases slow more than the kernel when the host
  /// does: fig7-q1-1's UPDATEs, each a scan over 15k heap rows, slowed by
  /// the square of the kernel's slowdown over 25 runs at different times
  /// (log-log slope 1.8-2.6).
  double app_scaling_power;
};

// fig7-q1-1: the paper's application unchanged; point UPDATEs dominate.
// lineage-q2-4: the Fig. 8 refresh load around a 3-way join at 66 %
// selectivity; provenance capture, tuple persistence and restore dominate.
// Its server-included audit takes about 8 s against about 1 s for each
// other phase, so those run twice per iteration.
constexpr Workload kWorkloads[] = {
    {"fig7-q1-1", "Q1-1", 1000, 10, 100, false, 1, 2.0},
    {"lineage-q2-4", "Q2-4", 100, 10, 20, true, 2, 1.0},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int dop = 1;
  std::string workdir;
  std::string server_binary;
  std::string out;
};

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }

// The hosts this runs on share cores with other tenants, and a busy
// neighbour slows this process's work 1.5-3x for seconds or minutes at a
// time. Every measured phase is therefore sampled with a fixed calibration
// kernel — before it, after it, and between the app's statements while it
// runs — and its times are reported scaled to the speed at which the kernel
// takes kCalibrationRefSeconds ("reference seconds"). The raw wall times are
// reported too (wall.* metrics).
//
// The kernel does the kind of work the engine does row by row: it copies
// rows of short strings held on the heap (each copy allocates and frees)
// and reads a field of each. When a neighbour slows the host, it slows about
// as much as set-up, replays and the lineage workload's phases do, and about
// half as much (in log terms) as the UPDATE-bound app phases of fig7-q1-1;
// a kernel that stays in the core's own cache followed less of both. The
// kernel calls no program code and copies only rows it built before the
// first phase, so a change to the program cannot give it more work.
constexpr double kCalibrationRefSeconds = 0.0004;
// Rows built once; each kernel run copies every kCalibrationStride-th one.
constexpr int kCalibrationRows = 15000;
constexpr int kCalibrationStride = 4;
// Kernel runs before and after each phase.
constexpr int kBracketCalibrations = 8;
// Minimum phase time between two in-phase kernel runs.
constexpr int64_t kCalibrationIntervalNanos = 20'000'000;

uint64_t g_calibration_sink = 0;

/// The kernel's rows: nine fields like an `orders` row, two of them longer
/// than the small-string buffer (so each copy allocates for them).
using CalibrationRow = std::vector<std::string>;
std::vector<CalibrationRow>* g_calibration_rows = nullptr;

/// Builds the kernel's rows. Called once, before anything is timed.
void InitCalibration() {
  g_calibration_rows = new std::vector<CalibrationRow>();
  g_calibration_rows->reserve(kCalibrationRows);
  for (int r = 0; r < kCalibrationRows; ++r) {
    CalibrationRow row;
    for (int c = 0; c < 9; ++c) {
      const size_t length = c == 8 ? 48 : (c == 6 ? 16 : 8);
      row.emplace_back(length, static_cast<char>('a' + (r + c) % 26));
    }
    g_calibration_rows->push_back(std::move(row));
  }
}

/// Fixed work: copy every kCalibrationStride-th kernel row and read one
/// character of its longest field. Returns its seconds.
double CalibrationSeconds() {
  const std::vector<CalibrationRow>& rows = *g_calibration_rows;
  const int64_t start = NowNanos();
  uint64_t hits = 0;
  for (int r = 0; r < kCalibrationRows; r += kCalibrationStride) {
    const CalibrationRow copy = rows[static_cast<size_t>(r)];
    hits += copy[8][static_cast<size_t>(r) % copy[8].size()] == 'q';
  }
  const double seconds = Seconds(NowNanos() - start);
  g_calibration_sink += hits;
  return seconds;
}

/// Wall time of one phase, and the calibration kernel's mean time over it.
class PhaseClock {
 public:
  PhaseClock() {
    Calibrate(kBracketCalibrations);
    start_ = last_sample_ = NowNanos();
  }

  /// Runs the kernel if kCalibrationIntervalNanos have passed since the
  /// last run; returns the seconds it took (excluded from the phase).
  double MaybeCalibrate() {
    const int64_t now = NowNanos();
    if (now - last_sample_ < kCalibrationIntervalNanos) return 0;
    Calibrate(1);
    last_sample_ = NowNanos();
    const double spent = Seconds(last_sample_ - now);
    excluded_ += spent;
    return spent;
  }

  /// Wall seconds since the phase started.
  double Elapsed() const { return Seconds(NowNanos() - start_) - excluded_; }

  /// Ends the phase; returns its wall seconds.
  double Stop() {
    const double seconds = Elapsed();
    Calibrate(kBracketCalibrations);
    return seconds;
  }
  /// Scales the phase's seconds to reference seconds (valid after Stop).
  double factor() const {
    return kCalibrationRefSeconds / calibration_seconds();
  }
  double calibration_seconds() const { return kernel_seconds_ / runs_; }

 private:
  void Calibrate(int runs) {
    for (int i = 0; i < runs; ++i) kernel_seconds_ += CalibrationSeconds();
    runs_ += runs;
  }

  double kernel_seconds_ = 0;
  int runs_ = 0;
  double excluded_ = 0;
  int64_t start_ = 0;
  int64_t last_sample_ = 0;
};

/// Statement class as the app's SQL text shows it (the app issues only
/// INSERT, SELECT and UPDATE).
enum class Kind { kInsert, kSelect, kUpdate, kOther };

Kind Classify(const std::string& sql) {
  auto starts = [&sql](const char* word) {
    return sql.compare(0, std::char_traits<char>::length(word), word) == 0;
  };
  if (starts("INSERT")) return Kind::kInsert;
  if (starts("SELECT")) return Kind::kSelect;
  if (starts("UPDATE")) return Kind::kUpdate;
  return Kind::kOther;
}

/// The Fig. 7 steps of the app, in order.
constexpr const char* kSteps[] = {"inserts", "first_select", "other_selects",
                                  "updates"};
constexpr int kNumSteps = 4;

/// What the timing decorator saw of one phase's statements.
struct StatementLog {
  explicit StatementLog(PhaseClock* phase_clock) : clock(phase_clock) {}

  PhaseClock* clock;
  std::vector<double> insert_us;
  std::vector<double> select_us;
  std::vector<double> update_us;
  std::vector<std::string> texts;
  double total_seconds = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t update_affected = 0;
  /// Time inside the app, without in-phase calibration.
  double app_seconds = 0;
  /// In-phase calibration time that fell inside each step (index kNumSteps:
  /// outside any step).
  double calibration_seconds[kNumSteps + 1] = {};

  /// Opens a span per Fig. 7 step around the statements of that step, and
  /// runs the in-phase calibration between statements.
  void EnterStep(Kind kind) {
    int step = kNumSteps;
    if (kind == Kind::kInsert) step = 0;
    if (kind == Kind::kSelect) step = select_us.empty() ? 1 : 2;
    if (kind == Kind::kUpdate) step = 3;
    if (step != current_step_) {
      step_span_.reset();
      current_step_ = step;
      if (step < kNumSteps) {
        step_span_ = std::make_unique<obs::Span>(
            std::string("step.") + kSteps[step], "bench");
      }
    }
    calibration_seconds[step] += clock->MaybeCalibrate();
  }
  void CloseStep() {
    step_span_.reset();
    current_step_ = -1;
  }
  std::vector<double> calibration_list() const {
    return {std::begin(calibration_seconds), std::end(calibration_seconds)};
  }
  double CalibrationTotal() const {
    double total = 0;
    for (double s : calibration_seconds) total += s;
    return total;
  }

 private:
  int current_step_ = -1;
  std::unique_ptr<obs::Span> step_span_;
};

/// DbClient decorator handed to the app: times every statement as the
/// application sees it, one span and one id per statement.
class TimedClient final : public net::DbClient {
 public:
  TimedClient(net::DbClient* inner, StatementLog* log)
      : inner_(inner), log_(log) {}

  Result<exec::ResultSet> Execute(const net::DbRequest& request) override {
    const Kind kind = Classify(request.sql);
    log_->EnterStep(kind);
    ++log_->attempted;
    log_->texts.push_back(request.sql);
    obs::Span span("DbClient::Execute", "bench");
    if (span.recording()) {
      span.AddArg("stmt", std::to_string(log_->attempted));
    }
    const int64_t start = NowNanos();
    Result<exec::ResultSet> result = inner_->Execute(request);
    const int64_t nanos = NowNanos() - start;
    const double micros = static_cast<double>(nanos) / 1e3;
    log_->total_seconds += Seconds(nanos);
    if (!result.ok()) {
      ++log_->failed;
      return result;
    }
    switch (kind) {
      case Kind::kInsert:
        log_->insert_us.push_back(micros);
        break;
      case Kind::kSelect:
        log_->select_us.push_back(micros);
        break;
      case Kind::kUpdate:
        log_->update_us.push_back(micros);
        log_->update_affected += result->affected;
        break;
      case Kind::kOther:
        break;
    }
    return result;
  }

 private:
  net::DbClient* inner_;
  StatementLog* log_;
};

/// AppEnv decorator: the app's DB connections come back wrapped in
/// TimedClient; everything else is the inner environment's.
class TimedEnv final : public AppEnv {
 public:
  TimedEnv(AppEnv* inner, StatementLog* log) : inner_(inner), log_(log) {}

  os::ProcessContext& root_process() override {
    return inner_->root_process();
  }
  Result<net::DbClient*> OpenDbConnection(os::ProcessContext& proc) override {
    LDV_ASSIGN_OR_RETURN(net::DbClient * client,
                         inner_->OpenDbConnection(proc));
    clients_.push_back(std::make_unique<TimedClient>(client, log_));
    return clients_.back().get();
  }

 private:
  AppEnv* inner_;
  StatementLog* log_;
  std::vector<std::unique_ptr<TimedClient>> clients_;
};

AppFn Instrument(const AppFn& app, StatementLog* log) {
  return [app, log](AppEnv& env) -> Status {
    TimedEnv timed(&env, log);
    WallTimer timer;
    Status status = app(timed);
    log->CloseStep();
    log->app_seconds = timer.Seconds() - log->CalibrationTotal();
    return status;
  };
}

/// The unaudited environment: the paper's "standard server" reference.
class PlainEnv final : public AppEnv {
 public:
  PlainEnv(net::EngineHandle* engine, std::string socket_path,
           const std::string& sandbox)
      : vfs_(sandbox),
        sim_os_(&vfs_, &clock_, nullptr),
        engine_(engine),
        socket_path_(std::move(socket_path)) {}

  os::ProcessContext& root_process() override { return *sim_os_.root(); }
  Result<net::DbClient*> OpenDbConnection(os::ProcessContext&) override {
    if (socket_path_.empty()) {
      clients_.push_back(std::make_unique<net::LocalDbClient>(engine_));
    } else {
      LDV_ASSIGN_OR_RETURN(auto client,
                           net::SocketDbClient::Connect(socket_path_));
      clients_.push_back(std::move(client));
    }
    return clients_.back().get();
  }

 private:
  LogicalClock clock_;
  os::Vfs vfs_;
  os::SimOs sim_os_;
  net::EngineHandle* engine_;
  std::string socket_path_;
  std::vector<std::unique_ptr<net::DbClient>> clients_;
};

/// A freshly generated database, and the server in front of it when the
/// workload goes through the wire. Members tear down server first.
struct Deployment {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<net::EngineHandle> engine;
  std::unique_ptr<net::DbServer> server;
  std::string socket_path;  // empty: in-process clients
};

/// Deltas of the program's own registered metrics across one interval.
struct RegistryCounters {
  double engine_micros = 0;
  double engine_statements = 0;
  double server_micros = 0;
  double vectorized_queries = 0;
  double vectorized_fallbacks = 0;
  double morsels = 0;
  double lock_contentions = 0;
  double lock_wait_micros = 0;

  static RegistryCounters Now() {
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    auto counter = [&snap](const char* name) {
      auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
    };
    auto hist = [&snap](const char* name, bool sum) {
      auto it = snap.histograms.find(name);
      if (it == snap.histograms.end()) return 0.0;
      return static_cast<double>(sum ? it->second.sum
                                     : it->second.total_count);
    };
    RegistryCounters c;
    c.engine_micros = hist("engine.statement_micros", true);
    c.engine_statements = hist("engine.statement_micros", false);
    c.server_micros = hist("server.request_latency_micros", true);
    c.vectorized_queries = counter("exec.vectorized.queries");
    c.vectorized_fallbacks = counter("exec.vectorized.fallbacks");
    c.morsels = counter("exec.parallel.morsels");
    c.lock_contentions = counter("txn.lock_contentions");
    c.lock_wait_micros = hist("txn.lock_wait_micros", true);
    return c;
  }

  RegistryCounters operator-(const RegistryCounters& o) const {
    RegistryCounters d;
    d.engine_micros = engine_micros - o.engine_micros;
    d.engine_statements = engine_statements - o.engine_statements;
    d.server_micros = server_micros - o.server_micros;
    d.vectorized_queries = vectorized_queries - o.vectorized_queries;
    d.vectorized_fallbacks = vectorized_fallbacks - o.vectorized_fallbacks;
    d.morsels = morsels - o.morsels;
    d.lock_contentions = lock_contentions - o.lock_contentions;
    d.lock_wait_micros = lock_wait_micros - o.lock_wait_micros;
    return d;
  }
};

/// What the first iteration's probe learns about the run's inputs; every
/// iteration of a run has the same inputs.
struct ProbeResult {
  bool done = false;
  /// Provenance tuples in one answer to the workload query.
  double prov_tuples_per_select = 0;
};

/// One pass of set-up → reference → audit/replay × 3 modes.
class Iteration {
 public:
  Iteration(const Args& args, const Workload& workload, int index,
            ProbeResult* probe)
      : args_(args),
        workload_(workload),
        dir_(JoinPath(args.workdir, "it" + std::to_string(index))),
        probe_(probe) {
    auto query = tpch::FindQuery(workload.query_id);
    LDV_CHECK(query.ok());
    query_sql_ = query->sql;
    tpch::TpchSizes sizes = tpch::SizesFor(kScaleFactor);
    app_.query_sql = query_sql_;
    app_.num_inserts = workload.inserts;
    app_.num_selects = workload.selects;
    app_.num_updates = workload.updates;
    app_.insert_orderkey_base = sizes.orders;
    app_.update_orderkey_max = sizes.orders;
    app_.customer_max = sizes.customers;
    app_.seed = args.seed;
  }

  /// Runs every phase; returns false once a statement or check failed
  /// (later phases are then skipped).
  bool Run() {
    const RegistryCounters start = RegistryCounters::Now();
    if (!MakeDirs(dir_).ok()) return Fail("cannot create " + dir_);
    bool ok = RunPlain() && RunMode(PackageMode::kServerIncluded, "inc");
    for (int i = 0; ok && i < workload_.short_phase_runs; ++i) {
      ok = (i == 0 || RunPlain()) &&
           RunMode(PackageMode::kServerExcluded, "exc") &&
           RunMode(PackageMode::kPtu, "ptu");
    }
    const RegistryCounters d = RegistryCounters::Now() - start;
    Put("exec.fallback_ratio", d.vectorized_queries > 0
                                   ? d.vectorized_fallbacks / d.vectorized_queries
                                   : 0.0);
    Put("exec.parallel.morsels", d.morsels);
    Put("txn.lock_contentions", d.lock_contentions);
    Put("txn.lock_wait_s", d.lock_wait_micros / 1e6);
    obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    Put("exec.mem_peak_bytes",
        static_cast<double>(snap.gauges["exec.mem_peak_bytes"]));
    RemoveAll(dir_);
    return ok;
  }

  /// {"traced": bool, "values": {name: [samples...]}}.
  Json ToJson(bool traced) const {
    Json it = Json::MakeObject();
    it.Set("traced", Json::MakeBool(traced));
    Json values = Json::MakeObject();
    for (const auto& [name, samples] : values_) {
      Json arr = Json::MakeArray();
      for (double v : samples) arr.Append(Json::MakeDouble(v));
      values.Set(name, std::move(arr));
    }
    it.Set("values", std::move(values));
    return it;
  }

  void Put(const std::string& name, double value) {
    values_[name].push_back(value);
  }

  int64_t attempted() const { return attempted_; }
  /// Whether this iteration ran the storage and wire probe, whose reloaded
  /// copy of the database raises the iteration's peak RSS.
  bool ran_probe() const { return ran_probe_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  bool Fail(const std::string& what) {
    ++failed_;
    errors_.push_back(what);
    return false;
  }
  /// Counts one correctness check; false (and an error) if it failed.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    return ok || Fail(what);
  }
  bool CheckStatus(const Status& status, const std::string& what) {
    ++attempted_;
    return status.ok() || Fail(what + ": " + status.ToString());
  }
  /// Folds a phase's statement counts into the run totals.
  bool Account(const StatementLog& log, const Status& status,
               const std::string& phase) {
    attempted_ += log.attempted;
    failed_ += log.failed;
    if (!status.ok()) {
      errors_.push_back(phase + ": " + status.ToString());
      if (log.failed == 0) ++failed_;
      return false;
    }
    return true;
  }

  /// Stops the phase clock; the phase's times recorded from here on are
  /// scaled by its factor to the given power. Returns the phase's wall
  /// seconds.
  double EndPhase(PhaseClock* clock, double power = 1.0) {
    const double seconds = clock->Stop();
    factor_ = std::pow(clock->factor(), power);
    Put("calibration_ms", clock->calibration_seconds() * 1e3);
    return seconds;
  }
  /// A time (any unit) measured in the current phase, in reference units.
  void PutTime(const std::string& name, double value) {
    Put(name, value * factor_);
  }
  void PutTimes(const std::string& name, const std::vector<double>& values) {
    for (double v : values) PutTime(name, v);
  }
  /// An end-to-end phase total: reference seconds, plus the wall time.
  void PutPhase(const std::string& name, double seconds) {
    PutTime(name, seconds);
    Put("wall." + name, seconds);
  }

  /// The app's Fig. 7 step times, less the in-phase calibration that fell
  /// inside each step (`calibration` is indexed like
  /// StatementLog::calibration_seconds).
  void RecordSteps(const std::string& phase, const tpch::StepTimings& t,
                   const std::vector<double>& calibration) {
    const double seconds[kNumSteps] = {
        t.inserts_seconds, t.first_select_seconds, t.other_selects_seconds,
        t.updates_seconds};
    for (int i = 0; i < kNumSteps; ++i) {
      PutTime("step." + phase + "." + kSteps[i] + "_s",
              seconds[i] - calibration[static_cast<size_t>(i)]);
    }
  }

  /// Generates a fresh TPC-H database and, for wire workloads, starts a
  /// DbServer in front of it. Timed as set-up.
  std::unique_ptr<Deployment> SetUp() {
    auto dep = std::make_unique<Deployment>();
    PhaseClock clock;
    dep->db = std::make_unique<storage::Database>();
    tpch::GenOptions gen;
    gen.scale_factor = kScaleFactor;
    gen.seed = args_.seed;
    Status status;
    {
      obs::Span span("tpch::Generate", "bench");
      status = tpch::Generate(dep->db.get(), gen);
    }
    const double generate_seconds = clock.Elapsed();
    if (!CheckStatus(status, "tpch::Generate")) return nullptr;
    if (workload_.via_server) {
      obs::Span span("DbServer::Start", "bench");
      dep->engine = std::make_unique<net::EngineHandle>(dep->db.get());
      // Relative: sun_path is short, and the run's cwd is the checkout.
      dep->socket_path = JoinPath(args_.workdir, "db.sock");
      dep->server =
          std::make_unique<net::DbServer>(dep->engine.get(), dep->socket_path);
      if (!CheckStatus(dep->server->Start(), "DbServer::Start")) {
        return nullptr;
      }
    }
    const double seconds = EndPhase(&clock);
    PutTime("tpch.generate_s", generate_seconds);
    PutPhase("setup_s", seconds);
    return dep;
  }

  /// SaveDatabase/LoadDatabase (the calls PTU makes) on the generated DB,
  /// then Encode+Decode of one PROVENANCE answer to the workload query on
  /// the reloaded copy — which is the state every audited SELECT sees, as
  /// the app's inserts add orders without lineitems.
  bool ProbeStorageAndWire(const storage::Database& db) {
    const std::string data_dir = JoinPath(dir_, "saved_db");
    PhaseClock clock;
    int64_t start = NowNanos();
    Status status;
    {
      obs::Span span("storage::SaveDatabase", "bench");
      status = storage::SaveDatabase(db, data_dir);
    }
    const double save_seconds = Seconds(NowNanos() - start);
    if (!CheckStatus(status, "storage::SaveDatabase")) return false;
    storage::Database loaded;
    start = NowNanos();
    {
      obs::Span span("storage::LoadDatabase", "bench");
      status = storage::LoadDatabase(&loaded, data_dir);
    }
    const double load_seconds = Seconds(NowNanos() - start);
    if (!CheckStatus(status, "storage::LoadDatabase")) return false;
    RemoveAll(data_dir);
    if (!Check(loaded.TotalLiveRows() == db.TotalLiveRows(),
               "LoadDatabase row count differs from the saved database")) {
      return false;
    }

    net::EngineHandle engine(&loaded);
    net::DbRequest request;
    request.sql = "PROVENANCE " + query_sql_;
    Result<exec::ResultSet> answer = engine.Execute(request);
    if (!CheckStatus(answer.status(), "PROVENANCE probe")) return false;
    probe_->prov_tuples_per_select =
        static_cast<double>(answer->prov_tuples.size());
    std::vector<double> codec;
    std::string bytes;
    for (int i = 0; i < 3; ++i) {
      start = NowNanos();
      {
        obs::Span span("net::EncodeResponse", "bench");
        bytes = net::EncodeResponse(Status::Ok(), *answer);
      }
      Result<exec::ResultSet> decoded = Status::Internal("not run");
      {
        obs::Span span("net::DecodeResponse", "bench");
        decoded = net::DecodeResponse(bytes);
      }
      codec.push_back(Seconds(NowNanos() - start) * 1e3);
      if (!CheckStatus(decoded.status(), "net::DecodeResponse")) return false;
      if (!Check(decoded->Fingerprint() == answer->Fingerprint() &&
                     decoded->prov_tuples.size() ==
                         answer->prov_tuples.size(),
                 "wire codec round trip changed the provenance answer")) {
        return false;
      }
    }
    std::sort(codec.begin(), codec.end());
    EndPhase(&clock);
    PutTime("storage.save_s", save_seconds);
    PutTime("storage.load_s", load_seconds);
    PutTime("net.codec_ms_per_prov_response", codec[1]);
    Put("net.prov_response_bytes", static_cast<double>(bytes.size()));
    return true;
  }

  bool RunPlain() {
    std::unique_ptr<Deployment> dep = SetUp();
    if (dep == nullptr) return false;
    // Once per run, and again in traced iterations so their trace has it.
    if (!probe_->done || obs::TraceRecorder::enabled()) {
      ran_probe_ = true;
      if (!ProbeStorageAndWire(*dep->db)) return false;
      probe_->done = true;
    }
    // The reference run needs an engine even without a server.
    if (dep->engine == nullptr) {
      dep->engine = std::make_unique<net::EngineHandle>(dep->db.get());
    }
    const std::string sandbox = JoinPath(dir_, "plain_sandbox");
    if (!CheckStatus(MakeDirs(sandbox), "plain sandbox")) return false;
    PlainEnv env(dep->engine.get(), dep->socket_path, sandbox);
    const RegistryCounters before = RegistryCounters::Now();
    const tpch::StepTimings previous = plain_;
    PhaseClock clock;
    StatementLog log(&clock);
    Status status;
    {
      obs::Span span("phase.plain", "bench");
      status = Instrument(tpch::MakeExperimentApp(app_, &plain_), &log)(env);
    }
    const double seconds = EndPhase(&clock, workload_.app_scaling_power);
    const RegistryCounters d = RegistryCounters::Now() - before;
    if (!Account(log, status, "plain")) return false;
    PutPhase("plain_s", seconds);
    RecordSteps("plain", plain_, log.calibration_list());
    PutTimes("stmt.plain.insert_us", log.insert_us);
    PutTimes("stmt.plain.update_us", log.update_us);
    PutTime("engine.plain.busy_s", d.engine_micros / 1e6);
    Put("engine.plain.statements", d.engine_statements);
    // What the app waits for beyond the engine's own statement time: the
    // socket round trip and server dispatch, or the in-process call path.
    PutTime("net.transport_s", log.total_seconds - d.engine_micros / 1e6);
    if (dep->server != nullptr) {
      PutTime("net.server_overhead_s",
              (d.server_micros - d.engine_micros) / 1e6);
    }
    update_affected_ = log.update_affected;
    if (previous.rows_returned > 0 &&
        !Check(plain_.result_fingerprint == previous.result_fingerprint &&
                   plain_.rows_returned == previous.rows_returned,
               "reference runs of one iteration differ")) {
      return false;
    }
    return Check(plain_.rows_returned > 0, "reference run returned no rows");
  }

  bool RunMode(PackageMode mode, const std::string& tag) {
    const std::string audit_phase = "audit_" + tag;
    const std::string replay_phase = "replay_" + tag;
    const std::string pkg = JoinPath(dir_, "pkg_" + tag);
    const std::string sandbox = JoinPath(dir_, "sandbox_" + tag);
    // A mode that runs again in the iteration starts from nothing.
    RemoveAll(pkg);
    RemoveAll(sandbox);
    int64_t pre_run_rows = 0;
    tpch::StepTimings audited;
    {
      std::unique_ptr<Deployment> dep = SetUp();
      if (dep == nullptr) return false;
      pre_run_rows = dep->db->TotalLiveRows();
      AuditOptions options;
      options.mode = mode;
      options.package_dir = pkg;
      options.sandbox_root = sandbox;
      options.server_binary_path = args_.server_binary;
      options.db_socket_path = dep->socket_path;
      if (!CheckStatus(MakeDirs(options.sandbox_root), "audit sandbox")) {
        return false;
      }
      const RegistryCounters before = RegistryCounters::Now();
      Auditor auditor(dep->db.get(), options);
      Result<AuditReport> report = Status::Internal("not run");
      PhaseClock clock;
      StatementLog log(&clock);
      {
        obs::Span span("Auditor::Run", "bench");
        if (span.recording()) span.AddArg("phase", audit_phase);
        report = auditor.Run(
            Instrument(tpch::MakeExperimentApp(app_, &audited), &log));
      }
      const double run_seconds = EndPhase(&clock, workload_.app_scaling_power);
      const RegistryCounters d = RegistryCounters::Now() - before;
      if (!Account(log, report.status(), audit_phase)) return false;
      PutPhase(audit_phase + "_s", run_seconds);
      Put("factor." + audit_phase, factor_);
      PutTime("audit." + tag + ".app_s", log.app_seconds);
      PutTime("audit." + tag + ".finalize_s", run_seconds - log.app_seconds);
      RecordSteps(audit_phase, audited, log.calibration_list());
      if (mode == PackageMode::kServerIncluded) {
        PutTimes("stmt.audit_inc.insert_us", log.insert_us);
        PutTimes("stmt.audit_inc.update_us", log.update_us);
        PutTime("engine.audit_inc.busy_s", d.engine_micros / 1e6);
        Put("engine.audit_inc.statements", d.engine_statements);
        Put("audit.inc.statements",
            static_cast<double>(report->statements_audited));
        Put("audit.inc.tuples_persisted",
            static_cast<double>(report->tuples_persisted));
        // Provenance tuples the auditor received: every SELECT returns the
        // probe's answer, every UPDATE's reenactment its matched rows.
        const double shipped =
            workload_.selects * probe_->prov_tuples_per_select +
                               static_cast<double>(update_affected_);
        Put("audit.inc.persisted_per_shipped",
            shipped > 0 ? static_cast<double>(report->tuples_persisted) /
                              shipped
                        : 0.0);
        Put("trace.inc.nodes", static_cast<double>(report->trace_nodes));
        Put("trace.inc.edges", static_cast<double>(report->trace_edges));
        const int64_t ser_start = NowNanos();
        std::string serialized;
        {
          obs::Span span("trace::SerializeTrace", "bench");
          serialized = trace::SerializeTrace(auditor.trace_graph());
        }
        PutTime("trace.serialize_s", Seconds(NowNanos() - ser_start));
        if (!Check(!serialized.empty(), "empty serialized trace")) {
          return false;
        }
        if (!ParseSql(log.texts)) return false;
      }
      if (!Check(audited.result_fingerprint == plain_.result_fingerprint &&
                     audited.rows_returned == plain_.rows_returned,
                 audit_phase + " fingerprint differs from the reference")) {
        return false;
      }
    }  // auditor first, then the server and the database go

    Result<PackageInfo> info = Status::Internal("not run");
    {
      obs::Span span("InspectPackage", "bench");
      info = InspectPackage(pkg);
    }
    if (!CheckStatus(info.status(), "InspectPackage")) return false;
    Put("package_" + tag + "_bytes",
        static_cast<double>(info->total_bytes - info->server_binary_bytes));
    if (mode == PackageMode::kServerIncluded) {
      Put("package.inc.tuple_bytes",
          static_cast<double>(info->tuple_data_bytes));
      Put("package.inc.trace_bytes", static_cast<double>(info->trace_bytes));
      Put("package.inc.tuples", static_cast<double>(info->packaged_tuples));
      Put("package.server_binary_bytes",
          static_cast<double>(info->server_binary_bytes));
      if (!ParsePackagedCsv(pkg)) return false;
    } else if (mode == PackageMode::kServerExcluded) {
      Put("package.exc.replay_log_bytes",
          static_cast<double>(info->replay_log_bytes));
      Put("package.exc.trace_bytes", static_cast<double>(info->trace_bytes));
    } else {
      Put("package.ptu.full_data_bytes",
          static_cast<double>(info->full_data_bytes));
    }
    // A recipient may replay a package any number of times; short replays
    // repeat so that their figures rest on more than one sample. One clock
    // spans all of them, and their times are recorded once it has stopped.
    const std::string phase = "replay_" + tag;
    PhaseClock clock;
    std::vector<ReplayTimes> replays;
    double spent = 0;
    for (int rep = 0; rep == 0 || (rep < kMaxReplays && spent < kReplaySeconds);
         ++rep) {
      const int64_t start = NowNanos();
      replays.emplace_back();
      if (!Replay(mode, tag, pkg, pre_run_rows, rep, &clock, &replays.back())) {
        return false;
      }
      spent += Seconds(NowNanos() - start);
    }
    EndPhase(&clock);
    for (const ReplayTimes& t : replays) {
      PutPhase(phase + "_s", t.open_seconds + t.run_seconds);
      PutTime("replay." + tag + ".init_s", t.open_seconds);
      PutTime("replay." + tag + ".run_s", t.run_seconds);
      RecordSteps(phase, t.steps, t.calibration_seconds);
      if (mode == PackageMode::kServerIncluded) {
        PutTime("engine.replay_inc.busy_s", t.engine_seconds);
        Put("engine.replay_inc.statements", t.engine_statements);
      }
    }
    return true;
  }

  /// What one replay measured, recorded once the replays' clock stops.
  struct ReplayTimes {
    double open_seconds = 0;
    double run_seconds = 0;
    tpch::StepTimings steps;
    std::vector<double> calibration_seconds;
    double engine_seconds = 0;
    double engine_statements = 0;
  };

  bool Replay(PackageMode mode, const std::string& tag, const std::string& pkg,
              int64_t pre_run_rows, int rep, PhaseClock* clock,
              ReplayTimes* times) {
    const std::string phase = "replay_" + tag;
    ReplayOptions options;
    options.package_dir = pkg;
    options.scratch_dir =
        JoinPath(dir_, "scratch_" + tag + "_" + std::to_string(rep));
    const RegistryCounters before = RegistryCounters::Now();
    int64_t start = NowNanos();
    Result<std::unique_ptr<Replayer>> replayer = Status::Internal("not run");
    {
      obs::Span span("Replayer::Open", "bench");
      if (span.recording()) span.AddArg("phase", phase);
      replayer = Replayer::Open(options);
    }
    const double open_seconds = Seconds(NowNanos() - start);
    if (!CheckStatus(replayer.status(), phase + " Replayer::Open")) {
      return false;
    }
    Replayer& r = **replayer;
    // The restored state must be exactly what the package declares.
    if (mode == PackageMode::kServerIncluded) {
      int64_t declared = 0;
      for (const PackageManifest::TableEntry& entry : r.manifest().tables) {
        const storage::Table* table = r.restored_db()->FindTable(entry.name);
        declared += entry.rows;
        if (!Check(table != nullptr && table->live_row_count() == entry.rows,
                   phase + " table " + entry.name +
                       " restored a different row count than its manifest")) {
          return false;
        }
      }
      if (!Check(declared == r.report().restored_tuples,
                 phase + " restored tuples differ from the manifest")) {
        return false;
      }
      Put("replay.inc.restored_tuples",
          static_cast<double>(r.report().restored_tuples));
    } else if (mode == PackageMode::kPtu) {
      if (!Check(r.report().restored_tuples == pre_run_rows,
                 phase + " restored a different database than was audited")) {
        return false;
      }
    }
    StatementLog log(clock);
    tpch::StepTimings& replayed = times->steps;
    Result<ReplayReport> report = Status::Internal("not run");
    start = NowNanos();
    {
      obs::Span span("Replayer::Run", "bench");
      if (span.recording()) span.AddArg("phase", phase);
      report =
          r.Run(Instrument(tpch::MakeExperimentApp(app_, &replayed), &log));
    }
    times->open_seconds = open_seconds;
    times->run_seconds = Seconds(NowNanos() - start) - log.CalibrationTotal();
    times->calibration_seconds = log.calibration_list();
    const RegistryCounters d = RegistryCounters::Now() - before;
    if (!Account(log, report.status(), phase)) return false;
    times->engine_seconds = d.engine_micros / 1e6;
    times->engine_statements = d.engine_statements;
    RemoveAll(options.scratch_dir);
    if (mode == PackageMode::kServerExcluded &&
        !Check(report->statements_replayed ==
                   r.manifest().statements_recorded,
               phase + " replayed a different number of statements")) {
      return false;
    }
    return Check(replayed.result_fingerprint == plain_.result_fingerprint &&
                     replayed.rows_returned == plain_.rows_returned,
                 phase + " fingerprint differs from the audited run");
  }

  /// sql::Parse over the audited run's statement texts.
  bool ParseSql(const std::vector<std::string>& texts) {
    const int64_t start = NowNanos();
    for (const std::string& text : texts) {
      obs::Span span("sql::Parse", "bench");
      if (!CheckStatus(sql::Parse(text).status(), "sql::Parse")) return false;
    }
    PutTime("sql.parse_us_per_stmt",
            texts.empty() ? 0.0
                          : Seconds(NowNanos() - start) * 1e6 /
                                static_cast<double>(texts.size()));
    return true;
  }

  /// ParseCsv over the package's tuple files; each must hold exactly the
  /// rows its manifest entry declares.
  bool ParsePackagedCsv(const std::string& pkg) {
    Result<PackageManifest> manifest = PackageManifest::Load(pkg);
    if (!CheckStatus(manifest.status(), "PackageManifest::Load")) return false;
    int64_t nanos = 0;
    for (const PackageManifest::TableEntry& entry : manifest->tables) {
      std::string path = JoinPath(
          pkg, std::string(kTupleDataDir) + "/" + entry.name + ".csv");
      int64_t rows = 0;
      if (FileExists(path)) {
        Result<std::string> text = ReadFileToString(path);
        if (!CheckStatus(text.status(), "read " + path)) return false;
        const int64_t start = NowNanos();
        Result<std::vector<std::vector<std::string>>> parsed =
            Status::Internal("not run");
        {
          obs::Span span("ParseCsv", "bench");
          parsed = ParseCsv(*text);
        }
        nanos += NowNanos() - start;
        if (!CheckStatus(parsed.status(), "ParseCsv " + path)) return false;
        rows = static_cast<int64_t>(parsed->size());
      }
      if (!Check(rows == entry.rows,
                 "tuple file of " + entry.name +
                     " holds a different row count than its manifest")) {
        return false;
      }
    }
    PutTime("replay.inc.csv_parse_s", Seconds(nanos));
    return true;
  }

  const Args& args_;
  const Workload& workload_;
  std::string dir_;
  std::string query_sql_;
  tpch::AppOptions app_;
  tpch::StepTimings plain_;
  ProbeResult* probe_;
  bool ran_probe_ = false;
  int64_t update_affected_ = 0;
  /// Every figure the iteration measured, by metric name; repeated
  /// measurements (set-ups, replays, statements) append.
  std::map<std::string, std::vector<double>> values_;
  /// Reference-speed factor of the phase being recorded.
  double factor_ = 1;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Returns freed heap to the kernel and resets its peak-RSS mark, so that
/// each iteration reports its own peak. False where /proc/self/clear_refs
/// is unavailable.
bool ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Peak resident set since the last reset (VmHWM), else since start.
double PeakRssMb() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--dop") {
      args->dop = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--server-binary") {
      args->server_binary = value;
    } else if (flag == "--out") {
      args->out = value;
    } else {
      std::fprintf(stderr, "ldv_e2e: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         !args->out.empty() && args->dop >= 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ldv_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dop N --workdir DIR --server-binary PATH "
                 "--out FILE\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "ldv_e2e: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  ThreadPool::SetDefaultDop(args.dop);
  InitCalibration();
  RemoveAll(args.workdir);
  LDV_CHECK_OK(MakeDirs(args.workdir));
  const std::string trace_path = JoinPath(args.workdir, "trace.json");

  Json iterations = Json::MakeArray();
  Json errors = Json::MakeArray();
  int64_t attempted = 0;
  int64_t failed = 0;
  int traced = 0;
  int untraced = 0;
  ProbeResult probe;
  WallTimer timer;
  for (int i = 0;; ++i) {
    // With --trace 1, iterations alternate untraced / traced, so the run
    // reports tracing overhead as well as the traced breakdown.
    const bool trace_this = args.trace && i % 2 == 1;
    if (trace_this) {
      obs::TraceRecorder::Clear();
      obs::TraceRecorder::Enable();
    }
    Iteration it(args, *workload, i, &probe);
    const bool peak_per_iteration = ResetPeakRss();
    const bool ok = it.Run();
    it.Put(it.ran_probe() ? "peak_rss_with_probe_mb" : "peak_rss_mb",
           PeakRssMb());
    it.Put("peak_rss_per_iteration", peak_per_iteration ? 1 : 0);
    if (trace_this) {
      obs::TraceRecorder::Disable();
      LDV_CHECK_OK(WriteStringToFile(
          trace_path, obs::TraceRecorder::ExportChromeTrace().Dump() + "\n"));
      obs::TraceRecorder::Clear();
      ++traced;
    } else {
      ++untraced;
    }
    attempted += it.attempted();
    failed += it.failed();
    for (const std::string& e : it.errors()) {
      errors.Append(Json::MakeString(e));
    }
    iterations.Append(it.ToJson(trace_this));
    if (!ok) break;
    const bool need_more = timer.Seconds() < args.seconds ||
                           (args.trace && (traced == 0 || untraced == 0));
    if (!need_more) break;
  }

  Json out = Json::MakeObject();
  out.Set("workload", Json::MakeString(workload->name));
  out.Set("query", Json::MakeString(workload->query_id));
  out.Set("scale_factor", Json::MakeDouble(kScaleFactor));
  out.Set("seed", Json::MakeInt(static_cast<int64_t>(args.seed)));
  out.Set("dop", Json::MakeInt(ThreadPool::default_dop()));
  out.Set("via_server", Json::MakeBool(workload->via_server));
  out.Set("attempted", Json::MakeInt(attempted));
  out.Set("failed", Json::MakeInt(failed));
  out.Set("errors", std::move(errors));
  out.Set("measured_s", Json::MakeDouble(timer.Seconds()));
  out.Set("iterations", std::move(iterations));
  if (traced > 0) out.Set("trace_file", Json::MakeString(trace_path));
  LDV_CHECK_OK(WriteStringToFile(args.out, out.Dump(false) + "\n"));
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ldv::e2e

int main(int argc, char** argv) { return ldv::e2e::Main(argc, argv); }
