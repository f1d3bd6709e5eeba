#include <gtest/gtest.h>

#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>

#include <map>
#include <thread>

#include "ldv/auditor.h"
#include "net/db_client.h"
#include "net/db_server.h"
#include "net/protocol.h"
#include "net/retrying_db_client.h"
#include "obs/span.h"
#include "util/fsutil.h"
#include "util/strings.h"

namespace ldv::net {
namespace {

using storage::Database;
using storage::Value;

exec::ResultSet MakeSampleResult() {
  exec::ResultSet r;
  r.schema = storage::Schema(
      {{"id", storage::ValueType::kInt64}, {"name", storage::ValueType::kString}});
  r.rows.push_back({Value::Int(1), Value::Str("a")});
  r.rows.push_back({Value::Int(2), Value::Null()});
  r.affected = 2;
  r.has_provenance = true;
  r.lineage.push_back({{1, 10, 3}});
  r.lineage.push_back({{1, 11, 3}, {2, 4, 1}});
  exec::ProvTupleRecord prov;
  prov.vid = {1, 10, 3};
  prov.table = "t";
  prov.values = {Value::Int(10), Value::Str("x")};
  r.prov_tuples.push_back(prov);
  exec::DmlRecord dml;
  dml.kind = exec::DmlRecord::Kind::kUpdated;
  dml.table = "t";
  dml.vid = {1, 10, 4};
  dml.prior = {1, 10, 3};
  dml.has_prior = true;
  r.dml.push_back(dml);
  return r;
}

TEST(ProtocolTest, RequestRoundTrip) {
  DbRequest request;
  request.sql = "SELECT * FROM t WHERE name = 'x''y'";
  request.process_id = 42;
  request.query_id = 7;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->sql, request.sql);
  EXPECT_EQ(decoded->process_id, 42);
  EXPECT_EQ(decoded->query_id, 7);
}

TEST(ProtocolTest, RequestKindRoundTripsAndOldFramesDefaultToQuery) {
  DbRequest request;
  request.kind = RequestKind::kStats;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->kind, RequestKind::kStats);

  // A frame from before the kind byte existed (e.g. an old replay log)
  // still decodes, defaulting to a plain query. Strip the trailing timeout
  // varint (one byte for timeout 0) and the kind byte.
  DbRequest old_style;
  old_style.sql = "SELECT 1";
  old_style.process_id = 3;
  old_style.query_id = 4;
  std::string encoded = EncodeRequest(old_style);
  encoded.pop_back();  // strip the empty params tuple (count 0)
  encoded.pop_back();  // strip the empty handle (length 0)
  encoded.pop_back();  // strip the trailing timeout varint
  encoded.pop_back();  // strip the kind byte
  auto legacy = DecodeRequest(encoded);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->kind, RequestKind::kQuery);
  EXPECT_EQ(legacy->sql, "SELECT 1");
  EXPECT_EQ(legacy->timeout_millis, 0);

  // A kind-byte-era frame (no timeout field) decodes with no per-request
  // timeout.
  encoded.push_back(static_cast<char>(RequestKind::kStats));
  auto kind_only = DecodeRequest(encoded);
  ASSERT_TRUE(kind_only.ok());
  EXPECT_EQ(kind_only->kind, RequestKind::kStats);
  EXPECT_EQ(kind_only->timeout_millis, 0);

  // An out-of-range kind byte is rejected, not misinterpreted.
  encoded.pop_back();
  encoded.push_back('\x7f');
  EXPECT_FALSE(DecodeRequest(encoded).ok());
}

TEST(ProtocolTest, TimeoutFieldRoundTrips) {
  DbRequest request;
  request.sql = "SELECT 1";
  request.timeout_millis = 1500;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->timeout_millis, 1500);
  EXPECT_EQ(decoded->kind, RequestKind::kQuery);
}

TEST(ProtocolTest, ResultSetRoundTrip) {
  exec::ResultSet original = MakeSampleResult();
  auto decoded = DecodeResponse(EncodeResponse(Status::Ok(), original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->schema.ToString(), original.schema.ToString());
  ASSERT_EQ(decoded->rows.size(), 2u);
  EXPECT_EQ(decoded->rows[0][1].AsString(), "a");
  EXPECT_TRUE(decoded->rows[1][1].is_null());
  EXPECT_EQ(decoded->affected, 2);
  ASSERT_EQ(decoded->lineage.size(), 2u);
  EXPECT_EQ(decoded->lineage[1].size(), 2u);
  EXPECT_EQ(decoded->lineage[1][1].rowid, 4);
  ASSERT_EQ(decoded->prov_tuples.size(), 1u);
  EXPECT_EQ(decoded->prov_tuples[0].table, "t");
  ASSERT_EQ(decoded->dml.size(), 1u);
  EXPECT_TRUE(decoded->dml[0].has_prior);
  EXPECT_EQ(decoded->Fingerprint(), original.Fingerprint());
}

TEST(ProtocolTest, ErrorResponseRoundTrip) {
  auto decoded =
      DecodeResponse(EncodeResponse(Status::NotFound("no such table"), {}));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.status().message(), "no such table");
}

TEST(ProtocolTest, DecodeGarbageFails) {
  EXPECT_FALSE(DecodeResponse("zz").ok());
  EXPECT_FALSE(DecodeRequest("").ok());
}

TEST(EngineHandleTest, ExecutesAndSerializes) {
  Database db;
  EngineHandle engine(&db);
  LocalDbClient client(&engine);
  ASSERT_TRUE(client.Query("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(client.Query("INSERT INTO t VALUES (1), (2)").ok());
  auto result = client.Query("SELECT count(*) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInt(), 2);
  EXPECT_FALSE(client.Query("SELECT * FROM missing").ok());
}

TEST(EngineHandleTest, RequestIdsReachProvMetadata) {
  Database db;
  EngineHandle engine(&db);
  LocalDbClient client(&engine);
  ASSERT_TRUE(client.Query("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(client.Query("INSERT INTO t VALUES (1)").ok());
  DbRequest request;
  request.sql = "PROVENANCE SELECT a FROM t";
  request.process_id = 9;
  request.query_id = 33;
  ASSERT_TRUE(client.Execute(request).ok());
  auto check = client.Query("SELECT prov_usedby, prov_p FROM t");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0].AsInt(), 33);
  EXPECT_EQ(check->rows[0][1].AsInt(), 9);
}

class DbServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("ldv_srv_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    engine_ = std::make_unique<EngineHandle>(&db_);
    server_ = std::make_unique<DbServer>(engine_.get(), dir_ + "/db.sock");
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
    ASSERT_TRUE(RemoveAll(dir_).ok());
  }

  std::string dir_;
  Database db_;
  std::unique_ptr<EngineHandle> engine_;
  std::unique_ptr<DbServer> server_;
};

TEST_F(DbServerTest, EndToEndQueryOverSocket) {
  auto client = SocketDbClient::Connect(server_->socket_path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->Query("CREATE TABLE t (a INT, b TEXT)").ok());
  ASSERT_TRUE(
      (*client)->Query("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  auto result = (*client)->Query("SELECT b FROM t WHERE a = 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsString(), "y");
  // Errors propagate over the wire.
  auto bad = (*client)->Query("SELECT nope FROM t");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST_F(DbServerTest, StatsMessageReturnsServerMetricsSnapshot) {
  auto client = SocketDbClient::Connect(server_->socket_path());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Query("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE((*client)->Query("INSERT INTO t VALUES (1)").ok());

  auto stats = FetchServerStats(client->get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::string dump = stats->Dump();
  // Request counting and the latency histogram both made it into the dump.
  EXPECT_NE(dump.find("server.requests"), std::string::npos);
  EXPECT_NE(dump.find("server.request_latency_micros"), std::string::npos);
  EXPECT_NE(dump.find("server.active_connections"), std::string::npos);
}

TEST_F(DbServerTest, TraceStartDumpRoundTripOverSocket) {
  auto client = SocketDbClient::Connect(server_->socket_path());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(StartServerTrace(client->get()).ok());
  ASSERT_TRUE((*client)->Query("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE((*client)->Query("SELECT a FROM t").ok());

  auto trace = FetchServerTrace(client->get());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  std::vector<obs::SpanEvent> events =
      obs::TraceRecorder::EventsFromJson(*trace);
  // The engine records one span per executed statement.
  bool saw_statement = false;
  for (const obs::SpanEvent& event : events) {
    if (event.name == "engine.statement") saw_statement = true;
  }
  EXPECT_TRUE(saw_statement);
  // Dump is idempotent (a retried dump must see the same events): recording
  // stops, but the buffer survives until the next TraceStart.
  auto again = FetchServerTrace(client->get());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(obs::TraceRecorder::EventsFromJson(*again).size(), events.size());
  // TraceStart clears; statements executed before it are gone from the
  // next dump.
  ASSERT_TRUE(StartServerTrace(client->get()).ok());
  auto fresh = FetchServerTrace(client->get());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(obs::TraceRecorder::EventsFromJson(*fresh).empty());
}

TEST_F(DbServerTest, ConcurrentClients) {
  auto setup = SocketDbClient::Connect(server_->socket_path());
  ASSERT_TRUE(setup.ok());
  ASSERT_TRUE((*setup)->Query("CREATE TABLE t (a INT)").ok());
  constexpr int kThreads = 8;
  constexpr int kInsertsEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto client = SocketDbClient::Connect(server_->socket_path());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int k = 0; k < kInsertsEach; ++k) {
        if (!(*client)
                 ->Query("INSERT INTO t VALUES (" +
                         std::to_string(i * 1000 + k) + ")")
                 .ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto count = (*setup)->Query("SELECT count(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), kThreads * kInsertsEach);
}

TEST_F(DbServerTest, MalformedFrameGetsErrorResponseAndConnectionSurvives) {
  auto client = SocketDbClient::Connect(server_->socket_path());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Query("CREATE TABLE t (a INT)").ok());

  // Speak the framing protocol directly with a garbage payload.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  strcpy(addr.sun_path, server_->socket_path().c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(SendFrame(fd, "\xff\xff garbage \x01").ok());
  auto response_bytes = RecvFrame(fd);
  ASSERT_TRUE(response_bytes.ok());
  auto decoded = DecodeResponse(*response_bytes);
  EXPECT_FALSE(decoded.ok());  // server reported a decode error

  // The same raw connection can still issue a valid request afterwards.
  DbRequest ok_request;
  ok_request.sql = "SELECT count(*) FROM t";
  ASSERT_TRUE(SendFrame(fd, EncodeRequest(ok_request)).ok());
  auto second = RecvFrame(fd);
  ASSERT_TRUE(second.ok());
  auto result = DecodeResponse(*second);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].AsInt(), 0);
  ::close(fd);
}

TEST_F(DbServerTest, OversizedFramePrefixGetsErrorResponse) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  strcpy(addr.sun_path, server_->socket_path().c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // A length prefix just past the cap; no payload follows.
  const uint32_t forged = kMaxFrameBytes + 1;
  unsigned char prefix[4] = {
      static_cast<unsigned char>(forged & 0xff),
      static_cast<unsigned char>((forged >> 8) & 0xff),
      static_cast<unsigned char>((forged >> 16) & 0xff),
      static_cast<unsigned char>((forged >> 24) & 0xff),
  };
  ASSERT_EQ(::send(fd, prefix, sizeof(prefix), 0), 4);
  auto response = RecvFrame(fd);
  ASSERT_TRUE(response.ok());
  auto decoded = DecodeResponse(*response);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("oversized frame"),
            std::string::npos);
  // Unlike a decodable-but-garbage payload, the connection is dropped: the
  // unread payload bytes make the stream unresyncable.
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
}

TEST_F(DbServerTest, RetryingClientReconnectsAfterServerRestart) {
  auto client = RetryingDbClient::ForSocket(server_->socket_path());
  ASSERT_TRUE(client->Query("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(client->Query("INSERT INTO t VALUES (1)").ok());

  // Restart the server on the same path; the client's cached connection is
  // now dead, so the next request must transparently reconnect.
  server_->Stop();
  server_ = std::make_unique<DbServer>(engine_.get(), dir_ + "/db.sock");
  ASSERT_TRUE(server_->Start().ok());

  auto result = client->Query("SELECT count(*) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].AsInt(), 1);
  EXPECT_GE(client->reconnects(), 1);
}

TEST(DbServerOverloadTest, ExcessConnectionsGetCleanOverloadError) {
  auto dir = MakeTempDir("ldv_cap_");
  ASSERT_TRUE(dir.ok());
  Database db;
  EngineHandle engine(&db);
  DbServerOptions options;
  options.max_connections = 1;
  DbServer server(&engine, *dir + "/db.sock", options);
  ASSERT_TRUE(server.Start().ok());

  auto first = SocketDbClient::Connect(server.socket_path());
  ASSERT_TRUE(first.ok());
  // A served round trip guarantees the first connection is registered.
  ASSERT_TRUE((*first)->Query("CREATE TABLE t (a INT)").ok());

  // The server pushes the refusal frame on accept and hangs up, so read it
  // straight off a raw connection (a concurrent request could race the
  // close and see EPIPE instead of the frame).
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  strcpy(addr.sun_path, server.socket_path().c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  auto frame = RecvFrame(fd);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto refused = DecodeResponse(*frame);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIOError);
  EXPECT_NE(refused.status().message().find("server overloaded"),
            std::string::npos);
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // then EOF
  ::close(fd);
  EXPECT_GE(server.rejected_connections(), 1);

  // The connection being served keeps working.
  EXPECT_TRUE((*first)->Query("SELECT count(*) FROM t").ok());
  server.Stop();
  ASSERT_TRUE(RemoveAll(*dir).ok());
}

TEST(EngineHandleTest, SerializesConcurrentClients) {
  Database db;
  EngineHandle engine(&db);
  LocalDbClient setup(&engine);
  ASSERT_TRUE(setup.Query("CREATE TABLE t (a INT)").ok());
  constexpr int kThreads = 8;
  constexpr int kInsertsEach = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&engine, &failures, i] {
      LocalDbClient client(&engine);
      for (int k = 0; k < kInsertsEach; ++k) {
        if (!client
                 .Query("INSERT INTO t VALUES (" +
                        std::to_string(i * 1000 + k) + ")")
                 .ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto count = setup.Query("SELECT count(*), sum(a) FROM t");
  ASSERT_TRUE(count.ok());
  // Row count and content both intact: the engine handle serialized every
  // statement, losing and duplicating none.
  EXPECT_EQ(count->rows[0][0].AsInt(), kThreads * kInsertsEach);
  int64_t expected_sum = 0;
  for (int i = 0; i < kThreads; ++i) {
    for (int k = 0; k < kInsertsEach; ++k) expected_sum += i * 1000 + k;
  }
  EXPECT_EQ(count->rows[0][1].AsInt(), expected_sum);
}

/// Fake client that fails every request with a fixed status, counting calls
/// — proves what the retry layer does and does not re-run.
class FailingDbClient final : public DbClient {
 public:
  explicit FailingDbClient(Status status) : status_(std::move(status)) {}
  Result<exec::ResultSet> Execute(const DbRequest&) override {
    ++calls_;
    return status_;
  }
  int calls() const { return calls_; }

 private:
  Status status_;
  int calls_ = 0;
};

TEST(RetryingDbClientTest, GovernanceVerdictsAreNotRetried) {
  // A cancelled statement must not be transparently re-run: the retry would
  // resurrect exactly the work the governor killed. Same for expired
  // deadlines and blown memory budgets.
  const Status verdicts[] = {Status::Cancelled("killed"),
                             Status::DeadlineExceeded("too slow"),
                             Status::ResourceExhausted("over budget")};
  for (const Status& verdict : verdicts) {
    EXPECT_FALSE(RetryingDbClient::IsRetryable(verdict)) << verdict.ToString();
    auto failing = std::make_unique<FailingDbClient>(verdict);
    FailingDbClient* raw = failing.get();
    RetryingDbClient client(std::move(failing), nullptr, {});
    auto result = client.Query("SELECT 1");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), verdict.code());
    EXPECT_EQ(raw->calls(), 1);  // executed once, never re-run
  }
  // Transport errors stay retryable (the pre-existing contract).
  EXPECT_TRUE(RetryingDbClient::IsRetryable(Status::IOError("socket reset")));
}

TEST(SocketDbClientTest, ConnectFailure) {
  EXPECT_FALSE(SocketDbClient::Connect("/nonexistent/path.sock").ok());
}

TEST(SocketDbClientTest, MovedFromClientReportsClosed) {
  auto dir = MakeTempDir("ldv_move_");
  ASSERT_TRUE(dir.ok());
  Database db;
  EngineHandle engine(&db);
  DbServer server(&engine, *dir + "/db.sock");
  ASSERT_TRUE(server.Start().ok());
  auto client = SocketDbClient::Connect(server.socket_path());
  ASSERT_TRUE(client.ok());
  SocketDbClient moved = std::move(**client);
  EXPECT_TRUE(moved.Query("CREATE TABLE t (a INT)").ok());
  auto from_husk = (*client)->Query("SELECT 1");
  ASSERT_FALSE(from_husk.ok());
  EXPECT_EQ(from_husk.status().code(), StatusCode::kIOError);
  moved.Close();
  moved.Close();  // idempotent
  EXPECT_FALSE(moved.Query("SELECT 1").ok());
  server.Stop();
  ASSERT_TRUE(RemoveAll(*dir).ok());
}

// ---------------------------------------------------------------------------
// Shipping provenance values once per session (DESIGN.md §17).
// ---------------------------------------------------------------------------

/// What an auditor learns from a stream of provenance answers on one or
/// more connections: the first values received per tuple version. A record
/// without values must name a version received before.
struct ReceivedValues {
  std::map<std::string, storage::Tuple> values;  // vid -> first values
  int64_t with_values = 0;
  int64_t without_values = 0;
  std::vector<std::string> unknown_elided;
  std::vector<std::string> received_twice;

  void Take(const exec::ResultSet& answer) {
    for (const exec::ProvTupleRecord& rec : answer.prov_tuples) {
      const std::string vid = rec.vid.ToString();
      if (rec.values.empty()) {
        ++without_values;
        if (!values.contains(vid)) unknown_elided.push_back(vid);
        continue;
      }
      ++with_values;
      if (!values.emplace(vid, rec.values).second) {
        received_twice.push_back(vid);
      }
    }
  }
};

/// The auditing client's request: PROVENANCE with the elision bit.
DbRequest ElidedRequest(const std::string& sql, int64_t query_id) {
  DbRequest request;
  request.sql = sql;
  request.process_id = 11;
  request.query_id = query_id;
  request.elide_shipped_values = true;
  return request;
}

class NetShippedValuesTest : public DbServerTest {
 protected:
  void SetUp() override {
    DbServerTest::SetUp();
    auto setup = SocketDbClient::Connect(server_->socket_path());
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE((*setup)->Query("CREATE TABLE t (a INT, b TEXT)").ok());
    ASSERT_TRUE((*setup)
                    ->Query("INSERT INTO t VALUES (1, 'x'), (2, 'y'), "
                            "(3, 'z'), (4, 'w')")
                    .ok());
  }

  std::unique_ptr<SocketDbClient> Connect() {
    auto client = SocketDbClient::Connect(server_->socket_path());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  int64_t next_query_id_ = 0;
};

TEST(ProtocolTest, ElisionBitRoundTripsAndIsAbsentWhenUnset) {
  DbRequest request;
  request.sql = "PROVENANCE SELECT * FROM t";
  const std::string plain = EncodeRequest(request);
  auto decoded = DecodeRequest(plain);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->elide_shipped_values);
  // Unset, the frame keeps the bytes it had before the bit existed (so do
  // recorded replay logs).
  request.elide_shipped_values = true;
  const std::string elided = EncodeRequest(request);
  EXPECT_EQ(elided.size(), plain.size() + 1);
  EXPECT_EQ(elided.substr(0, plain.size()), plain);
  decoded = DecodeRequest(elided);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->elide_shipped_values);
}

TEST_F(NetShippedValuesTest, RepeatedVersionsComeBackWithoutValues) {
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  const std::string sql = "PROVENANCE SELECT b FROM t WHERE a >= 2";
  ReceivedValues received;
  auto first = client->Execute(ElidedRequest(sql, ++next_query_id_));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->prov_tuples.size(), 3u);
  for (const exec::ProvTupleRecord& rec : first->prov_tuples) {
    EXPECT_EQ(rec.table, "t");
    EXPECT_EQ(rec.values.size(), 2u);
  }
  received.Take(*first);

  // Same versions again: vids and tables only. Rows and lineage unchanged.
  auto second = client->Execute(ElidedRequest(sql, ++next_query_id_));
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->prov_tuples.size(), 3u);
  for (const exec::ProvTupleRecord& rec : second->prov_tuples) {
    EXPECT_EQ(rec.table, "t");
    EXPECT_TRUE(rec.values.empty()) << rec.vid.ToString();
  }
  EXPECT_EQ(second->rows, first->rows);
  EXPECT_EQ(second->lineage, first->lineage);
  received.Take(*second);

  // An UPDATE creates a new version of row 3: only it carries values next.
  ASSERT_TRUE(client->Query("UPDATE t SET b = 'v' WHERE a = 3").ok());
  auto third = client->Execute(ElidedRequest(sql, ++next_query_id_));
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(third->prov_tuples.size(), 3u);
  int with_values = 0;
  for (const exec::ProvTupleRecord& rec : third->prov_tuples) {
    if (rec.values.empty()) continue;
    ++with_values;
    EXPECT_EQ(rec.values[1].AsString(), "v");
  }
  EXPECT_EQ(with_values, 1);
  received.Take(*third);
  EXPECT_TRUE(received.unknown_elided.empty());
  EXPECT_TRUE(received.received_twice.empty());
  EXPECT_EQ(received.values.size(), 4u);
}

TEST_F(NetShippedValuesTest, ReconnectGetsEveryValueAgain) {
  const std::string sql = "PROVENANCE SELECT a FROM t";
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Execute(ElidedRequest(sql, ++next_query_id_)).ok());
  client->Close();
  client = Connect();
  ASSERT_NE(client, nullptr);
  auto again = client->Execute(ElidedRequest(sql, ++next_query_id_));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->prov_tuples.size(), 4u);
  for (const exec::ProvTupleRecord& rec : again->prov_tuples) {
    EXPECT_EQ(rec.values.size(), 2u) << rec.vid.ToString();
  }
}

TEST_F(NetShippedValuesTest, AnswersWithoutTheBitAreUnchanged) {
  const std::string sql = "PROVENANCE SELECT a, b FROM t WHERE a <> 2";
  DbRequest plain;
  plain.sql = sql;
  plain.process_id = 11;
  plain.query_id = 500;
  // The in-process engine never saw the bit: the reference answer.
  auto reference = engine_->Execute(plain);
  ASSERT_TRUE(reference.ok());
  const std::string want = EncodeResponse(Status::Ok(), *reference);

  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Execute(ElidedRequest(sql, ++next_query_id_)).ok());
  // The session has been sent every value, yet a request without the bit
  // gets them all, byte for byte as before.
  auto answer = client->Execute(plain);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(EncodeResponse(Status::Ok(), *answer), want);
  for (const exec::ProvTupleRecord& rec : answer->prov_tuples) {
    EXPECT_EQ(rec.values.size(), 2u);
  }
}

/// A connection driven frame by frame, so that a test can drop an answer
/// or hang up with a request in flight.
class RawSession {
 public:
  explicit RawSession(const std::string& path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
    }
  }
  ~RawSession() { Close(); }

  bool connected() const { return fd_ >= 0; }
  Status Send(const DbRequest& request) {
    return SendFrame(fd_, EncodeRequest(request));
  }
  Result<exec::ResultSet> Receive() {
    LDV_ASSIGN_OR_RETURN(std::string frame, RecvFrame(fd_));
    return DecodeResponse(frame);
  }
  Result<exec::ResultSet> Execute(const DbRequest& request) {
    LDV_RETURN_IF_ERROR(Send(request));
    return Receive();
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
};

TEST_F(NetShippedValuesTest, DedupReplayOnANewConnectionLosesNoValues) {
  ReceivedValues received;
  RawSession lost_session(server_->socket_path());
  ASSERT_TRUE(lost_session.connected());
  auto first = lost_session.Execute(
      ElidedRequest("PROVENANCE SELECT b FROM t WHERE a <= 2", 1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  received.Take(*first);

  // The next answer is produced, recorded for dedup and sent, then lost:
  // the client drops it and the connection.
  const DbRequest lost = ElidedRequest("PROVENANCE SELECT b FROM t", 2);
  ASSERT_TRUE(lost_session.Send(lost).ok());
  ASSERT_TRUE(lost_session.Receive().ok());
  lost_session.Close();

  // The retry on a new connection is answered from the dedup cache. That
  // answer elides what the lost session had been sent, which the client
  // holds, and carries the rest.
  const int64_t deduped = server_->deduped_requests();
  auto retry = Connect();
  ASSERT_NE(retry, nullptr);
  auto replayed = retry->Execute(lost);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(server_->deduped_requests(), deduped + 1);
  received.Take(*replayed);
  EXPECT_EQ(received.without_values, 2);
  EXPECT_TRUE(received.unknown_elided.empty());
  EXPECT_EQ(received.values.size(), 4u);

  // The new connection's own session was sent nothing: a fresh statement
  // carries every value again.
  auto fresh = retry->Execute(ElidedRequest("PROVENANCE SELECT b FROM t", 3));
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(fresh->prov_tuples.size(), 4u);
  for (const exec::ProvTupleRecord& rec : fresh->prov_tuples) {
    EXPECT_FALSE(rec.values.empty()) << rec.vid.ToString();
  }
}

TEST_F(NetShippedValuesTest, ConcurrentSessionsReceiveEveryValueOnce) {
  // 8 sessions read the table under provenance while half of them also
  // update rows (new versions) and one hangs up midway with a request in
  // flight. Every surviving session must receive each version's values
  // exactly once, and never an elision of a version it was not sent.
  constexpr int kSessions = 8;
  constexpr int kRounds = 12;
  constexpr int kDropper = 3;
  std::vector<ReceivedValues> received(kSessions);
  std::vector<std::string> errors(kSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      RawSession session(server_->socket_path());
      if (!session.connected()) {
        errors[s] = "connect failed";
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        DbRequest request = ElidedRequest("PROVENANCE SELECT * FROM t",
                                          round + 1);
        request.process_id = 100 + s;
        if (s == kDropper && round == kRounds / 2) {
          (void)session.Send(request);
          session.Close();
          return;
        }
        if (s % 2 == 0 && round % 3 == 1) {
          DbRequest update;
          update.sql = StrFormat("UPDATE t SET b = 's%d r%d' WHERE a = %d", s,
                                 round, 1 + (s / 2 + round) % 4);
          auto updated = session.Execute(update);
          if (!updated.ok()) {
            errors[s] = updated.status().ToString();
            return;
          }
        }
        auto answer = session.Execute(request);
        if (!answer.ok()) {
          errors[s] = answer.status().ToString();
          return;
        }
        if (answer->prov_tuples.size() != 4) {
          errors[s] = "expected 4 provenance records";
          return;
        }
        received[s].Take(*answer);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int s = 0; s < kSessions; ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    EXPECT_EQ(errors[s], "");
    if (s == kDropper) continue;
    EXPECT_TRUE(received[s].unknown_elided.empty());
    EXPECT_TRUE(received[s].received_twice.empty());
    EXPECT_EQ(received[s].with_values + received[s].without_values,
              4 * kRounds);
    EXPECT_GE(received[s].without_values, 1);
  }
}

/// A backend that answers every request with one provenance record whose
/// values are missing, for a tuple the auditor was never sent: what a
/// server with a stale shipped-values set would produce.
class ForgedElisionServer {
 public:
  explicit ForgedElisionServer(std::string path) : path_(std::move(path)) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    thread_ = std::thread([this] { Serve(); });
  }
  ~ForgedElisionServer() {
    thread_.join();
    ::close(listen_fd_);
  }

 private:
  void Serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    while (true) {
      Result<std::string> frame = RecvFrame(fd);
      if (!frame.ok()) break;
      exec::ResultSet answer;
      answer.schema = storage::Schema({{"a", storage::ValueType::kInt64}});
      answer.rows.push_back({Value::Int(1)});
      answer.affected = 1;
      answer.has_provenance = true;
      const storage::TupleVid vid{0, 7, 3};
      answer.lineage.push_back({vid});
      exec::ProvTupleRecord rec;
      rec.vid = vid;
      rec.table = "t";
      answer.prov_tuples.push_back(rec);
      if (!SendFrame(fd, EncodeResponse(Status::Ok(), answer)).ok()) break;
    }
    ::close(fd);
  }

  std::string path_;
  int listen_fd_ = -1;
  std::thread thread_;
};

TEST(NetForgedElisionTest, AuditFailsNamingTheTuple) {
  auto dir = MakeTempDir("ldv_forged_");
  ASSERT_TRUE(dir.ok());
  Database db;
  ASSERT_TRUE(db.CreateTable("t", storage::Schema(
                                      {{"a", storage::ValueType::kInt64}}))
                  .ok());
  Result<AuditReport> report = Status::Internal("not run");
  {
    ForgedElisionServer server(*dir + "/forged.sock");
    AuditOptions options;
    options.mode = PackageMode::kServerIncluded;
    options.package_dir = *dir + "/pkg";
    options.sandbox_root = *dir;
    options.db_socket_path = *dir + "/forged.sock";
    Auditor auditor(&db, options);
    report = auditor.Run([](AppEnv& env) -> Status {
      LDV_ASSIGN_OR_RETURN(net::DbClient * client,
                           env.OpenDbConnection(env.root_process()));
      return client->Query("SELECT a FROM t").status();
    });
  }
  ASSERT_TRUE(RemoveAll(*dir).ok());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("tuple t rowid 7 version 3"),
            std::string::npos)
      << report.status().ToString();
}

}  // namespace
}  // namespace ldv::net
