#include "storage/wal.h"

#include <fcntl.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "common/fault.h"
#include "common/logging.h"
#include "util/crc32.h"
#include "util/fsutil.h"
#include "util/serde.h"
#include "util/strings.h"

namespace ldv::storage {

namespace {

/// First 8 bytes of every segment file.
constexpr char kSegmentMagic[8] = {'L', 'D', 'V', 'W', 'A', 'L', '1', '\n'};

/// A single record (one SQL statement plus framing) above this is treated as
/// corruption rather than an allocation request. Matches the transport's
/// frame cap.
constexpr uint64_t kMaxRecordBytes = 64ull << 20;

std::string SegmentFileName(int64_t index) {
  return StrFormat("wal-%08lld.log", static_cast<long long>(index));
}

Status WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wal write: ") + strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

void PutU32At(std::string* buf, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*buf)[pos + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

uint32_t ReadU32(std::string_view bytes, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(
             static_cast<unsigned char>(bytes[pos + static_cast<size_t>(i)]))
         << (8 * i);
  }
  return v;
}

/// Decodes the record frame at `pos`. Returns "" and sets *record and
/// *frame_len on success; otherwise returns a damage description.
std::string ParseRecordFrame(std::string_view bytes, size_t pos,
                             WalRecord* record, size_t* frame_len) {
  if (bytes.size() - pos < 8) {
    return StrFormat("truncated frame header at offset %zu", pos);
  }
  const uint64_t len = ReadU32(bytes, pos);
  const uint32_t stored_crc = ReadU32(bytes, pos + 4);
  if (len > kMaxRecordBytes) {
    return StrFormat("implausible record length %llu at offset %zu",
                     static_cast<unsigned long long>(len), pos);
  }
  if (bytes.size() - pos - 8 < len) {
    return StrFormat("torn record at offset %zu (%llu byte payload, "
                     "%zu bytes remain)",
                     pos, static_cast<unsigned long long>(len),
                     bytes.size() - pos - 8);
  }
  std::string_view body(bytes.data() + pos + 8, len);
  if (Crc32(body) != stored_crc) {
    return StrFormat("checksum mismatch at offset %zu", pos);
  }
  BufferReader reader(body);
  auto parse = [&]() -> Status {
    LDV_ASSIGN_OR_RETURN(uint64_t lsn, reader.GetU64());
    record->lsn = lsn;
    LDV_ASSIGN_OR_RETURN(uint8_t kind, reader.GetU8());
    if (kind < static_cast<uint8_t>(WalRecordKind::kBegin) ||
        kind > static_cast<uint8_t>(WalRecordKind::kCommit)) {
      return Status::IOError("unknown record kind");
    }
    record->kind = static_cast<WalRecordKind>(kind);
    LDV_ASSIGN_OR_RETURN(record->txn_id, reader.GetVarint());
    if (record->kind == WalRecordKind::kOp) {
      LDV_ASSIGN_OR_RETURN(record->op.stmt_seq_before, reader.GetVarint());
      LDV_ASSIGN_OR_RETURN(record->op.sql, reader.GetString());
    }
    return Status::Ok();
  };
  if (Status parsed = parse(); !parsed.ok()) {
    return StrFormat("undecodable record at offset %zu: %s", pos,
                     parsed.message().c_str());
  }
  *frame_len = 8 + static_cast<size_t>(len);
  return "";
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  BufferWriter payload;
  payload.PutU64(record.lsn);
  payload.PutU8(static_cast<uint8_t>(record.kind));
  payload.PutVarint(record.txn_id);
  if (record.kind == WalRecordKind::kOp) {
    payload.PutVarint(record.op.stmt_seq_before);
    payload.PutString(record.op.sql);
  }
  const std::string& body = payload.data();
  std::string frame(8, '\0');
  PutU32At(&frame, 0, static_cast<uint32_t>(body.size()));
  PutU32At(&frame, 4, Crc32(body));
  frame.append(body);
  return frame;
}

Result<WalSegmentScan> ScanWalSegment(const std::string& path) {
  Result<std::string> read = ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string& bytes = *read;
  WalSegmentScan scan;
  scan.file_bytes = bytes.size();
  if (bytes.size() < sizeof(kSegmentMagic) ||
      memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Status::IOError("wal segment " + path +
                           ": missing or bad segment header");
  }
  size_t pos = sizeof(kSegmentMagic);
  scan.valid_bytes = pos;
  while (pos < bytes.size()) {
    WalRecord record;
    size_t frame_len = 0;
    scan.damage = ParseRecordFrame(bytes, pos, &record, &frame_len);
    if (!scan.damage.empty()) return scan;
    scan.records.push_back(std::move(record));
    pos += frame_len;
    scan.valid_bytes = pos;
  }
  return scan;
}

Result<std::vector<WalRecord>> DecodeWalRecords(std::string_view bytes) {
  std::vector<WalRecord> records;
  size_t pos = 0;
  while (pos < bytes.size()) {
    WalRecord record;
    size_t frame_len = 0;
    std::string damage = ParseRecordFrame(bytes, pos, &record, &frame_len);
    if (!damage.empty()) {
      return Status::IOError("wal record batch: " + damage);
    }
    records.push_back(std::move(record));
    pos += frame_len;
  }
  return records;
}

int64_t WalSegmentIndex(const std::string& file_name) {
  if (file_name.size() != 16 || file_name.rfind("wal-", 0) != 0 ||
      file_name.substr(12) != ".log") {
    return -1;
  }
  int64_t index = 0;
  for (size_t i = 4; i < 12; ++i) {
    char c = file_name[i];
    if (c < '0' || c > '9') return -1;
    index = index * 10 + (c - '0');
  }
  return index;
}

Result<std::vector<std::string>> ListWalSegments(const std::string& dir) {
  std::vector<std::string> segments;
  if (!DirExists(dir)) return segments;
  LDV_ASSIGN_OR_RETURN(std::vector<std::string> files, ListTree(dir));
  for (const std::string& file : files) {
    if (WalSegmentIndex(file) >= 0) {
      segments.push_back(file);
    } else {
      // A stray file must not poison segment ordering, but it is almost
      // certainly operator error (or litter from a bad copy) — be loud.
      LDV_LOG(Warning) << "wal dir " << dir << ": ignoring non-segment file '"
                       << file << "'";
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const std::string& a, const std::string& b) {
              return WalSegmentIndex(a) < WalSegmentIndex(b);
            });
  return segments;
}

Result<WalSyncMode> ParseWalSyncMode(std::string_view name) {
  if (name == "fsync") return WalSyncMode::kFsync;
  if (name == "fdatasync") return WalSyncMode::kFdatasync;
  if (name == "none") return WalSyncMode::kNone;
  return Status::InvalidArgument("unknown sync mode '" + std::string(name) +
                                 "' (want fsync|fdatasync|none)");
}

Wal::Wal(std::string dir, const WalOptions& options, uint64_t next_lsn)
    : dir_(std::move(dir)),
      options_(options),
      next_lsn_(next_lsn == 0 ? 1 : next_lsn),
      // The log sequence continues from recovery: everything before
      // next_lsn_ is already durably appended (replication standbys resume
      // their stream from here), and so is trivially "synced" — there is
      // nothing buffered for Sync() to wait on.
      appended_lsn_(next_lsn_ - 1),
      synced_lsn_(next_lsn_ - 1) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  commits_ = reg.counter("wal.commits");
  append_bytes_ = reg.counter("wal.append_bytes");
  syncs_ = reg.counter("wal.syncs");
  piggybacked_syncs_ = reg.counter("wal.piggybacked_syncs");
}

Wal::~Wal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    if (options_.sync_mode != WalSyncMode::kNone) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                       const WalOptions& options,
                                       uint64_t next_lsn) {
  LDV_RETURN_IF_ERROR(MakeDirs(dir));
  LDV_ASSIGN_OR_RETURN(std::vector<std::string> segments, ListWalSegments(dir));
  int64_t next_index = 1;
  if (!segments.empty()) {
    next_index = WalSegmentIndex(segments.back()) + 1;
  }
  std::unique_ptr<Wal> wal(new Wal(dir, options, next_lsn));
  std::lock_guard<std::mutex> lock(wal->mu_);
  LDV_RETURN_IF_ERROR(wal->OpenSegmentLocked(next_index));
  return wal;
}

Status Wal::OpenSegmentLocked(int64_t index) {
  const std::string path = JoinPath(dir_, SegmentFileName(index));
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  Status header = WriteAll(fd, kSegmentMagic, sizeof(kSegmentMagic));
  if (!header.ok()) {
    ::close(fd);
    ::unlink(path.c_str());
    return header;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  segment_index_ = index;
  segment_bytes_ = sizeof(kSegmentMagic);
  return Status::Ok();
}

int64_t Wal::segment_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_index_;
}

uint64_t Wal::last_appended_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_lsn_;
}

Result<uint64_t> Wal::AppendCommit(int64_t txn_id,
                                   const std::vector<WalOp>& ops) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::IOError("wal is broken after a failed partial write");
  }
  std::string group;
  WalRecord begin;
  begin.lsn = next_lsn_++;
  begin.kind = WalRecordKind::kBegin;
  begin.txn_id = txn_id;
  group += EncodeWalRecord(begin);
  for (const WalOp& op : ops) {
    WalRecord rec;
    rec.lsn = next_lsn_++;
    rec.kind = WalRecordKind::kOp;
    rec.txn_id = txn_id;
    rec.op = op;
    group += EncodeWalRecord(rec);
  }
  WalRecord commit;
  commit.lsn = next_lsn_++;
  commit.kind = WalRecordKind::kCommit;
  commit.txn_id = txn_id;
  group += EncodeWalRecord(commit);

  // A crash at `wal.append` loses the whole (unacknowledged) group; a crash
  // at `wal.tear` leaves a genuinely torn record for recovery to truncate.
  // Error-mode injections (and real write failures) roll the segment back to
  // the group start so later groups still land on a record boundary.
  const uint64_t group_start = segment_bytes_;
  auto unwind = [&](Status status) -> Status {
    if (::ftruncate(fd_, static_cast<off_t>(group_start)) != 0) {
      broken_ = true;
      return Status::IOError(status.message() +
                             " (and truncating the torn group failed: " +
                             strerror(errno) + ")");
    }
    return status;
  };
  if (Status s = CheckFault("wal.append"); !s.ok()) return s;
  const size_t half = group.size() / 2;
  if (Status s = WriteAll(fd_, group.data(), half); !s.ok()) {
    return unwind(s);
  }
  if (Status s = CheckFault("wal.tear"); !s.ok()) return unwind(s);
  if (Status s = WriteAll(fd_, group.data() + half, group.size() - half);
      !s.ok()) {
    return unwind(s);
  }
  segment_bytes_ += group.size();
  appended_lsn_ = commit.lsn;
  commits_->Add(1);
  append_bytes_->Add(static_cast<int64_t>(group.size()));
  if (commit_sink_) commit_sink_(begin.lsn, commit.lsn, group);
  return commit.lsn;
}

Status Wal::AppendRaw(std::string_view frames, uint64_t first_lsn,
                      uint64_t last_lsn) {
  if (frames.empty() || last_lsn < first_lsn) {
    return Status::InvalidArgument("wal raw append: empty or inverted batch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::IOError("wal is broken after a failed partial write");
  }
  if (first_lsn != next_lsn_) {
    return Status::InvalidArgument(StrFormat(
        "wal raw append: batch starts at lsn %llu, expected %llu",
        static_cast<unsigned long long>(first_lsn),
        static_cast<unsigned long long>(next_lsn_)));
  }
  const uint64_t group_start = segment_bytes_;
  if (Status s = WriteAll(fd_, frames.data(), frames.size()); !s.ok()) {
    if (::ftruncate(fd_, static_cast<off_t>(group_start)) != 0) {
      broken_ = true;
      return Status::IOError(s.message() +
                             " (and truncating the torn group failed: " +
                             strerror(errno) + ")");
    }
    return s;
  }
  segment_bytes_ += frames.size();
  next_lsn_ = last_lsn + 1;
  appended_lsn_ = last_lsn;
  commits_->Add(1);
  append_bytes_->Add(static_cast<int64_t>(frames.size()));
  if (commit_sink_) commit_sink_(first_lsn, last_lsn, frames);
  return Status::Ok();
}

void Wal::set_commit_sink(CommitSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  commit_sink_ = std::move(sink);
}

Status Wal::SyncFd() {
  LDV_FAULT_POINT("wal.fsync");
  int rc = options_.sync_mode == WalSyncMode::kFdatasync ? ::fdatasync(fd_)
                                                         : ::fsync(fd_);
  if (rc != 0) {
    return Status::IOError(std::string("wal fsync: ") + strerror(errno));
  }
  return Status::Ok();
}

Status Wal::Sync(uint64_t lsn) {
  if (options_.sync_mode == WalSyncMode::kNone) return Status::Ok();
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (synced_lsn_ >= lsn) {
      // Another committer's fsync already covered this group.
      piggybacked_syncs_->Add(1);
      return Status::Ok();
    }
    if (!sync_in_progress_) break;
    sync_cv_.wait(lock);
  }
  // Leader: one syscall covers every group appended up to this moment. The
  // syscall runs with mu_ released so committers can keep appending behind
  // the in-flight fsync; fd_ stays valid because rotation waits for
  // sync_in_progress_ to clear.
  sync_in_progress_ = true;
  const uint64_t target = appended_lsn_;
  lock.unlock();
  Status synced = SyncFd();
  lock.lock();
  sync_in_progress_ = false;
  if (synced.ok()) synced_lsn_ = std::max(synced_lsn_, target);
  syncs_->Add(1);
  sync_cv_.notify_all();
  if (!synced.ok()) return synced;
  return synced_lsn_ >= lsn
             ? Status::Ok()
             : Status::IOError("wal sync raced a rotation; commit not durable");
}

Status Wal::Flush() {
  uint64_t target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target = appended_lsn_;
  }
  return Sync(target);
}

Status Wal::StartNewSegment() {
  std::unique_lock<std::mutex> lock(mu_);
  sync_cv_.wait(lock, [&] { return !sync_in_progress_; });
  if (options_.sync_mode != WalSyncMode::kNone) {
    LDV_RETURN_IF_ERROR(SyncFd());
    synced_lsn_ = std::max(synced_lsn_, appended_lsn_);
  }
  return OpenSegmentLocked(segment_index_ + 1);
}

Status Wal::RetireOldSegments(uint64_t min_keep_lsn) {
  int64_t current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current = segment_index_;
  }
  LDV_ASSIGN_OR_RETURN(std::vector<std::string> segments, ListWalSegments(dir_));
  for (const std::string& file : segments) {
    if (WalSegmentIndex(file) >= current) continue;
    if (min_keep_lsn != UINT64_MAX) {
      // A standby may still need this segment: keep it unless every record
      // in it is below the minimum acknowledged LSN.
      LDV_ASSIGN_OR_RETURN(WalSegmentScan scan,
                           ScanWalSegment(JoinPath(dir_, file)));
      if (!scan.records.empty() && scan.records.back().lsn >= min_keep_lsn) {
        continue;
      }
    }
    LDV_RETURN_IF_ERROR(RemoveAll(JoinPath(dir_, file)));
  }
  return Status::Ok();
}

}  // namespace ldv::storage
