#ifndef LDV_STORAGE_TABLE_H_
#define LDV_STORAGE_TABLE_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace ldv::storage {

/// Stable identifier of a row within a table; never reused.
using RowId = int64_t;

/// Identity of one tuple *version* — the unit of DB provenance in the P_Lin
/// model (paper §IV-D). An UPDATE creates a new version of the same rowid.
struct TupleVid {
  int32_t table_id = -1;
  RowId rowid = -1;
  int64_t version = 0;

  bool operator==(const TupleVid& other) const {
    return table_id == other.table_id && rowid == other.rowid &&
           version == other.version;
  }
  bool operator<(const TupleVid& other) const {
    if (table_id != other.table_id) return table_id < other.table_id;
    if (rowid != other.rowid) return rowid < other.rowid;
    return version < other.version;
  }

  std::string ToString() const;
};

struct TupleVidHash {
  size_t operator()(const TupleVid& v) const {
    uint64_t h = static_cast<uint64_t>(v.table_id) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<uint64_t>(v.rowid) + 0x9E3779B97F4A7C15ULL + (h << 6);
    h ^= static_cast<uint64_t>(v.version) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

/// One stored tuple version together with its provenance metadata
/// (the prov_rowid / prov_v / prov_usedby / prov_p attributes of §VII-B).
struct RowVersion {
  RowId rowid = -1;
  /// Statement sequence number of the statement that created this version.
  int64_t version = 0;
  /// Last query id that read this version under provenance auditing (0 =
  /// never).
  int64_t used_by_query = 0;
  /// Process id of that query's client (0 = never).
  int64_t used_by_process = 0;
  /// Statement sequence of the statement that replaced this version (set
  /// when it is archived; 0 while live). Monotone along the archive, which
  /// is what lets snapshot GC drop a prefix (DESIGN.md §12). Runtime-only:
  /// never persisted.
  int64_t superseded = 0;
  Tuple values;
  bool deleted = false;
};

/// Per-table state captured at BEGIN so an explicit transaction can be
/// rolled back. While the marks are held, version tracking is forced on, so
/// every superseded row version lands in the archive and can be restored.
struct TableTxnMark {
  size_t rows_size = 0;
  size_t archive_size = 0;
  RowId next_rowid = 1;
  int64_t live_count = 0;
  bool was_tracking = false;
};

/// A heap table: live rows plus (when provenance tracking is registered) an
/// archive of superseded versions, which reenactment uses to retrieve the
/// pre-state of UPDATE/DELETE statements.
class Table {
 public:
  Table(int32_t id, std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  int32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// When enabled, superseded versions of updated/deleted rows are kept in
  /// the archive. LDV registers every table the audited application touches
  /// (the analog of the prototype's schema extension on first access).
  void set_provenance_tracking(bool enabled) { track_versions_ = enabled; }
  bool provenance_tracking() const { return track_versions_; }

  /// MVCC retention (DESIGN.md §12): like provenance tracking, superseded
  /// versions are archived — but for snapshot readers rather than
  /// reenactment, so they are garbage-collected once no live snapshot can
  /// see them (GcArchive) instead of kept forever. The engine enables this
  /// on every table it serves; raw Table users (unit tests, WAL redo) keep
  /// the historical semantics of no archive without tracking.
  void set_mvcc_retention(bool enabled) { mvcc_retention_ = enabled; }
  bool mvcc_retention() const { return mvcc_retention_; }

  /// Highest statement sequence that mutated this table's rows (insert,
  /// update, delete). A snapshot at epoch >= this value sees exactly the
  /// live rows, so scans and index probes skip version resolution.
  int64_t last_mutation_seq() const { return last_mutation_seq_; }

  /// Resolves the version of `slot`'s row visible at `epoch`: the newest
  /// version created at or before the epoch. Returns the live slot itself,
  /// an archived pre-image, or nullptr when the row is invisible (created
  /// after the epoch, or a tombstone at it).
  const RowVersion* VisibleVersion(const RowVersion& slot,
                                   int64_t epoch) const;

  /// Drops the longest archive prefix no live snapshot can still need:
  /// entries superseded at or before `oldest_epoch`. No-op while provenance
  /// tracking is on (reenactment needs the full archive). Returns entries
  /// dropped. Caller must exclude concurrent readers (table write lock) and
  /// must not hold TableTxnMarks across the call (archive indices shift).
  size_t GcArchive(int64_t oldest_epoch);

  /// Inserts a row; `stmt_seq` becomes the version stamp. The tuple arity
  /// must match the schema.
  Result<RowId> Insert(Tuple values, int64_t stmt_seq);

  /// Replaces the values of `rowid`, bumping its version to `stmt_seq`.
  /// The previous version is archived when tracking is on.
  Status Update(RowId rowid, Tuple values, int64_t stmt_seq);

  /// Deletes `rowid`; the final version is archived when tracking is on.
  Status Delete(RowId rowid, int64_t stmt_seq);

  /// Live row lookup; nullptr when absent/deleted.
  const RowVersion* Find(RowId rowid) const;
  RowVersion* FindMutable(RowId rowid);

  /// All rows including tombstones; scans must skip `deleted`.
  const std::vector<RowVersion>& rows() const { return rows_; }
  /// Mutable row access for lineage-tracked scans, which stamp the
  /// prov_usedby / prov_p metadata of tuples they read.
  std::vector<RowVersion>& mutable_rows() { return rows_; }
  /// Superseded versions, oldest first.
  const std::vector<RowVersion>& archive() const { return archive_; }

  int64_t live_row_count() const { return live_count_; }
  RowId max_rowid() const { return next_rowid_ - 1; }

  /// Appends a column with `fill` for existing rows (ALTER TABLE ADD COLUMN).
  Status AddColumn(Column column, const Value& fill);

  /// Looks up a specific tuple version among live rows and the archive;
  /// nullptr when unknown.
  const RowVersion* FindVersion(RowId rowid, int64_t version) const;

  /// Restores a row with explicit identity (used when loading a package or a
  /// persisted database). Keeps next_rowid_ consistent.
  Status RestoreRow(RowVersion row);

  /// Approximate heap bytes of all live tuples (benchmark reporting).
  int64_t ApproxBytes() const;

  /// Transaction support. BeginTxnCapture marks the current state and forces
  /// version tracking so UPDATE/DELETE pre-images reach the archive;
  /// RollbackToMark restores exactly that state (values, tombstones, rowid
  /// allocation, archive, indexes); CommitTxnCapture keeps the new state and
  /// restores the tracking flag, dropping archive entries that only existed
  /// to make rollback possible. DDL between capture and resolution is the
  /// caller's responsibility to prevent.
  TableTxnMark BeginTxnCapture();
  void CommitTxnCapture(const TableTxnMark& mark);
  Status RollbackToMark(const TableTxnMark& mark);

  /// Creates a hash index over `column_index` for equality probes
  /// (CREATE INDEX). Existing rows are indexed; idempotent per column.
  Status CreateIndex(int column_index);
  bool HasIndexOn(int column_index) const;
  /// Live rowids whose value in `column_index` equals `v`, sorted.
  /// Requires an index on that column.
  std::vector<RowId> IndexLookup(int column_index, const Value& v) const;
  int num_indexes() const { return static_cast<int>(indexes_.size()); }

 private:
  /// (value hash, rowid) pairs, ordered: an UPDATE/DELETE removes its own
  /// entry directly, and a lookup reads its rowids already sorted.
  struct HashIndex {
    int column = -1;
    std::set<std::pair<uint64_t, RowId>> entries;
  };
  void IndexInsert(const RowVersion& row);
  void IndexRemove(const RowVersion& row);

  /// Archives the pre-image of `row` before an update/delete at `stmt_seq`
  /// when either retention mode wants it.
  void ArchivePreImage(const RowVersion& row, int64_t stmt_seq);

  int32_t id_;
  std::string name_;
  Schema schema_;
  bool track_versions_ = false;
  bool mvcc_retention_ = false;
  int64_t last_mutation_seq_ = 0;
  std::vector<RowVersion> rows_;
  std::vector<RowVersion> archive_;
  std::unordered_map<RowId, size_t> index_;  // rowid -> position in rows_
  std::vector<HashIndex> indexes_;
  int64_t live_count_ = 0;
  RowId next_rowid_ = 1;
};

}  // namespace ldv::storage

#endif  // LDV_STORAGE_TABLE_H_
