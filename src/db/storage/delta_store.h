// Row-major delta store for incremental ad ingestion. Between engine
// snapshots, InsertAd appends row-major Records here and RetireAd sets
// tombstones — no index rebuild, no column-store re-encode. Queries union
// the base table's (index-driven) result with a row-at-a-time scan of the
// live delta rows (db/row_match.h — the seed executor's value semantics),
// masking tombstoned base rows; a background compaction later merges the
// survivors into a fresh indexed table and the delta starts empty again.
//
// Global row ids: base-table rows keep their RowIds; delta row i is
// addressed as base_rows + i. Retired delta rows keep their slot (the ids
// of later delta rows stay stable); they are simply masked from scans.
//
// Thread-safety: a DeltaStore is mutable and externally synchronized (the
// engine's builder mutates it under the engine mutex). The hot path never
// sees this object — each snapshot publication freezes a copy
// (shared_ptr<const DeltaStore>) that is immutable thereafter, the same
// discipline as every other snapshot component. The copy shares the
// records, which never change after Insert.
#ifndef CQADS_DB_STORAGE_DELTA_STORE_H_
#define CQADS_DB_STORAGE_DELTA_STORE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "db/indexes.h"
#include "db/schema.h"
#include "db/storage/column_store.h"

namespace cqads::db {

class Table;

class DeltaStore {
 public:
  /// `base_rows` is the row count of the table this delta rides on; it
  /// fixes the global-id split point.
  DeltaStore(Schema schema, std::size_t base_rows)
      : schema_(std::move(schema)), base_rows_(base_rows) {}

  const Schema& schema() const { return schema_; }
  std::size_t base_rows() const { return base_rows_; }

  /// Delta rows appended so far, including retired slots.
  std::size_t num_rows() const { return rows_.size(); }

  /// Global row-id space the union query answers over.
  std::size_t total_rows() const { return base_rows_ + rows_.size(); }

  /// True when the delta changes nothing: no live or retired inserts, no
  /// masked base rows. Queries skip the hybrid path entirely.
  bool empty() const { return rows_.empty() && retired_base_.empty(); }

  /// Appends a record (validated against the schema). Returns the GLOBAL
  /// RowId (base_rows + local index).
  Result<RowId> Insert(Record record);

  /// Tombstones a global row id — a base row (masked from base results) or
  /// a delta row (masked from the delta scan). Retiring an already-retired
  /// row fails with NotFound.
  Status Retire(RowId global_row);

  /// The record of delta slot `i` (0-based local index).
  const Record& record(std::size_t i) const { return *rows_[i]; }

  bool delta_retired(std::size_t i) const { return retired_delta_[i] != 0; }

  /// Cell of a GLOBAL row id >= base_rows.
  const Value& cell(RowId global_row, std::size_t attr) const {
    return (*rows_[global_row - base_rows_])[attr];
  }

  /// Tombstoned base rows, sorted ascending (for DifferenceSets masking).
  const RowSet& retired_base() const { return retired_base_; }

  std::size_t live_delta_rows() const { return live_delta_rows_; }

  /// The merged record sequence a compaction (or a from-scratch rebuild)
  /// materializes: surviving base rows in RowId order, then surviving delta
  /// rows in insertion order. Appending exactly these records to an empty
  /// table reproduces the post-compaction RowIds — the answer-identity
  /// invariant the ingest tests pin.
  std::vector<Record> MergedRecords(const Table& base) const;

 private:
  Schema schema_;
  std::size_t base_rows_ = 0;
  /// Records are immutable once inserted, so a frozen copy shares them
  /// with the pending store: a publication copies pointers, not cells.
  std::vector<std::shared_ptr<const Record>> rows_;
  std::vector<char> retired_delta_;  ///< parallel to rows_, 1 = tombstoned
  RowSet retired_base_;              ///< sorted ascending
  std::size_t live_delta_rows_ = 0;
};

}  // namespace cqads::db

#endif  // CQADS_DB_STORAGE_DELTA_STORE_H_
