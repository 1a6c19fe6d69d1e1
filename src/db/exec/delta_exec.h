// Delta-union query execution: one query answered over a base table (via
// the compiled plan the serving path hands in or, with no plan, the seed
// Type-rank executor the reference oracle uses) PLUS a row-major DeltaStore
// riding on it.
//
//   base rows   index/plan-driven, then tombstoned base rows masked out
//   delta rows  row-at-a-time scan with the seed value semantics
//               (db/row_match.h), tombstoned slots skipped, ids offset to
//               base_rows + slot
//   finally     global superlative sort + answer cap, once, with the seed
//               §4.3 step-4 semantics over the combined id space
//
// The invariant: for any query, the answer equals what the same query would
// return against a single table holding exactly the live rows (the
// compaction differential tests pin this at the record level, and byte-
// identically after compaction).
#ifndef CQADS_DB_EXEC_DELTA_EXEC_H_
#define CQADS_DB_EXEC_DELTA_EXEC_H_

#include <cstddef>

#include "common/deadline.h"
#include "common/status.h"
#include "db/exec/plan.h"
#include "db/executor.h"
#include "db/storage/delta_store.h"
#include "db/table.h"

namespace cqads::db::exec {

/// How the base table's raw (uncapped, pre-superlative) row set is
/// produced: through `plan` when set, the seed executor otherwise.
struct BaseRowSource {
  const PhysicalPlan* plan = nullptr;
  /// Checked per delta-scan chunk; the default never expires.
  Deadline deadline;
};

/// Cell of a global row id: a base-table cell or a delta record's value.
/// `delta` may be null (global ids then never exceed the base).
const Value& HybridCell(const Table& base, const DeltaStore* delta, RowId row,
                        std::size_t attr);

/// Executes `query` over base ∪ delta as described above. `query.limit`
/// caps the COMBINED result; any limit baked into the source plans is
/// ignored (raw row sets are fetched). Works with an empty delta too, but
/// callers should prefer the direct plan paths then — this function always
/// pays the merge.
Result<QueryResult> ExecuteHybrid(const Table& base, const DeltaStore& delta,
                                  const Query& query,
                                  const BaseRowSource& source);

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_DELTA_EXEC_H_
