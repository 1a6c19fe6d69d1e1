// Delta-union query execution: one query answered over a base table
// (through the query's compiled plan) PLUS a row-major DeltaStore riding on
// it.
//
//   base rows   plan-driven, then tombstoned base rows masked out
//   delta rows  row-at-a-time scan with the seed value semantics
//               (db/row_match.h), tombstoned slots skipped, ids offset to
//               base_rows + slot
//   finally     global superlative sort + answer cap, once, with the seed
//               §4.3 step-4 semantics over the combined id space
//
// The invariant: for any query, the answer equals what the same query would
// return against a single table holding exactly the live rows (the
// compaction differential tests pin this at the record level, and byte-
// identically after compaction). The reference oracle (reference/) builds
// its own union over the seed executor's rows and is checked against this
// one on every parity gate.
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

/// Cell of a global row id: a base-table cell or a delta record's value.
/// `delta` may be null (global ids then never exceed the base).
const Value& HybridCell(const Table& base, const DeltaStore* delta, RowId row,
                        std::size_t attr);

/// Executes `query` over base ∪ delta as described above. `plan` is
/// `query` compiled over `base`; its raw (uncapped, pre-superlative) row
/// set is fetched, and `query.limit` caps the COMBINED result. `deadline`
/// is checked per delta-scan chunk; the default never expires. Works with
/// an empty delta too, but callers should prefer the plan alone then —
/// this function always pays the merge.
Result<QueryResult> ExecuteHybrid(const Table& base, const DeltaStore& delta,
                                  const Query& query,
                                  const PhysicalPlan& plan,
                                  const Deadline& deadline = Deadline());

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_DELTA_EXEC_H_
