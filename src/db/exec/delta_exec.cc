#include "db/exec/delta_exec.h"

#include <algorithm>

#include "db/exec/rowset_ops.h"
#include "db/row_match.h"

namespace cqads::db::exec {

const Value& HybridCell(const Table& base, const DeltaStore* delta, RowId row,
                        std::size_t attr) {
  if (row < base.num_rows()) return base.cell(row, attr);
  return delta->cell(row, attr);
}

Result<QueryResult> ExecuteHybrid(const Table& base, const DeltaStore& delta,
                                  const Query& query,
                                  const BaseRowSource& source) {
  QueryResult result;
  const std::size_t base_rows = base.num_rows();

  // 1. Base rows through the given plan (the seed executor without one),
  //    uncapped and unsorted (plain ascending RowIds).
  RowSet rows;
  if (source.plan != nullptr) {
    auto r = source.plan->ExecuteRowSet(&result.stats);
    if (!r.ok()) return r.status();
    rows = std::move(r).value();
  } else {
    // Seed Type-rank executor. Execute() with the superlative and cap
    // stripped returns exactly the raw constraint row set (ascending).
    Query raw = query;
    raw.superlative = std::nullopt;
    raw.limit = base_rows;
    auto r = Executor(&base).Execute(raw);
    if (!r.ok()) return r.status();
    result.stats += r.value().stats;
    rows = std::move(r).value().rows;
  }

  // 2. Mask tombstoned base rows.
  if (!delta.retired_base().empty()) {
    rows = DifferenceSets(rows, delta.retired_base(), base_rows);
  }

  // 3. Scan the live delta rows with the seed row-at-a-time semantics. The
  //    deadline is re-checked every chunk so an expired request abandons a
  //    large delta within a few hundred row probes.
  constexpr std::size_t kCancelCheckRows = 256;
  const Schema& schema = base.schema();
  std::size_t scanned = 0;
  for (std::size_t i = 0; i < delta.num_rows(); ++i) {
    if (i % kCancelCheckRows == 0 && source.deadline.expired()) {
      return Status::DeadlineExceeded("delta scan cancelled");
    }
    if (delta.delta_retired(i)) continue;
    ++scanned;
    if (query.where == nullptr ||
        RecordMatchesExpr(schema, delta.record(i), *query.where)) {
      rows.push_back(static_cast<RowId>(base_rows + i));
    }
  }
  result.stats.rows_verified += scanned;
  if (delta.live_delta_rows() > 0) ++result.stats.full_scans;

  // 4. Global §4.3 step 4: superlative over the combined id space, stable
  //    ties by global id, then the cap.
  ApplySuperlativeAndCap(&rows, query.superlative,
                         [&](RowId r, std::size_t a) -> const Value& {
                           return HybridCell(base, &delta, r, a);
                         },
                         query.limit);
  result.rows = std::move(rows);
  return result;
}

}  // namespace cqads::db::exec
