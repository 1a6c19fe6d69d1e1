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
                                  const Query& query, const PhysicalPlan& plan,
                                  const Deadline& deadline) {
  QueryResult result;
  const std::size_t base_rows = base.num_rows();

  // 1. Base rows through the plan, uncapped and unsorted (plain ascending
  //    RowIds).
  auto base_set = plan.ExecuteRowSet(&result.stats);
  if (!base_set.ok()) return base_set.status();
  RowSet rows = std::move(base_set).value();

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
    if (i % kCancelCheckRows == 0 && deadline.expired()) {
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
