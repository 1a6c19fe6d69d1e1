#include "db/exec/parallel_plan.h"

#include <algorithm>
#include <utility>

#include "db/exec/rowset_ops.h"

namespace cqads::db::exec {

PartitionedPlan::PartitionedPlan(PartitionedTablePtr partitions,
                                 std::vector<PlanPtr> shards,
                                 std::optional<Superlative> superlative,
                                 std::size_t limit)
    : partitions_(std::move(partitions)),
      shards_(std::move(shards)),
      superlative_(superlative),
      limit_(limit) {}

Result<RowSet> PartitionedPlan::ExecuteRowSet(
    TaskRunner* runner, std::size_t parallelism, ExecStats* stats,
    const ExecControl* control) const {
  const std::size_t n = shards_.size();

  // Serial fast path: no morsel state, no per-shard slots — shards append
  // straight into the result (still globally sorted: shards tile in order).
  // The deadline is re-checked per shard, the same cancellation grain as
  // the morsel path below.
  if (runner == nullptr || parallelism <= 1 || n <= 1) {
    RowSet rows;
    for (std::size_t p = 0; p < n; ++p) {
      if (ExecControl::Expired(control)) {
        return Status::DeadlineExceeded("partitioned scan cancelled");
      }
      auto local = shards_[p]->ExecuteRowSet(stats);
      if (!local.ok()) return local.status();
      const RowId base = partitions_->base_of(p);
      for (RowId r : local.value()) rows.push_back(base + r);
    }
    return rows;
  }

  // Per-morsel result slots: distinct indices, no synchronization needed
  // beyond RunMorsels' completion barrier.
  std::vector<RowSet> slots(n);
  std::vector<ExecStats> slot_stats(n);
  std::vector<Status> slot_status(n, Status::OK());

  const bool complete =
      RunMorsels(n, parallelism, runner, [&](std::size_t p) {
        auto local = shards_[p]->ExecuteRowSet(&slot_stats[p]);
        if (!local.ok()) {
          slot_status[p] = local.status();
          return;
        }
        const RowId base = partitions_->base_of(p);
        RowSet& out = slots[p];
        out = std::move(local).value();
        for (RowId& r : out) r += base;
      }, control);
  if (!complete) {
    // Partial shard coverage is not an answer; the deadline outcome
    // replaces it (the caller never sees a silently truncated row set).
    return Status::DeadlineExceeded("partitioned scan cancelled");
  }

  RowSet rows;
  std::size_t total = 0;
  for (const auto& s : slots) total += s.size();
  rows.reserve(total);
  for (std::size_t p = 0; p < n; ++p) {
    if (!slot_status[p].ok()) return slot_status[p];
    *stats += slot_stats[p];
    // Partitions tile the table in order: concatenation preserves global
    // sorted order.
    rows.insert(rows.end(), slots[p].begin(), slots[p].end());
  }
  return rows;
}

Result<QueryResult> PartitionedPlan::Execute(TaskRunner* runner,
                                             std::size_t parallelism,
                                             const ExecControl* control) const {
  QueryResult result;
  auto row_result = ExecuteRowSet(runner, parallelism, &result.stats, control);
  if (!row_result.ok()) return row_result.status();
  RowSet rows = std::move(row_result).value();
  // §4.3 step 4 runs once, globally, over the BASE table's cells — never
  // per shard (a per-shard cap would drop rows the global superlative
  // should keep).
  const Table& base = partitions_->base();
  ApplySuperlativeAndCap(
      &rows, superlative_,
      [&](RowId r, std::size_t a) -> const Value& { return base.cell(r, a); },
      limit_);
  result.rows = std::move(rows);
  return result;
}

std::string PartitionedPlan::Explain() const {
  std::string out = "Partitioned(shards=" + std::to_string(shards_.size()) +
                    ", limit=" + std::to_string(limit_);
  if (superlative_) {
    out += ", superlative=" +
           partitions_->base().schema().attribute(superlative_->attr).name +
           (superlative_->ascending ? " asc" : " desc");
  }
  out += ")\n";
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    out += "  shard " + std::to_string(p) + " [base " +
           std::to_string(partitions_->base_of(p)) + ", rows " +
           std::to_string(partitions_->partition(p).num_rows()) + "]\n";
    std::string shard = shards_[p]->Explain();
    // Indent the shard dump under its header.
    std::size_t pos = 0;
    while (pos < shard.size()) {
      std::size_t nl = shard.find('\n', pos);
      if (nl == std::string::npos) nl = shard.size();
      out += "    " + shard.substr(pos, nl - pos) + "\n";
      pos = nl + 1;
    }
  }
  return out;
}

ParallelPlanner::ParallelPlanner(PartitionedTablePtr partitions)
    : partitions_(std::move(partitions)) {
  shard_planners_.reserve(partitions_->num_partitions());
  for (std::size_t p = 0; p < partitions_->num_partitions(); ++p) {
    shard_planners_.emplace_back(&partitions_->partition(p));
  }
}

Result<PartitionedPlanPtr> ParallelPlanner::Compile(const Query& query) const {
  // Shards compile only the constraint tree: the superlative and the cap
  // are global decisions applied after the merge (capping per shard would
  // drop rows the global superlative should keep).
  Query shard_query;
  shard_query.where = query.where;
  shard_query.superlative = std::nullopt;

  std::vector<PlanPtr> shards;
  shards.reserve(shard_planners_.size());
  for (std::size_t p = 0; p < shard_planners_.size(); ++p) {
    shard_query.limit = partitions_->partition(p).num_rows();
    auto plan = shard_planners_[p].Compile(shard_query);
    if (!plan.ok()) return plan.status();
    shards.push_back(std::move(plan).value());
  }
  // Validate the superlative against the base schema even when there are
  // zero shards (empty table) — same contract as Planner::Compile.
  if (query.superlative &&
      query.superlative->attr >=
          partitions_->base().schema().num_attributes()) {
    return Status::OutOfRange("superlative attribute out of range");
  }
  return std::make_shared<const PartitionedPlan>(
      partitions_, std::move(shards), query.superlative, query.limit);
}

}  // namespace cqads::db::exec
