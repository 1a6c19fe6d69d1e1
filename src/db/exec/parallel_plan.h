// Partition-parallel compiled plans. A PartitionedPlan is one PhysicalPlan
// per partition (each compiled by that partition's own cost-aware Planner
// against that partition's own TableStats — shards may legitimately pick
// different predicate orders), executed as morsels on a work-stealing
// scheduler (db/exec/morsel.h) and merged into the global answer:
//
//   1. every partition's plan evaluates to a partition-local sorted RowSet;
//   2. locals are offset by the partition's base RowId — because partitions
//      tile the base table in order, concatenation IS the globally sorted,
//      duplicate-free row set (no k-way merge needed);
//   3. the superlative sort and the answer cap run once, globally, over the
//      BASE table's cells with the seed §4.3 step-4 semantics.
//
// Step 3 is the answer-identity argument: per-shard work ordering changes,
// the final set and its presented order never do. The partitioned-vs-
// monolithic differential tests pin this.
//
// Thread-safety: immutable after construction; Execute is const and any
// number of threads may run one plan instance concurrently (each call owns
// its per-partition result slots).
#ifndef CQADS_DB_EXEC_PARALLEL_PLAN_H_
#define CQADS_DB_EXEC_PARALLEL_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/exec/morsel.h"
#include "db/exec/plan.h"
#include "db/exec/partitioned_table.h"
#include "db/exec/planner.h"
#include "db/query.h"

namespace cqads::db::exec {

/// Below this many base rows, callers should execute shard plans inline
/// (runner = nullptr): per-query morsel submission (enqueue + completion
/// latch) costs more than scanning a few hundred rows per shard. This is
/// the usual morsel-sizing rule — morsel-driven engines hand out work in
/// units of tens of thousands of rows for the same reason. Policy lives
/// with the caller (the serving pipeline applies it); PartitionedPlan
/// itself always honors whatever runner it is given, so tests and benches
/// can force pooled execution on any table size.
inline constexpr std::size_t kMinRowsForParallelExec = 8192;

class PartitionedPlan {
 public:
  PartitionedPlan(PartitionedTablePtr partitions, std::vector<PlanPtr> shards,
                  std::optional<Superlative> superlative, std::size_t limit);

  /// Raw global row set (sorted, duplicate-free, uncapped): morsels across
  /// the partitions on `runner`, caller participating. Per-shard ExecStats
  /// are summed into *stats. When `control` carries an expired (or
  /// expiring) deadline, unstarted shard morsels are skipped and the call
  /// returns kDeadlineExceeded — the request releases its workers within
  /// one shard's scan instead of finishing a doomed sweep.
  Result<RowSet> ExecuteRowSet(TaskRunner* runner, std::size_t parallelism,
                               ExecStats* stats,
                               const ExecControl* control = nullptr) const;

  /// Full execution: ExecuteRowSet, then the global superlative sort (base-
  /// table cells, stable ties by RowId) and the answer cap — byte-identical
  /// to the monolithic plan's Execute.
  Result<QueryResult> Execute(TaskRunner* runner, std::size_t parallelism,
                              const ExecControl* control = nullptr) const;

  const PartitionedTable& partitions() const { return *partitions_; }
  std::size_t num_shards() const { return shards_.size(); }

  /// Plan dump: a Partitioned(...) header plus every shard's tree.
  std::string Explain() const;

 private:
  PartitionedTablePtr partitions_;
  std::vector<PlanPtr> shards_;  ///< parallel to partitions
  std::optional<Superlative> superlative_;
  std::size_t limit_;
};

using PartitionedPlanPtr = std::shared_ptr<const PartitionedPlan>;

/// Compiles db::Query into PartitionedPlans over a PartitionedTable. Holds
/// one per-partition Planner (each frozen to its partition's stats).
/// Immutable after construction; Compile is const and thread-safe.
class ParallelPlanner {
 public:
  /// The partitioned table must outlive the planner and every plan.
  explicit ParallelPlanner(PartitionedTablePtr partitions);

  /// Compiles the query for every shard. The superlative and limit are
  /// recorded globally; shard plans carry only the constraint tree.
  Result<PartitionedPlanPtr> Compile(const Query& query) const;

  const PartitionedTable& partitions() const { return *partitions_; }

 private:
  PartitionedTablePtr partitions_;
  std::vector<Planner> shard_planners_;
};

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_PARALLEL_PLAN_H_
