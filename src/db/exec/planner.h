// Cost-aware compilation of db::Query into a PhysicalPlan. For a
// conjunction the planner orders predicates by estimated selectivity
// (per-column distinct counts, min/max, and equi-width histograms frozen at
// BuildIndexes time), most selective first — the best available access path
// seeds the candidate set, the residue verifies row-by-row over the
// columnar store. The paper's §4.3 Type I/II/III rank is kept as the
// tie-break (equal estimates fall back to exactly the seed executor's
// order), so the planner is a strict generalization of the Type-rank
// strategy. Disjunctions, negations, and mixed trees compile to set-op
// nodes over recursively-planned children.
//
// Plans are answer-identical to db::Executor by construction: every node
// yields a sorted duplicate-free RowSet and the final superlative/limit
// step reuses the seed semantics, so only the amount of work differs. The
// planner-vs-seed differential property test pins this.
//
// Thread-safety: a Planner is immutable after construction; Compile() and
// Run() are const and safe from any thread over a frozen table.
#ifndef CQADS_DB_EXEC_PLANNER_H_
#define CQADS_DB_EXEC_PLANNER_H_

#include <vector>

#include "common/status.h"
#include "db/exec/plan.h"
#include "db/exec/table_stats.h"
#include "db/query.h"
#include "db/table.h"

namespace cqads::db::exec {

class Planner {
 public:
  /// The table must outlive the planner and every plan it compiles, and
  /// must have indexes built (stats collected). The planner freezes the
  /// table's stats at construction: estimates stay pinned to what the
  /// snapshot registered even if the table were re-indexed later.
  explicit Planner(const Table* table)
      : table_(table), stats_(table->stats_ptr()) {}

  /// Compiles a query into an immutable, shareable plan. Fails on
  /// out-of-range attributes or when the table's indexes are not built.
  Result<PlanPtr> Compile(const Query& query) const;

  /// Compile + Execute in one step (ad-hoc queries in tests and benches).
  Result<QueryResult> Run(const Query& query) const;

 private:
  PlanNodePtr CompileExpr(const Expr& expr) const;
  PlanNodePtr CompileConjunction(std::vector<Predicate> preds) const;
  /// Best access path for an already-compiled predicate.
  PlanNodePtr AccessPath(CompiledPredicate cp) const;
  Status ValidateExpr(const Expr& expr) const;

  const Table* table_;
  std::shared_ptr<const TableStats> stats_;  ///< frozen at construction
};

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_PLANNER_H_
