// Row-at-a-time query execution over a Table, implementing the paper's
// evaluation order (§4.3): Type I conditions seed the candidate set through
// the primary hash index, Type II conditions filter it through secondary
// indexes, Type III boundaries run on what remains, and superlatives are
// applied last ("the cheapest Honda" = filter Honda, then take cheapest —
// never the reverse).
//
// This is the REFERENCE path. The serving pipeline executes compiled
// cost-aware plans over the column store (db/exec/planner.h), which must
// stay answer-identical to this executor — the planner-vs-seed differential
// property test and the parity benches compare against it, and the rankers
// still use Matches/MatchesExpr for row-level checks. Predicate semantics
// shared by both paths (NULL rule, canonical kContains rendering) live in
// db/compare.h.
//
// Thread-safety: the executor is stateless over a const table — it holds
// only the table pointer and every method is const. Any number of threads
// may Execute() through one executor (or the ExecuteQuery free function)
// concurrently, provided the table's indexes were built beforehand and the
// table is not mutated afterwards (the engine snapshot layer guarantees
// both).
#ifndef CQADS_DB_EXECUTOR_H_
#define CQADS_DB_EXECUTOR_H_

#include "common/status.h"
#include "db/query.h"
#include "db/table.h"

namespace cqads::db {

/// Work counters for the efficiency experiments (Fig. 6, ablations).
struct ExecStats {
  std::size_t index_lookups = 0;  ///< hash/sorted/ngram probes
  std::size_t rows_verified = 0;  ///< per-row predicate checks
  std::size_t full_scans = 0;     ///< predicates that fell back to scanning
  /// Block-at-a-time work (compiled plans only): rows entering residual
  /// filters and 1024-row blocks actually evaluated (all-zero selection
  /// masks are skipped without touching their predicates).
  std::size_t rows_visited = 0;
  std::size_t blocks_visited = 0;
  /// Top-k rank-stage work (the serving rank stage only): 1024-row
  /// candidate blocks actually scored vs skipped because their block-max
  /// score bound fell below the running k-th threshold, rows inside skipped
  /// blocks that were never scored, and successful raises of the running
  /// threshold (top-k heap fills/evictions that tightened pruning).
  std::size_t rank_blocks_visited = 0;
  std::size_t rank_blocks_skipped = 0;
  std::size_t rank_rows_pruned = 0;
  std::size_t rank_threshold_updates = 0;
  /// Eq. 5 scoring work of the rank stage: candidate rows scored (base and
  /// delta), and similarities computed for them — one per distinct
  /// dictionary-code key a request meets plus one per delta row (numeric
  /// units over base rows read their packed columns and compute none).
  std::size_t rank_rows_scored = 0;
  std::size_t rank_sim_evals = 0;
  /// Relaxation fragments the rank stage read from the base table's
  /// fragment memo (db/exec/fragment_memo.h) vs evaluated through their
  /// plans (every fragment, on a table without a memo). A hit runs no
  /// plan, so it adds nothing to the row, block and index counters.
  std::size_t fragment_hits = 0;
  std::size_t fragment_evals = 0;

  ExecStats& operator+=(const ExecStats& other) {
    index_lookups += other.index_lookups;
    rows_verified += other.rows_verified;
    full_scans += other.full_scans;
    rows_visited += other.rows_visited;
    blocks_visited += other.blocks_visited;
    rank_blocks_visited += other.rank_blocks_visited;
    rank_blocks_skipped += other.rank_blocks_skipped;
    rank_rows_pruned += other.rank_rows_pruned;
    rank_threshold_updates += other.rank_threshold_updates;
    rank_rows_scored += other.rank_rows_scored;
    rank_sim_evals += other.rank_sim_evals;
    fragment_hits += other.fragment_hits;
    fragment_evals += other.fragment_evals;
    return *this;
  }
};

/// Result rows in rank order (superlative order when present, otherwise
/// ascending RowId), capped at Query::limit.
struct QueryResult {
  std::vector<RowId> rows;
  ExecStats stats;
};

class Executor {
 public:
  /// The table must outlive the executor and have indexes built.
  explicit Executor(const Table* table) : table_(table) {}

  /// Executes a query. Fails when the table's indexes are not built or the
  /// query references an out-of-range attribute.
  Result<QueryResult> Execute(const Query& query) const;

  /// Row-level predicate check (also used by rankers and tests).
  bool Matches(RowId row, const Predicate& pred) const;

  /// Row-level expression check (no indexes; used by rankers).
  bool MatchesExpr(RowId row, const Expr& expr) const;

  /// Evaluates one predicate to a row set, preferring index access paths.
  RowSet EvalPredicate(const Predicate& pred, ExecStats* stats) const;

  /// Evaluates an expression tree to a row set.
  RowSet EvalExpr(const Expr& expr, ExecStats* stats) const;

 private:
  Status ValidateExpr(const Expr& expr) const;

  /// Conjunction with the §4.3 type-ordered strategy.
  RowSet EvalConjunction(std::vector<Predicate> preds, ExecStats* stats) const;

  RowSet ScanPredicate(const Predicate& pred, ExecStats* stats) const;

  const Table* table_;
};

/// Stateless entry point: executes `query` against `table` (indexes built).
/// Exactly Executor(&table).Execute(query); the reference oracle
/// (reference/reference_ask.h) runs exact and relaxed queries through it.
Result<QueryResult> ExecuteQuery(const Table& table, const Query& query);

}  // namespace cqads::db

#endif  // CQADS_DB_EXECUTOR_H_
