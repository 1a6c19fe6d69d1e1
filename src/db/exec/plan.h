// Physical query plans over the columnar ads store. A compiled plan is an
// immutable tree of access-path and set-operation nodes produced by the
// Planner (db/exec/planner.h) and shared freely across threads — the
// prepared-query cache memoizes plans per parse generation and any number
// of concurrent requests Execute() one plan instance.
//
// Node vocabulary:
//   IndexScanNode      hash-index equality seed (keys resolved at compile
//                      time, shorthand variants included)
//   RangeScanNode      sorted-index range/equality over a numeric column
//   SubstringScanNode  n-gram candidate fetch + columnar verification
//   FullScanFilterNode columnar scan of every row
//   FilterNode         residual predicates verified over a child's rows,
//                      in planner (selectivity) order
//   IntersectNode / UnionNode / NotNode
//                      set algebra; each call picks sorted-vector or bitmap
//                      representation by density (db/exec/rowset_ops.h)
//
// Every node evaluates block-at-a-time to a sorted, duplicate-free row set
// (a LazyRowSet: sorted vector or bitmap), which is what makes planner-
// chosen predicate orders answer-identical to the seed executor's §4.3
// Type-rank order: conjunction reordering changes work, never the set. The
// seed executor (db/executor.h) is the row-level oracle the plan tests
// diff against.
#ifndef CQADS_DB_EXEC_PLAN_H_
#define CQADS_DB_EXEC_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/exec/rowset_ops.h"
#include "db/executor.h"
#include "db/query.h"
#include "db/table.h"

namespace cqads::db::exec {

/// A predicate resolved against the column store at compile time: text
/// needles become element-dictionary code sets (equality, shorthand, and
/// substring matching run once per DISTINCT value instead of once per row
/// probe), numeric operands become doubles. Row evaluation is then integer
/// compares over code spans or packed doubles.
struct CompiledPredicate {
  enum class Mode {
    kNumeric,          ///< packed-double compare
    kNumericContains,  ///< substring over canonical rendered text
    kTextCodes,        ///< element-code membership (eq/ne/contains)
    kNever,            ///< undefined op on this column: matches nothing
  };

  Predicate pred;
  Mode mode = Mode::kNever;
  double lo = 0.0;  ///< numeric operand (kBetween lower bound)
  double hi = 0.0;  ///< kBetween upper bound
  /// Per element-dictionary code: 1 when the element satisfies the
  /// predicate's value test (equality incl. shorthand, or containment).
  std::vector<char> element_match;
  std::string needle;  ///< canonical contains needle (numeric columns)
  double selectivity = 1.0;  ///< estimate from TableStats

  /// Row test; must agree with Executor::Matches on every (row, predicate).
  bool Matches(const ColumnStore& store, RowId row) const;
};

/// Compiles `pred` against the table's store. Selectivity comes from
/// `stats` when given (the Planner passes the stats frozen at snapshot
/// registration) and falls back to the table's current stats otherwise.
CompiledPredicate CompilePredicate(const Table& table, const Predicate& pred,
                                   const TableStats* stats = nullptr);

/// One node of a physical plan.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  /// Evaluates to a sorted, duplicate-free row set. Scans run 1024-row
  /// selection masks through the branch-free kernels
  /// (db/exec/vector_kernels.h) and set operations stay word-parallel
  /// across adjacent nodes via LazyRowSet; index-seeded leaves (sparse
  /// results, no blocks to scan) yield the sorted vector form.
  virtual LazyRowSet ExecuteLazy(ExecStats* stats) const = 0;

  /// Appends this node's Explain() line(s): two-space indentation per
  /// depth, children below their parent.
  virtual void Explain(std::string* out, int depth) const = 0;

  double est_selectivity = 1.0;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

class IndexScanNode : public PlanNode {
 public:
  /// `keys` are the hash-index keys to union (the needle plus any shorthand
  /// variants present in the index), resolved at compile time.
  IndexScanNode(const Table* table, CompiledPredicate cp,
                std::vector<std::string> keys);
  LazyRowSet ExecuteLazy(ExecStats* stats) const override;
  void Explain(std::string* out, int depth) const override;

  const std::vector<std::string>& keys() const { return keys_; }

 private:
  const Table* table_;
  CompiledPredicate cp_;
  std::vector<std::string> keys_;
};

class RangeScanNode : public PlanNode {
 public:
  RangeScanNode(const Table* table, CompiledPredicate cp);
  /// Non-selective ranges (est. selectivity >= 1/16) run a branch-free
  /// block scan of the packed column into a bitmap instead of the sorted
  /// index probe: past that density the index path's gather-and-sort of
  /// row ids costs more than streaming every double through SIMD compares,
  /// and the bitmap output feeds word-parallel set ops downstream. Selective
  /// ranges keep the index probe (sparse vector).
  LazyRowSet ExecuteLazy(ExecStats* stats) const override;
  void Explain(std::string* out, int depth) const override;

 private:
  /// Sorted-index probe: the selective ranges' sparse row set.
  RowSet IndexProbe(ExecStats* stats) const;

  const Table* table_;
  CompiledPredicate cp_;
};

class SubstringScanNode : public PlanNode {
 public:
  SubstringScanNode(const Table* table, CompiledPredicate cp);
  LazyRowSet ExecuteLazy(ExecStats* stats) const override;
  void Explain(std::string* out, int depth) const override;

 private:
  const Table* table_;
  CompiledPredicate cp_;
};

class FullScanFilterNode : public PlanNode {
 public:
  FullScanFilterNode(const Table* table, CompiledPredicate cp);
  /// Block-at-a-time scan into a bitmap via the selection-mask kernels.
  LazyRowSet ExecuteLazy(ExecStats* stats) const override;
  void Explain(std::string* out, int depth) const override;

 private:
  const Table* table_;
  CompiledPredicate cp_;
};

class FilterNode : public PlanNode {
 public:
  /// Residual predicates are verified over the child's rows in the given
  /// (selectivity) order.
  FilterNode(const Table* table, PlanNodePtr child,
             std::vector<CompiledPredicate> residual);
  /// Dense child: AND each residual's block mask into the child's bitmap,
  /// skipping blocks whose mask is already empty. A sparse child takes the
  /// same path when it holds at least kBlockRows rows filling the blocks it
  /// touches to at least 1/16 (RangeScanNode's dense threshold). Other
  /// sparse children: one pass applying every residual per row with early-
  /// out (building per-distinct-cell tables wouldn't amortize).
  LazyRowSet ExecuteLazy(ExecStats* stats) const override;
  void Explain(std::string* out, int depth) const override;

 private:
  const Table* table_;
  PlanNodePtr child_;
  std::vector<CompiledPredicate> residual_;
};

class IntersectNode : public PlanNode {
 public:
  IntersectNode(const Table* table, std::vector<PlanNodePtr> children);
  LazyRowSet ExecuteLazy(ExecStats* stats) const override;
  void Explain(std::string* out, int depth) const override;

 private:
  const Table* table_;
  std::vector<PlanNodePtr> children_;
};

class UnionNode : public PlanNode {
 public:
  UnionNode(const Table* table, std::vector<PlanNodePtr> children);
  LazyRowSet ExecuteLazy(ExecStats* stats) const override;
  void Explain(std::string* out, int depth) const override;

 private:
  const Table* table_;
  std::vector<PlanNodePtr> children_;
};

class NotNode : public PlanNode {
 public:
  NotNode(const Table* table, PlanNodePtr child);
  LazyRowSet ExecuteLazy(ExecStats* stats) const override;
  void Explain(std::string* out, int depth) const override;

 private:
  const Table* table_;
  PlanNodePtr child_;
};

/// A complete compiled query: plan tree + superlative + answer cap.
/// Immutable; Execute() is const and thread-safe over a frozen table.
class PhysicalPlan {
 public:
  PhysicalPlan(const Table* table, PlanNodePtr root,
               std::optional<Superlative> superlative, std::size_t limit);

  /// Runs the plan. Superlative ordering and the answer cap are applied
  /// exactly as the seed executor does (§4.3 step 4), so results are
  /// byte-identical for identical row sets.
  Result<QueryResult> Execute() const;

  /// The constraint tree's raw row set — sorted, duplicate-free, BEFORE the
  /// superlative sort and the answer cap. The delta-union path combines it
  /// with the delta scan before applying the final §4.3 step-4 semantics
  /// globally (capping the base rows first would drop rows the global
  /// superlative should have kept).
  Result<RowSet> ExecuteRowSet(ExecStats* stats) const;

  /// The same raw row set in the form the root produced it: a dense root's
  /// bitmap is handed over without materializing row ids (the N-1 rank
  /// pass combines per-unit bitmaps word by word); sparse roots yield the
  /// sorted vector.
  Result<LazyRowSet> ExecuteLazy(ExecStats* stats) const;

  const std::optional<Superlative>& superlative() const { return superlative_; }
  std::size_t limit() const { return limit_; }

  /// Human-readable plan dump:
  ///   Plan(limit=30, superlative=price asc)
  ///     Filter(color = 'blue', sel=0.385)
  ///       IndexScan(make = 'honda', sel=0.077, keys=1)
  std::string Explain() const;

  const PlanNode* root() const { return root_.get(); }

 private:
  const Table* table_;
  PlanNodePtr root_;  ///< null: no constraint (all rows)
  std::optional<Superlative> superlative_;
  std::size_t limit_;
};

using PlanPtr = std::shared_ptr<const PhysicalPlan>;

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_PLAN_H_
