// Request/response value types of the ask path, shared by its four
// functions (core/pipeline.h), the engine facade (core/cqads_engine.h), the
// serving layer (serve/), and the test-only reference oracle (reference/).
// Hoisted out of CqadsEngine so the pipeline, the prepared-query cache, and
// the server can name them without pulling in the engine.
#ifndef CQADS_CORE_ASK_TYPES_H_
#define CQADS_CORE_ASK_TYPES_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/boolean_assembler.h"
#include "core/condition_builder.h"
#include "core/question_tagger.h"
#include "db/executor.h"
#include "db/query.h"

// ParsedQuestion only carries shared_ptrs to compiled plans; the plan
// vocabulary (db/exec/plan.h) stays out of this widely-included header.
namespace cqads::db::exec {
class PhysicalPlan;
using PlanPtr = std::shared_ptr<const PhysicalPlan>;
}  // namespace cqads::db::exec

namespace cqads::core {

/// Engine-wide knobs (formerly CqadsEngine::Options). None of them picks
/// an execution strategy: every question is answered by the one serving
/// path (compiled plans, block-at-a-time kernels, term substrate, top-k
/// rank), whose answers the test-only reference oracle in reference/
/// reproduces byte for byte from the seed algorithm.
struct EngineOptions {
  /// §4.3.1: at most 30 answers per question.
  std::size_t answer_cap = 30;
  /// Partial (N-1) answers are fetched when exact answers number fewer
  /// than this.
  std::size_t partial_trigger = 30;
  bool enable_partial = true;
  /// Record the plan dump (PhysicalPlan::Explain) in AskResult::explain.
  /// Off by default: the hot path should not build strings nobody reads.
  bool explain_plans = false;
};

/// Full analysis of a question within a known domain: everything
/// ParseQuestion (tag -> conditions -> assembly -> SQL) and PlanQuestion
/// (the compiled plans) produce.
/// Immutable once built (the expression trees are shared_ptr<const Expr>),
/// so a ParsedQuestion can be memoized by the prepared-query cache and
/// replayed concurrently.
struct ParsedQuestion {
  TaggingResult tags;
  BuiltConditions conditions;
  AssembledQuery assembled;
  db::Query query;      ///< executable form
  std::string sql;      ///< §4.5 nested-subquery SQL text
  /// Compiled cost-aware plan for `query` (null for a contradiction, which
  /// never executes). Compiled against one parse generation's
  /// table/stats; riding on ParsedQuestion is what lets the prepared-query
  /// cache memoize plans per parse generation for free.
  db::exec::PlanPtr plan;
  /// The §4.3.1 N-1 relaxation's building blocks, compiled when the
  /// question is relaxable (>= 2 units, no superlative) so cache hits
  /// replay partial retrieval without compiling: entry i selects the rows
  /// of `assembled.units[i]` alone, `fixed_plan` those of the AND of
  /// `assembled.fixed` (null when there are no fixed fragments). Relaxation
  /// d is then (fixed) AND (every unit but d), combined as bitmaps at rank
  /// time. Empty/null otherwise.
  std::vector<db::exec::PlanPtr> unit_plans;
  db::exec::PlanPtr fixed_plan;
  /// The fragments' keys in the base table's fragment memo
  /// (db/exec/fragment_memo.h): entry i is unit i's, the last the fixed
  /// fragments' (the every-row key when there are none). Computed next to
  /// the plans, and only when the runtime keeps a memo (a base table
  /// larger than one rank block); empty otherwise, and then the rank stage
  /// runs the plans on every request.
  std::vector<std::string> fragment_keys;
};

/// One retrieved answer.
struct Answer {
  db::RowId row = 0;
  bool exact = true;
  double rank_sim = 0.0;     ///< Eq. 5 (exact answers: number of units)
  std::string measure;       ///< similarity measure used (partial only)
};

/// Wall-clock spent inside one pipeline stage of one request.
struct StageTiming {
  std::string stage;
  double micros = 0.0;
};

struct AskResult {
  std::string domain;
  std::string sql;
  std::string interpretation;
  bool contradiction = false;  ///< "search retrieved no results"
  /// True when the request's deadline forced graceful degradation: the
  /// exact answers are complete and correct, but partial (N-1) retrieval
  /// stopped at the best-so-far pass (or was skipped) instead of running
  /// all relaxations. Never set without a deadline, so deadline-free
  /// serving stays byte-identical to the pre-deadline engine. Deliberately
  /// NOT part of CanonicalAskResultString: it describes how much work ran,
  /// not which rows match.
  bool degraded = false;
  std::vector<Answer> answers;
  std::size_t exact_count = 0;
  db::ExecStats stats;
  /// Per-stage timings in stage order, one entry per stage that ran: a
  /// prepared-cache hit runs neither classification nor the parse stages,
  /// so it has no entries for them.
  std::vector<StageTiming> timings;
  /// Physical plan dump (EngineOptions::explain_plans only; not part of the
  /// canonical result string).
  std::string explain;
};

/// Canonical serialization of everything deterministic in an AskResult
/// (domain, SQL, interpretation, contradiction flag, answer rows with exact
/// flags, rank scores, and measures — not timings or work counters). Two
/// serving paths answered identically iff the strings are byte-identical;
/// the concurrency tests and the throughput bench compare with this.
std::string CanonicalAskResultString(const AskResult& result);

}  // namespace cqads::core

#endif  // CQADS_CORE_ASK_TYPES_H_
