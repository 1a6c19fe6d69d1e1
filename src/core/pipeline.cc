#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "common/failpoint.h"
#include "db/exec/delta_exec.h"
#include "db/exec/morsel.h"
#include "db/exec/rank_bounds.h"
#include "db/exec/rowset_ops.h"
#include "db/exec/topk.h"
#include "db/exec/vector_kernels.h"
#include "db/row_match.h"
#include "db/sql_writer.h"
#include "text/tokenizer.h"

namespace cqads::core {
namespace {

/// Stages after classification all need the domain runtime; resolve it once
/// per call with a uniform error.
Result<const DomainRuntime*> RequireRuntime(const EngineSnapshot& s,
                                            const QueryContext& ctx) {
  const DomainRuntime* rt = s.runtime(ctx.domain);
  if (rt == nullptr) return Status::NotFound("unknown domain: " + ctx.domain);
  return rt;
}

/// True when RankStage's N-1 loop can run for this parse (the conditions
/// knowable before execution; the exact-answer count is checked at rank
/// time).
bool IsRelaxable(const ParsedQuestion& parsed) {
  return parsed.assembled.units.size() >= 2 &&
         !parsed.query.superlative.has_value() &&
         !parsed.assembled.contradiction;
}

/// The AND of the never-dropped fixed fragments; null when there are none.
db::ExprPtr FixedExpr(const ParsedQuestion& parsed) {
  const auto& fixed = parsed.assembled.fixed;
  return fixed.empty() ? nullptr : db::Expr::MakeAnd(fixed);
}

/// Compiles one relaxation fragment (a unit, or FixedExpr) for its raw row
/// set over the monolithic store: no superlative, no cap.
Result<db::exec::PlanPtr> CompileFragment(const DomainRuntime& rt,
                                          db::ExprPtr expr) {
  db::Query query;
  query.where = std::move(expr);
  query.limit = rt.table->num_rows();
  return rt.planner->Compile(query);
}

/// The partitioned execution path applies iff the runtime is sharded (the
/// prepared cache keys on the snapshot version, so cached plans always
/// match the runtime's layout).
bool UsePartitions(const DomainRuntime& rt) {
  return rt.partitions != nullptr && rt.parallel_planner != nullptr;
}

/// Executes `query` over the runtime through the given precompiled plans
/// (compiling here is the defensive fallback for a parse put into the
/// prepared cache without them), unioned with the live delta when one rides
/// on the table.
Result<db::QueryResult> RunQuery(const EngineSnapshot& s,
                                 const DomainRuntime& rt,
                                 const db::Query& query,
                                 const db::exec::PartitionedPlan* part_plan,
                                 const db::exec::PhysicalPlan* plan,
                                 std::string* explain_out,
                                 const ExecControl* control) {
  const EngineOptions& options = s.options();
  db::exec::BaseRowSource src;
  src.runner = options.exec_runner;
  src.parallelism = options.exec_parallelism;
  src.control = control;
  // Morsel-sizing rule: tiny stores execute their shards inline — the
  // enqueue + completion-latch cost of fanning out exceeds the scan.
  if (rt.table->num_rows() < db::exec::kMinRowsForParallelExec) {
    src.runner = nullptr;
  }
  // Keep defensively-compiled plans alive through execution.
  db::exec::PartitionedPlanPtr compiled_part;
  db::exec::PlanPtr compiled_mono;
  if (UsePartitions(rt)) {
    if (part_plan == nullptr) {
      auto compiled = rt.parallel_planner->Compile(query);
      if (!compiled.ok()) return compiled.status();
      compiled_part = std::move(compiled).value();
      part_plan = compiled_part.get();
    }
    src.part_plan = part_plan;
  } else {
    if (plan == nullptr) {
      auto compiled = rt.planner->Compile(query);
      if (!compiled.ok()) return compiled.status();
      compiled_mono = std::move(compiled).value();
      plan = compiled_mono.get();
    }
    src.plan = plan;
  }
  if (explain_out != nullptr) {
    *explain_out = src.part_plan != nullptr ? src.part_plan->Explain()
                                            : src.plan->Explain();
  }

  const db::DeltaStore* delta = rt.live_delta();
  if (delta != nullptr) {
    return db::exec::ExecuteHybrid(*rt.table, *delta, query, src);
  }
  if (src.part_plan != nullptr) {
    return src.part_plan->Execute(src.runner, src.parallelism, control);
  }
  return src.plan->Execute();
}

// ---------------------------------------------------------------------------
// Top-k rank machinery.
// ---------------------------------------------------------------------------

/// Words of a row bitmap per rank block: block b's rows are words
/// [b * kRankBlockWords, (b + 1) * kRankBlockWords).
constexpr std::size_t kRankBlockWords = db::exec::kRankBlockRows / 64;
static_assert(db::exec::kRankBlockRows % 64 == 0,
              "rank blocks must be word-aligned in a row bitmap");

/// Rows of relaxation fragment `f` of `parsed` as a bitmap over the global
/// row space [0, total_rows). Fragment f < units.size() is unit f alone,
/// fragment units.size() the AND of the fixed fragments (every row when
/// there are none). Base rows come from the fragment's plan (compiled here
/// when the parse carries none), live delta rows from the seed row
/// semantics (db/row_match.h), exactly as the delta union of the relaxed
/// query would. Retired base rows are not masked here.
Result<db::exec::RowBitmap> FragmentRows(const DomainRuntime& rt,
                                         const ParsedQuestion& parsed,
                                         std::size_t f, std::size_t total_rows,
                                         db::ExecStats* stats) {
  const auto& units = parsed.assembled.units;
  const db::ExprPtr expr = f < units.size() ? units[f].expr : FixedExpr(parsed);
  const db::exec::PhysicalPlan* plan =
      f == units.size()            ? parsed.fixed_plan.get()
      : f < parsed.unit_plans.size() ? parsed.unit_plans[f].get()
                                     : nullptr;
  const std::size_t base_rows = rt.table->num_rows();
  db::exec::RowBitmap rows(base_rows);
  if (expr == nullptr) {
    rows.ComplementAll();
  } else {
    db::exec::PlanPtr compiled;
    if (plan == nullptr) {
      auto c = CompileFragment(rt, expr);
      if (!c.ok()) return c.status();
      compiled = std::move(c).value();
      plan = compiled.get();
    }
    auto lazy = plan->ExecuteLazy(stats);
    if (!lazy.ok()) return lazy.status();
    rows = std::move(lazy).value().ToBitmap(base_rows);
  }
  rows.Grow(total_rows);
  if (const db::DeltaStore* delta = rt.live_delta()) {
    const db::Schema& schema = rt.table->schema();
    std::size_t scanned = 0;
    for (std::size_t i = 0; i < delta->num_rows(); ++i) {
      if (delta->delta_retired(i)) continue;
      ++scanned;
      if (expr == nullptr ||
          db::RecordMatchesExpr(schema, delta->record(i), *expr)) {
        rows.Set(static_cast<db::RowId>(base_rows + i));
      }
    }
    stats->rows_verified += scanned;
  }
  return rows;
}

/// Below this many rows to score, computing per-block bounds (a per-code
/// representative sweep over the attribute dictionary) can cost more than
/// the scoring it would save, so the sweep runs unpruned.
constexpr std::size_t kMinRankRowsForBounds = 1024;

/// Raises the shared pruning threshold to at least `v` (lock-free CAS-max).
/// Monotone: the threshold only grows, and every published value is some
/// worker's local k-th-best — a lower bound on the global k-th-best (the
/// global top-k draws from MORE candidates, so its k-th entry scores at
/// least as high). A stale read therefore only prunes less, never more;
/// correctness never depends on propagation timing, so relaxed ordering
/// suffices.
inline void RaiseThreshold(std::atomic<double>* threshold, double v,
                           std::size_t* updates) {
  double cur = threshold->load(std::memory_order_relaxed);
  while (v > cur) {
    if (threshold->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
      ++*updates;
      return;
    }
  }
}

/// Per-worker scoring state for the parallel rank sweeps. SimScorer is not
/// thread-safe (its memo tables mutate), so each concurrently-running morsel
/// body borrows a slot — scorer, top-k accumulator, scratch buffers, local
/// counters — through a lock-free free-bitmask. At most `parallelism` bodies
/// run at once (the caller plus the helpers it enlisted each drain morsels
/// sequentially), so with `parallelism` slots Acquire always finds one free
/// after a bounded retry. Slot 0 aliases the request's own scorer: its memo
/// is pre-warmed by ComputeBlockBounds and serves the serial portions
/// (delta rows, inline execution) without a second instance.
class RankSlots {
 public:
  struct Slot {
    explicit Slot(std::size_t k) : topk(k) {}
    SimScorer* scorer = nullptr;
    std::unique_ptr<SimScorer> owned;  ///< slots past 0 own their scorer
    db::exec::TopK topk;
    std::vector<db::RowId> rows;       ///< gather scratch
    std::vector<double> rank, unit;    ///< ScoreBlock outputs
    std::size_t blocks_visited = 0;
    std::size_t blocks_skipped = 0;
    std::size_t rows_pruned = 0;
    std::size_t threshold_updates = 0;
  };

  RankSlots(std::size_t n, const db::Schema& schema,
            const std::vector<MatchUnit>& units, const SimilarityContext& sim,
            SimScorer* request_scorer, std::size_t k)
      : free_mask_(n >= 64 ? ~std::uint64_t{0}
                           : (std::uint64_t{1} << n) - 1) {
    slots_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      slots_.push_back(std::make_unique<Slot>(k));
      if (i == 0) {
        slots_[i]->scorer = request_scorer;
      } else {
        slots_[i]->owned = std::make_unique<SimScorer>(schema, units, sim);
        slots_[i]->scorer = slots_[i]->owned.get();
      }
    }
  }

  std::size_t size() const { return slots_.size(); }
  Slot& slot(std::size_t i) { return *slots_[i]; }

  /// Borrows a free slot. Acquire ordering pairs with Release so the
  /// previous holder's memo writes are visible to the new one.
  std::size_t Acquire() {
    for (;;) {
      std::uint64_t m = free_mask_.load(std::memory_order_relaxed);
      if (m == 0) continue;  // transient: some holder is about to release
      std::size_t i = 0;
      while ((m & (std::uint64_t{1} << i)) == 0) ++i;
      if (free_mask_.compare_exchange_weak(m, m & ~(std::uint64_t{1} << i),
                                           std::memory_order_acquire)) {
        return i;
      }
    }
  }
  void Release(std::size_t i) {
    free_mask_.fetch_or(std::uint64_t{1} << i, std::memory_order_release);
  }

 private:
  std::atomic<std::uint64_t> free_mask_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace

QueryContext::QueryContext(std::string question_text, std::string domain_name)
    : question(std::move(question_text)),
      domain(std::move(domain_name)),
      rng(std::hash<std::string>{}(question)) {
  result.domain = domain;
}

const text::TokenList& QueryContext::tokens() {
  if (!tokens_ready_) {
    tokens_ = text::Tokenize(question);
    tokens_ready_ = true;
  }
  return tokens_;
}

Status QueryPipeline::Run(const EngineSnapshot& snapshot,
                          QueryContext* ctx) const {
  using Clock = std::chrono::steady_clock;
  for (const auto& stage : stages_) {
    // Chaos hook: tests arm "pipeline.<stage>" to inject latency (widening
    // the window a deadline can expire in) or an error. One relaxed load
    // when nothing is armed; the site string is only built when armed.
    if (FailPoints::AnyArmed()) {
      Status fp = FailPoints::Evaluate(
          (std::string("pipeline.") + stage->name()).c_str());
      if (!fp.ok()) return fp;
    }
    // Deadline check at the stage boundary. An expired budget fails the
    // request — unless the remaining work only improves an already-complete
    // answer (RankStage), in which case the answer ships as degraded.
    if (ctx->deadline.expired()) {
      ctx->cancel.Cancel();
      if (stage->degradable()) {
        ctx->result.degraded = true;
        continue;
      }
      return Status::DeadlineExceeded(std::string("budget exhausted before ") +
                                      stage->name() + " stage");
    }
    const auto start = Clock::now();
    Status st = stage->Run(snapshot, ctx);
    const auto elapsed =
        std::chrono::duration<double, std::micro>(Clock::now() - start);
    ctx->result.timings.push_back(StageTiming{stage->name(), elapsed.count()});
    if (!st.ok()) return st;
    if (ctx->done) break;
  }
  return Status::OK();
}

const QueryPipeline& QueryPipeline::Full() {
  static const QueryPipeline* kPipeline = [] {
    std::vector<std::unique_ptr<PipelineStage>> stages;
    stages.push_back(std::make_unique<ClassifyStage>());
    stages.push_back(std::make_unique<TagStage>());
    stages.push_back(std::make_unique<ConditionStage>());
    stages.push_back(std::make_unique<AssembleStage>());
    stages.push_back(std::make_unique<RenderSqlStage>());
    stages.push_back(std::make_unique<PlanStage>());
    stages.push_back(std::make_unique<ExecuteStage>());
    stages.push_back(std::make_unique<RankStage>());
    return new QueryPipeline(std::move(stages));
  }();
  return *kPipeline;
}

const QueryPipeline& QueryPipeline::ParseOnly() {
  static const QueryPipeline* kPipeline = [] {
    std::vector<std::unique_ptr<PipelineStage>> stages;
    stages.push_back(std::make_unique<TagStage>());
    stages.push_back(std::make_unique<ConditionStage>());
    stages.push_back(std::make_unique<AssembleStage>());
    stages.push_back(std::make_unique<RenderSqlStage>());
    stages.push_back(std::make_unique<PlanStage>());
    return new QueryPipeline(std::move(stages));
  }();
  return *kPipeline;
}

Status ClassifyStage::Run(const EngineSnapshot& s, QueryContext* ctx) const {
  if (!ctx->domain.empty()) {
    ctx->result.domain = ctx->domain;
    return Status::OK();
  }
  // The shared once-per-request token stream feeds classification; the tag
  // stage reuses it instead of re-tokenizing the raw question.
  auto domain = s.ClassifyDomainTokens(ctx->tokens());
  if (!domain.ok()) return domain.status();
  ctx->domain = domain.value();
  ctx->result.domain = ctx->domain;
  return Status::OK();
}

Status TagStage::Run(const EngineSnapshot& s, QueryContext* ctx) const {
  auto rt = RequireRuntime(s, *ctx);
  if (!rt.ok()) return rt.status();
  if (ctx->parsed_from_cache()) return Status::OK();
  ctx->parsed.tags = rt.value()->tagger->TagTokens(ctx->tokens());
  return Status::OK();
}

Status ConditionStage::Run(const EngineSnapshot& s, QueryContext* ctx) const {
  if (ctx->parsed_from_cache()) return Status::OK();
  auto rt = RequireRuntime(s, *ctx);
  if (!rt.ok()) return rt.status();
  ctx->parsed.conditions =
      BuildConditions(ctx->parsed.tags.items, rt.value()->table->schema());
  return Status::OK();
}

Status AssembleStage::Run(const EngineSnapshot& s, QueryContext* ctx) const {
  if (ctx->parsed_from_cache()) return Status::OK();
  auto rt = RequireRuntime(s, *ctx);
  if (!rt.ok()) return rt.status();
  const db::Table* table = rt.value()->table;

  // §4.2.2 resolver over the column statistics frozen into the snapshot:
  // candidate attributes are those whose observed [min, max] contains the
  // bare number; '$' restricts to money attributes.
  AmbiguousResolver resolver =
      MakeStatsResolver(&table->schema(), rt.value()->stats);

  auto assembled =
      AssembleQuery(ctx->parsed.conditions, table->schema(), resolver);
  if (!assembled.ok()) return assembled.status();
  ctx->parsed.assembled = std::move(assembled).value();
  return Status::OK();
}

Status RenderSqlStage::Run(const EngineSnapshot& s, QueryContext* ctx) const {
  if (ctx->parsed_from_cache()) return Status::OK();
  auto rt = RequireRuntime(s, *ctx);
  if (!rt.ok()) return rt.status();
  ctx->parsed.query.where = ctx->parsed.assembled.where;
  ctx->parsed.query.superlative = ctx->parsed.assembled.superlative;
  ctx->parsed.query.limit = s.options().answer_cap;
  ctx->parsed.sql =
      db::WriteSql(rt.value()->table->schema(), ctx->parsed.query);
  return Status::OK();
}

Status PlanStage::Run(const EngineSnapshot& s, QueryContext* ctx) const {
  if (ctx->parsed_from_cache()) return Status::OK();  // plan memoized
  // A rule-1c contradiction never executes: don't compile (or cache) a
  // plan that cannot run.
  if (ctx->parsed.assembled.contradiction) return Status::OK();
  auto rt_result = RequireRuntime(s, *ctx);
  if (!rt_result.ok()) return rt_result.status();
  const DomainRuntime& rt = *rt_result.value();

  // Sharded runtimes compile the exact query's partition-parallel plan
  // form; monolithic runtimes the single-store form. Either way the
  // compiled artifacts ride on ParsedQuestion, so the prepared cache
  // memoizes them per snapshot version.
  if (UsePartitions(rt)) {
    auto plan = rt.parallel_planner->Compile(ctx->parsed.query);
    if (!plan.ok()) return plan.status();
    ctx->parsed.part_plan = std::move(plan).value();
  } else {
    auto plan = rt.planner->Compile(ctx->parsed.query);
    if (!plan.ok()) return plan.status();
    ctx->parsed.plan = std::move(plan).value();
  }

  // Compile the N-1 relaxation's fragments too — one plan per unit plus
  // one for the fixed fragments, which RankStage combines as bitmaps — so a
  // prepared-cache hit replays partial retrieval without compiling. Eager
  // by design: a cached ParsedQuestion is immutable and shared across
  // threads, so lazy fill-at-rank-time would need synchronization on the
  // hot path, and on the paper workload most questions do rank partials.
  // Always monolithic: the rank pass ANDs whole-table bitmaps.
  if (s.options().enable_partial && IsRelaxable(ctx->parsed)) {
    for (const MatchUnit& unit : ctx->parsed.assembled.units) {
      auto plan = CompileFragment(rt, unit.expr);
      if (!plan.ok()) return plan.status();
      ctx->parsed.unit_plans.push_back(std::move(plan).value());
    }
    if (db::ExprPtr fixed = FixedExpr(ctx->parsed)) {
      auto plan = CompileFragment(rt, std::move(fixed));
      if (!plan.ok()) return plan.status();
      ctx->parsed.fixed_plan = std::move(plan).value();
    }
  }
  return Status::OK();
}

Status ExecuteStage::Run(const EngineSnapshot& s, QueryContext* ctx) const {
  auto rt_result = RequireRuntime(s, *ctx);
  if (!rt_result.ok()) return rt_result.status();
  const DomainRuntime& rt = *rt_result.value();

  const ParsedQuestion& parsed = ctx->parsed_view();
  ctx->result.sql = parsed.sql;
  ctx->result.interpretation = parsed.assembled.interpretation;
  if (parsed.assembled.contradiction) {
    ctx->result.contradiction = true;
    ctx->done = true;
    return Status::OK();
  }

  // The compiled (possibly partition-parallel) plan, unioned with a live
  // ingest delta when one rides on the table. RunQuery recompiles
  // defensively for externally-built ParsedQuestions injected through the
  // prepared cache's public Put() without plans. The request's
  // cancellation context rides along so partition morsels and delta scans
  // stop mid-flight when the deadline passes.
  const ExecControl control = ctx->control();
  Result<db::QueryResult> exec =
      RunQuery(s, rt, parsed.query, parsed.part_plan.get(), parsed.plan.get(),
               s.options().explain_plans ? &ctx->result.explain : nullptr,
               &control);
  if (!exec.ok()) return exec.status();
  ctx->result.stats = exec.value().stats;
  // The plan dump above is static; append the run's block-level work so an
  // Explain reader sees how much the block-at-a-time plan actually touched
  // (never part of the canonical result string).
  if (!ctx->result.explain.empty()) {
    const db::ExecStats& st = ctx->result.stats;
    ctx->result.explain +=
        "exec: rows_visited=" + std::to_string(st.rows_visited) +
        " blocks_visited=" + std::to_string(st.blocks_visited) + "\n";
  }
  const double exact_score =
      static_cast<double>(parsed.assembled.units.size());
  for (db::RowId row : exec.value().rows) {
    ctx->result.answers.push_back(Answer{row, true, exact_score, ""});
  }
  ctx->result.exact_count = ctx->result.answers.size();
  return Status::OK();
}

Status RankStage::Run(const EngineSnapshot& s, QueryContext* ctx) const {
  auto rt_result = RequireRuntime(s, *ctx);
  if (!rt_result.ok()) return rt_result.status();
  const DomainRuntime& rt = *rt_result.value();
  const EngineOptions& options = s.options();
  AskResult& out = ctx->result;
  const ParsedQuestion& parsed = ctx->parsed_view();
  const auto& units = parsed.assembled.units;

  // Partial matching (§4.3.1): trigger when exact answers are lacking.
  if (!options.enable_partial || out.answers.size() >= options.partial_trigger ||
      units.empty() || parsed.query.superlative.has_value()) {
    return Status::OK();
  }

  const SimilarityContext sim = s.MakeSimilarityContext(rt);
  const db::DeltaStore* delta = rt.live_delta();
  const std::size_t base_rows = rt.table->num_rows();
  const std::size_t total_rows =
      base_rows + (delta != nullptr ? delta->num_rows() : 0);
  db::exec::RowBitmap already(total_rows);
  for (const auto& a : out.answers) already.Set(a.row);

  // Scoring over the global id space: base rows read the column store,
  // delta rows their row-major record — identical semantics either way
  // (core/rank_sim.h record overloads). A per-request SimScorer resolves
  // the question side to TermIds once and memoizes record-side strings, so
  // the per-candidate loops below perform no stemming and build no
  // string-pair keys.
  SimScorer scorer(rt.table->schema(), units, sim);
  // Tombstoned rows never rank (the exact path masks them already; the
  // similarity sweep below must too).
  auto is_live = [&](db::RowId row) {
    if (delta == nullptr) return true;
    if (row >= base_rows) return !delta->delta_retired(row - base_rows);
    const auto& retired = delta->retired_base();
    return !std::binary_search(retired.begin(), retired.end(), row);
  };

  // Graceful degradation: each N-1 relaxation pass (and each chunk of the
  // single-condition sweep) re-checks the deadline. On expiry the stage
  // keeps whatever passes completed — the best-so-far partials still rank
  // and ship below — and marks the result degraded instead of failing a
  // request whose exact answers are already correct.
  const ExecControl control = ctx->control();

  // ---- Pruned, morsel-parallel top-k selection ----------------------------
  // Only the first (answer_cap - exact) partials can ship, so ranking is a
  // bounded top-k selection, not a full sort. Per-worker TopK accumulators
  // (db/exec/topk.h) merge deterministically; per-block score upper bounds
  // (db/exec/rank_bounds.h + SimScorer::ComputeBlockBounds) let whole 1024-
  // row blocks be skipped once the shared threshold rises above their best
  // possible score; both sweeps fan out on the exec morsel scheduler.
  const std::size_t cap = options.answer_cap;
  const std::size_t k =
      out.answers.size() < cap ? cap - out.answers.size() : 0;
  const db::exec::RankBounds* rb = rt.rank_bounds.get();

  db::exec::TaskRunner* runner = options.exec_runner;
  std::size_t par = options.exec_parallelism;
  if (runner == nullptr || par <= 1) {
    runner = nullptr;
    par = 1;
  }
  RankSlots slots(std::min<std::size_t>(par, 64), rt.table->schema(), units,
                  sim, &scorer, k);
  std::atomic<double> shared_threshold{slots.slot(0).topk.threshold()};
  const double exact_part = static_cast<double>(units.size()) - 1.0;
  std::vector<double> ub;  // per-block unit-similarity upper bounds
  bool degraded = false;

  auto score_and_push = [&](RankSlots::Slot& sl, const db::RowId* rows,
                            std::size_t n, std::size_t dropped,
                            bool require_positive) {
    if (n == 0) return;
    sl.rank.resize(n);
    sl.unit.resize(n);
    sl.scorer->ScoreBlock(*rt.table, rows, n, dropped, sl.rank.data(),
                          sl.unit.data());
    for (std::size_t i = 0; i < n; ++i) {
      if (require_positive && sl.unit[i] <= 0.0) continue;
      if (sl.topk.Push(sl.rank[i], rows[i],
                       static_cast<std::uint32_t>(dropped)) &&
          sl.topk.full()) {
        RaiseThreshold(&shared_threshold, sl.topk.threshold(),
                       &sl.threshold_updates);
      }
    }
  };
  // Delta rows are row-major; scored serially on the caller after the
  // parallel base sweep finished (slot 0 is then free, and its scorer is
  // the request scorer).
  auto push_delta_row = [&](db::RowId row, std::size_t dropped,
                            bool require_positive) {
    PartialScore p = scorer.Score(rt.table->schema(),
                                  delta->record(row - base_rows), dropped);
    if (require_positive && p.unit_sim <= 0.0) return;
    RankSlots::Slot& sl = slots.slot(0);
    if (sl.topk.Push(p.rank_sim, row, static_cast<std::uint32_t>(dropped)) &&
        sl.topk.full()) {
      RaiseThreshold(&shared_threshold, sl.topk.threshold(),
                     &sl.threshold_updates);
    }
  };

  if (units.size() >= 2) {
    // N-1 relaxation as set algebra. Relaxation d selects F AND every
    // unit but d (F: the fixed fragments), which is the row set of the
    // paper's relaxed query d (the reference oracle runs each one), so
    // each fragment is evaluated ONCE per request as a bitmap
    // over the global row space and every pass is word-parallel ANDs.
    // Tombstones: retired delta rows never enter a fragment, retired base
    // rows are cleared from F once.
    const std::size_t n_units = units.size();
    std::vector<db::exec::RowBitmap> frag;  // units 0..N-1, then F
    std::vector<char> empty;
    for (std::size_t f = 0; f <= n_units; ++f) {
      if (control.Expired()) {
        degraded = true;
        break;
      }
      auto rows = FragmentRows(rt, parsed, f, total_rows, &out.stats);
      // A fragment that cannot be evaluated selects nothing: the passes
      // that keep it are skipped, as a failing relaxed query skips its
      // pass.
      frag.push_back(rows.ok() ? std::move(rows).value()
                               : db::exec::RowBitmap(total_rows));
      empty.push_back(!frag.back().AnySet());
    }
    if (!degraded && delta != nullptr) {
      for (db::RowId r : delta->retired_base()) frag[n_units].Reset(r);
    }

    // The word holding row `base_rows` may hold base and delta rows both:
    // block runs read its low bits, the delta sweep its high bits.
    const std::size_t n_words = already.word_count();
    const std::size_t base_words = (base_rows + 63) / 64;
    const std::size_t tail_word = base_rows / 64;
    const std::uint64_t tail_base_bits =
        (std::uint64_t{1} << (base_rows % 64)) - 1;
    std::vector<std::uint64_t> cand(n_words);  // this pass's new rows
    auto base_word = [&](std::size_t w) {
      return w == tail_word ? cand[w] & tail_base_bits : cand[w];
    };
    std::vector<const std::uint64_t*> kept;
    // A rank block holding `rows` of the pass's base candidates.
    struct BlockRun {
      std::size_t block, rows;
    };
    std::vector<BlockRun> runs;
    for (std::size_t dropped = 0; !degraded && dropped < n_units;
         ++dropped) {
      if (control.Expired()) {
        degraded = true;
        break;
      }
      kept.clear();
      bool empty_pass = false;
      for (std::size_t f = 0; f <= n_units; ++f) {
        if (f == dropped) continue;
        empty_pass = empty_pass || empty[f];
        kept.push_back(frag[f].word_data());
      }
      if (empty_pass) continue;
      // Passes run in d order and dedup against every earlier pass (and
      // the exact answers), so the first pass to reach a row owns its
      // measure label, exactly as in the paper's pass-by-pass loop.
      std::uint64_t* seen = already.word_data();
      for (std::size_t w = 0; w < n_words; ++w) {
        std::uint64_t pass = kept[0][w];
        for (std::size_t j = 1; j < kept.size(); ++j) pass &= kept[j][w];
        cand[w] = pass & ~seen[w];
        seen[w] |= pass;
      }
      runs.clear();
      std::size_t n_base = 0;
      for (std::size_t w_lo = 0; w_lo < base_words; w_lo += kRankBlockWords) {
        const std::size_t w_hi = std::min(w_lo + kRankBlockWords, base_words);
        std::size_t rows = 0;
        for (std::size_t w = w_lo; w < w_hi; ++w) {
          rows += db::exec::PopCount64(base_word(w));
        }
        if (rows != 0) runs.push_back(BlockRun{w_lo / kRankBlockWords, rows});
        n_base += rows;
      }
      const bool prunable =
          rb != nullptr && n_base >= kMinRankRowsForBounds &&
          scorer.ComputeBlockBounds(*rt.table, *rb, dropped, &ub);
      // A prunable pass visits its blocks best bound first (stable: equal
      // bounds keep row order), so the threshold nears its final value in
      // the first block scored and later blocks prune against it. Order
      // never changes the answer: TopK keeps the exact (score, row) prefix
      // whatever the push order, and a block is skipped only when its
      // bound is STRICTLY below the threshold.
      if (prunable) {
        std::stable_sort(runs.begin(), runs.end(),
                         [&](const BlockRun& a, const BlockRun& b) {
                           return ub[a.block] > ub[b.block];
                         });
      }
      const bool par_pass =
          runner != nullptr && n_base >= db::exec::kMinRowsForParallelExec;
      // One block per morsel; the serial pass is the same loop run inline.
      // Row ids are gathered only for blocks that are scored.
      auto body = [&, dropped](std::size_t m) {
        const BlockRun& run = runs[m];
        const std::size_t s_idx = slots.Acquire();
        RankSlots::Slot& sl = slots.slot(s_idx);
        if (prunable &&
            exact_part + ub[run.block] <
                shared_threshold.load(std::memory_order_relaxed)) {
          ++sl.blocks_skipped;
          sl.rows_pruned += run.rows;
        } else {
          ++sl.blocks_visited;
          sl.rows.resize(run.rows);
          db::RowId* dst = sl.rows.data();
          const std::size_t w_lo = run.block * kRankBlockWords;
          const std::size_t w_hi =
              std::min(w_lo + kRankBlockWords, base_words);
          for (std::size_t w = w_lo; w < w_hi; ++w) {
            for (std::uint64_t bits = base_word(w); bits != 0;
                 bits &= bits - 1) {
              *dst++ = static_cast<db::RowId>(w * 64 +
                                              __builtin_ctzll(bits));
            }
          }
          score_and_push(sl, sl.rows.data(), run.rows, dropped,
                         /*require_positive=*/false);
        }
        slots.Release(s_idx);
      };
      if (!db::exec::RunMorsels(runs.size(), par_pass ? par : 1,
                                par_pass ? runner : nullptr, body,
                                &control)) {
        degraded = true;
        break;
      }
      // Delta candidates: the bits at or past base_rows, ascending.
      for (std::size_t w = tail_word; delta != nullptr && w < n_words; ++w) {
        std::uint64_t bits = w == tail_word ? cand[w] & ~tail_base_bits
                                            : cand[w];
        for (; bits != 0; bits &= bits - 1) {
          push_delta_row(
              static_cast<db::RowId>(w * 64 + __builtin_ctzll(bits)),
              dropped, /*require_positive=*/false);
        }
      }
    }
  } else {
    // Single-condition full-table sweep, block-at-a-time. A block whose
    // bound cannot reach the threshold (STRICT compare — an equal-score
    // smaller-row candidate can still displace the k-th entry) or cannot
    // produce a positive similarity is skipped without gathering a row.
    const bool prunable = rb != nullptr &&
                          base_rows >= kMinRankRowsForBounds &&
                          scorer.ComputeBlockBounds(*rt.table, *rb, 0, &ub);
    const std::size_t nb =
        (base_rows + db::exec::kRankBlockRows - 1) /
        db::exec::kRankBlockRows;
    constexpr std::size_t kBlocksPerMorsel = 4;
    const std::size_t n_morsels =
        (nb + kBlocksPerMorsel - 1) / kBlocksPerMorsel;
    const bool par_sweep =
        runner != nullptr &&
        base_rows >= db::exec::kMinRowsForParallelExec;
    auto body = [&](std::size_t m) {
      const std::size_t s_idx = slots.Acquire();
      RankSlots::Slot& sl = slots.slot(s_idx);
      const std::size_t b_lo = m * kBlocksPerMorsel;
      const std::size_t b_hi = std::min(b_lo + kBlocksPerMorsel, nb);
      for (std::size_t b = b_lo; b < b_hi; ++b) {
        const db::RowId r_lo =
            static_cast<db::RowId>(b * db::exec::kRankBlockRows);
        const db::RowId r_hi = static_cast<db::RowId>(
            std::min((b + 1) * db::exec::kRankBlockRows, base_rows));
        if (prunable) {
          const double t =
              shared_threshold.load(std::memory_order_relaxed);
          if (ub[b] <= 0.0 || ub[b] < t) {
            ++sl.blocks_skipped;
            sl.rows_pruned += r_hi - r_lo;
            continue;
          }
        }
        ++sl.blocks_visited;
        sl.rows.clear();
        for (db::RowId r = r_lo; r < r_hi; ++r) {
          if (!already.Test(r) && is_live(r)) sl.rows.push_back(r);
        }
        score_and_push(sl, sl.rows.data(), sl.rows.size(), 0,
                       /*require_positive=*/true);
      }
      slots.Release(s_idx);
    };
    if (!db::exec::RunMorsels(n_morsels, par_sweep ? par : 1,
                              par_sweep ? runner : nullptr, body,
                              &control)) {
      degraded = true;
    }
    if (delta != nullptr && !degraded) {
      for (db::RowId row = base_rows; row < total_rows; ++row) {
        if ((row - base_rows) % 512 == 0 && control.Expired()) {
          degraded = true;
          break;
        }
        if (already.Test(row) || !is_live(row)) continue;
        push_delta_row(row, 0, /*require_positive=*/true);
      }
    }
  }

  // Deterministic merge: the union of per-worker top-ks contains the
  // global top-k (see db/exec/topk.h), so re-selecting over the union
  // reproduces the single-worker answer regardless of morsel schedule.
  db::exec::TopK merged(k);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    RankSlots::Slot& sl = slots.slot(i);
    merged.Merge(std::move(sl.topk));
    out.stats.rank_blocks_visited += sl.blocks_visited;
    out.stats.rank_blocks_skipped += sl.blocks_skipped;
    out.stats.rank_rows_pruned += sl.rows_pruned;
    out.stats.rank_threshold_updates += sl.threshold_updates;
  }
  for (const auto& e : merged.Take()) {
    out.answers.push_back(
        Answer{e.row, false, e.score, scorer.unit_measure(e.tag)});
  }
  if (degraded) out.degraded = true;
  if (!out.explain.empty()) {
    const db::ExecStats& st = out.stats;
    out.explain +=
        "rank: blocks_visited=" + std::to_string(st.rank_blocks_visited) +
        " blocks_skipped=" + std::to_string(st.rank_blocks_skipped) +
        " rows_pruned=" + std::to_string(st.rank_rows_pruned) +
        " threshold_updates=" +
        std::to_string(st.rank_threshold_updates) + "\n";
  }
  return Status::OK();
}

}  // namespace cqads::core
