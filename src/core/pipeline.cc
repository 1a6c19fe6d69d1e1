#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/failpoint.h"
#include "db/exec/delta_exec.h"
#include "db/exec/fragment_memo.h"
#include "db/exec/rank_bounds.h"
#include "db/exec/rowset_ops.h"
#include "db/exec/topk.h"
#include "db/exec/vector_kernels.h"
#include "db/row_match.h"
#include "db/sql_writer.h"
#include "text/tokenizer.h"

namespace cqads::core {
namespace {

using Clock = std::chrono::steady_clock;

/// Runs one stage of the ask path: the "pipeline.<name>" failpoint, the
/// deadline check at the stage boundary, then `body`, whose wall-clock time
/// is appended to ctx->result.timings (a failing stage included). An
/// expired budget fails the request, unless the stage is `degradable`: it
/// only improves an answer that is already complete (rank), so it is
/// skipped and the answer ships marked degraded.
template <typename Body>
Status RunStage(const char* name, QueryContext* ctx, Body&& body,
                bool degradable = false) {
  // Chaos hook: tests arm "pipeline.<stage>" to inject latency (widening
  // the window a deadline can expire in) or an error. One relaxed load
  // when nothing is armed; the site string is only built when armed.
  if (FailPoints::AnyArmed()) {
    Status fp =
        FailPoints::Evaluate((std::string("pipeline.") + name).c_str());
    if (!fp.ok()) return fp;
  }
  if (ctx->deadline.expired()) {
    if (degradable) {
      ctx->result.degraded = true;
      return Status::OK();
    }
    return Status::DeadlineExceeded(std::string("budget exhausted before ") +
                                    name + " stage");
  }
  const auto start = Clock::now();
  Status st = body();
  const auto elapsed =
      std::chrono::duration<double, std::micro>(Clock::now() - start);
  ctx->result.timings.push_back(StageTiming{name, elapsed.count()});
  return st;
}

/// The runtime of the request's domain, resolved once per call.
Result<const DomainRuntime*> RequireRuntime(const EngineSnapshot& s,
                                            const QueryContext& ctx) {
  const DomainRuntime* rt = s.runtime(ctx.domain);
  if (rt == nullptr) return Status::NotFound("unknown domain: " + ctx.domain);
  return rt;
}

/// True when the rank stage's N-1 loop can run for this parse (the
/// conditions knowable before execution; the exact-answer count is checked
/// at rank time).
bool IsRelaxable(const ParsedQuestion& parsed) {
  return parsed.assembled.units.size() >= 2 &&
         !parsed.query.superlative.has_value() &&
         !parsed.assembled.contradiction;
}

/// True when `parsed` carries every plan PlanQuestion compiles for it under
/// `options`.
bool IsPlanned(const ParsedQuestion& parsed, const EngineOptions& options) {
  if (parsed.assembled.contradiction) return true;
  if (parsed.plan == nullptr) return false;
  if (!options.enable_partial || !IsRelaxable(parsed)) return true;
  return parsed.unit_plans.size() == parsed.assembled.units.size() &&
         (parsed.assembled.fixed.empty() || parsed.fixed_plan != nullptr);
}

/// The AND of the never-dropped fixed fragments; null when there are none.
db::ExprPtr FixedExpr(const ParsedQuestion& parsed) {
  const auto& fixed = parsed.assembled.fixed;
  return fixed.empty() ? nullptr : db::Expr::MakeAnd(fixed);
}

/// Compiles one relaxation fragment (a unit, or FixedExpr) for its raw row
/// set over the column store: no superlative, no cap.
Result<db::exec::PlanPtr> CompileFragment(const DomainRuntime& rt,
                                          db::ExprPtr expr) {
  db::Query query;
  query.where = std::move(expr);
  query.limit = rt.table->num_rows();
  return rt.planner->Compile(query);
}

/// Executes `query` over the runtime through its compiled plan, unioned
/// with the live delta when one rides on the table.
Result<db::QueryResult> RunQuery(const DomainRuntime& rt,
                                 const db::Query& query,
                                 const db::exec::PhysicalPlan& plan,
                                 std::string* explain_out,
                                 const Deadline& deadline) {
  if (explain_out != nullptr) *explain_out = plan.Explain();
  if (const db::DeltaStore* delta = rt.live_delta()) {
    return db::exec::ExecuteHybrid(*rt.table, *delta, query, plan, deadline);
  }
  return plan.Execute();
}

// ---------------------------------------------------------------------------
// Top-k rank machinery.
// ---------------------------------------------------------------------------

/// Words of a row bitmap per rank block: block b's rows are words
/// [b * kRankBlockWords, (b + 1) * kRankBlockWords).
constexpr std::size_t kRankBlockWords = db::exec::kRankBlockRows / 64;
static_assert(db::exec::kRankBlockRows % 64 == 0,
              "rank blocks must be word-aligned in a row bitmap");

/// Base rows of relaxation fragment `f` of `parsed` as a bitmap over
/// [0, base_rows), from the fragment's plan. Fragment f < units.size() is
/// unit f alone, fragment units.size() the AND of the fixed fragments
/// (every row when there are none).
Result<db::exec::RowBitmap> PlanBaseRows(const DomainRuntime& rt,
                                         const ParsedQuestion& parsed,
                                         std::size_t f,
                                         db::ExecStats* stats) {
  const auto& units = parsed.assembled.units;
  const db::exec::PhysicalPlan* plan = f < units.size()
                                           ? parsed.unit_plans[f].get()
                                           : parsed.fixed_plan.get();
  const std::size_t base_rows = rt.table->num_rows();
  ++stats->fragment_evals;
  db::exec::RowBitmap rows(base_rows);
  if (plan == nullptr) {
    rows.ComplementAll();
  } else {
    auto lazy = plan->ExecuteLazy(stats);
    if (!lazy.ok()) return lazy.status();
    rows = std::move(lazy).value().ToBitmap(base_rows);
  }
  return rows;
}

/// Base rows of fragment `f` through the runtime's fragment memo: the entry
/// under the fragment's key, or on a miss the plan's rows, inserted for
/// later requests.
Result<db::exec::FragmentMemo::Words> MemoBaseRows(
    const DomainRuntime& rt, const ParsedQuestion& parsed, std::size_t f,
    db::ExecStats* stats) {
  db::exec::FragmentMemo& memo = *rt.fragment_memo;
  const std::string& key = parsed.fragment_keys[f];
  if (auto hit = memo.Find(key)) {
    ++stats->fragment_hits;
    return hit;
  }
  auto rows = PlanBaseRows(rt, parsed, f, stats);
  if (!rows.ok()) return rows.status();
  auto words = std::make_shared<const std::vector<std::uint64_t>>(
      rows.value().AnySet() ? std::move(rows).value().TakeWords()
                            : std::vector<std::uint64_t>());
  memo.Insert(key, words);
  return words;
}

/// MemoBaseRows as a bitmap of the request's own, to widen by delta rows.
Result<db::exec::RowBitmap> MemoBaseRowsCopy(const DomainRuntime& rt,
                                             const ParsedQuestion& parsed,
                                             std::size_t f,
                                             db::ExecStats* stats) {
  auto words = MemoBaseRows(rt, parsed, f, stats);
  if (!words.ok()) return words.status();
  db::exec::RowBitmap rows(rt.table->num_rows());
  std::copy(words.value()->begin(), words.value()->end(), rows.word_data());
  return rows;
}

/// Fragment `f`'s rows over the global row space [0, total_rows): its
/// `base` rows, plus the live delta rows that match it under the seed row
/// semantics (db/row_match.h), exactly as the delta union of the relaxed
/// query would. Retired base rows are not masked here.
db::exec::RowBitmap WithDeltaRows(const DomainRuntime& rt,
                                  const ParsedQuestion& parsed,
                                  std::size_t f, db::exec::RowBitmap base,
                                  std::size_t total_rows,
                                  db::ExecStats* stats) {
  const auto& units = parsed.assembled.units;
  const std::size_t base_rows = base.universe();
  base.Grow(total_rows);
  if (const db::DeltaStore* delta = rt.live_delta()) {
    const db::ExprPtr expr =
        f < units.size() ? units[f].expr : FixedExpr(parsed);
    const db::Schema& schema = rt.table->schema();
    std::size_t scanned = 0;
    for (std::size_t i = 0; i < delta->num_rows(); ++i) {
      if (delta->delta_retired(i)) continue;
      ++scanned;
      if (expr == nullptr ||
          db::RecordMatchesExpr(schema, delta->record(i), *expr)) {
        base.Set(static_cast<db::RowId>(base_rows + i));
      }
    }
    stats->rows_verified += scanned;
  }
  return base;
}

/// Below this many rows to score, computing per-block bounds (a per-code
/// representative sweep over the attribute dictionary) can cost more than
/// the scoring it would save, so the sweep runs unpruned.
constexpr std::size_t kMinRankRowsForBounds = 1024;

/// The execute stage: exact answers, scored with the number of units.
Status Execute(const EngineSnapshot& s, const DomainRuntime& rt,
               const ParsedQuestion& parsed, QueryContext* ctx) {
  ctx->result.sql = parsed.sql;
  ctx->result.interpretation = parsed.assembled.interpretation;
  if (parsed.assembled.contradiction) {
    ctx->result.contradiction = true;
    return Status::OK();
  }

  // The compiled plan, unioned with a live ingest delta when one rides on
  // the table. The request's deadline rides along so a delta scan stops
  // mid-flight when it passes.
  Result<db::QueryResult> exec =
      RunQuery(rt, parsed.query, *parsed.plan,
               s.options().explain_plans ? &ctx->result.explain : nullptr,
               ctx->deadline);
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

/// The rank stage (see AnswerQuestion in core/pipeline.h).
Status Rank(const EngineSnapshot& s, const DomainRuntime& rt,
            const ParsedQuestion& parsed, QueryContext* ctx) {
  const EngineOptions& options = s.options();
  AskResult& out = ctx->result;
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

  // Scoring over the global id space: base rows by their dictionary codes
  // against the table's record terms, delta rows from their row-major
  // record — identical semantics either way (core/rank_sim.h). A
  // per-request SimScorer resolves the question side once and computes one
  // similarity per distinct code key, so the per-candidate loops below
  // perform no stemming and no string lookups.
  SimScorer scorer(rt.table->schema(), units, sim);

  // Only the first (answer_cap - exact) partials can ship, so ranking is a
  // bounded top-k selection (db/exec/topk.h), not a full sort. Per-block
  // score upper bounds (db/exec/rank_bounds.h +
  // SimScorer::ComputeBlockBounds) let whole 1024-row blocks be skipped
  // once the k-th best score rises above their best possible score.
  const std::size_t cap = options.answer_cap;
  const std::size_t k =
      out.answers.size() < cap ? cap - out.answers.size() : 0;
  db::exec::TopK topk(k);
  double threshold = topk.threshold();
  db::ExecStats& stats = out.stats;
  auto push = [&](double rank_sim, db::RowId row, std::size_t dropped) {
    if (topk.Push(rank_sim, row, static_cast<std::uint32_t>(dropped)) &&
        topk.threshold() > threshold) {
      threshold = topk.threshold();
      ++stats.rank_threshold_updates;
    }
  };

  const db::exec::RankBounds* rb = rt.rank_bounds.get();
  const double exact_part = static_cast<double>(units.size()) - 1.0;
  db::exec::RowBitmap cand(total_rows);  // the current pass's candidates
  // The word holding row `base_rows` may hold base and delta rows both:
  // block runs read its low bits, the delta sweep its high bits.
  const std::size_t n_words = cand.word_count();
  const std::size_t base_words = (base_rows + 63) / 64;
  const std::size_t tail_word = base_rows / 64;
  const std::uint64_t tail_base_bits =
      (std::uint64_t{1} << (base_rows % 64)) - 1;
  // A rank block holding `rows` of the pass's base candidates.
  struct BlockRun {
    std::size_t block, rows;
  };
  std::vector<BlockRun> runs;
  std::vector<double> ub;  // per-block unit-similarity upper bounds
  std::vector<db::RowId> rows;
  std::vector<double> rank, unit, cut_scores;
  const Deadline& deadline = ctx->deadline;

  // One ranking pass: the rows set in `cand`, scored with unit `dropped`
  // relaxed. Base rows go a rank block at a time, best bound first (stable:
  // equal bounds keep row order), so the threshold nears its final value in
  // the first block scored and later blocks prune against it. Order never
  // changes the answer: TopK keeps the exact (score, row) prefix whatever
  // the push order, and a block is skipped only when its bound is STRICTLY
  // below the threshold (an equal-score smaller-row candidate can still
  // displace the k-th entry). `single` is the single-condition sweep, where
  // only a positive similarity ranks, so a block bounded at 0 is skipped
  // too. Delta rows follow in id order. Graceful degradation: the deadline
  // is re-checked per block run; on expiry the pass stops, the partials
  // kept so far still rank and ship below, and the result is marked
  // degraded instead of failing a request whose exact answers are already
  // correct. Returns false then.
  auto rank_pass = [&](std::size_t dropped, bool single) {
    const std::uint64_t* c = cand.word_data();
    auto base_word = [&](std::size_t w) {
      return w == tail_word ? c[w] & tail_base_bits : c[w];
    };
    runs.clear();
    std::size_t n_base = 0;
    for (std::size_t w_lo = 0; w_lo < base_words; w_lo += kRankBlockWords) {
      const std::size_t w_hi = std::min(w_lo + kRankBlockWords, base_words);
      std::size_t n = 0;
      for (std::size_t w = w_lo; w < w_hi; ++w) {
        n += db::exec::PopCount64(base_word(w));
      }
      if (n != 0) runs.push_back(BlockRun{w_lo / kRankBlockWords, n});
      n_base += n;
    }
    const bool prunable =
        rb != nullptr && n_base >= kMinRankRowsForBounds &&
        scorer.ComputeBlockBounds(*rt.table, *rb, dropped, &ub);
    if (prunable) {
      std::stable_sort(runs.begin(), runs.end(),
                       [&](const BlockRun& a, const BlockRun& b) {
                         return ub[a.block] > ub[b.block];
                       });
    }
    for (const BlockRun& run : runs) {
      if (deadline.expired()) return false;
      if (prunable && (exact_part + ub[run.block] < threshold ||
                       (single && ub[run.block] <= 0.0))) {
        ++stats.rank_blocks_skipped;
        stats.rank_rows_pruned += run.rows;
        continue;
      }
      ++stats.rank_blocks_visited;
      // Row ids are gathered only for blocks that are scored.
      rows.resize(run.rows);
      db::RowId* dst = rows.data();
      const std::size_t w_lo = run.block * kRankBlockWords;
      const std::size_t w_hi = std::min(w_lo + kRankBlockWords, base_words);
      for (std::size_t w = w_lo; w < w_hi; ++w) {
        for (std::uint64_t bits = base_word(w); bits != 0; bits &= bits - 1) {
          *dst++ = static_cast<db::RowId>(w * 64 + __builtin_ctzll(bits));
        }
      }
      rank.resize(run.rows);
      unit.resize(run.rows);
      scorer.ScoreBlock(*rt.table, rows.data(), run.rows, dropped,
                        rank.data(), unit.data());
      // The block cut (db/exec/topk.h): a row below the block's k-th best
      // score has k strictly better rows beside it and is never pushed.
      // Pruned passes only: on a one-block table the cut costs more than
      // the pushes it saves.
      double cut = -std::numeric_limits<double>::infinity();
      if (prunable && run.rows > k) {
        cut_scores.clear();
        for (std::size_t i = 0; i < run.rows; ++i) {
          if (!single || unit[i] > 0.0) cut_scores.push_back(rank[i]);
        }
        cut = db::exec::KthBestScore(cut_scores.data(), cut_scores.size(), k);
      }
      for (std::size_t i = 0; i < run.rows; ++i) {
        if ((single && unit[i] <= 0.0) || rank[i] < cut) continue;
        push(rank[i], rows[i], dropped);
      }
    }
    // Delta candidates: the bits at or past base_rows, ascending, checked
    // against the deadline once per block's worth of ids.
    for (std::size_t w = tail_word; delta != nullptr && w < n_words; ++w) {
      if ((w - tail_word) % kRankBlockWords == 0 && deadline.expired()) {
        return false;
      }
      std::uint64_t bits = w == tail_word ? c[w] & ~tail_base_bits : c[w];
      for (; bits != 0; bits &= bits - 1) {
        const auto row =
            static_cast<db::RowId>(w * 64 + __builtin_ctzll(bits));
        double rank_sim = 0.0, unit_sim = 0.0;
        scorer.ScoreRecord(delta->record(row - base_rows), dropped,
                           &rank_sim, &unit_sim);
        if (single && unit_sim <= 0.0) continue;
        push(rank_sim, row, dropped);
      }
    }
    return true;
  };

  bool degraded = false;
  if (units.size() >= 2) {
    // N-1 relaxation as set algebra. Relaxation d selects F AND every
    // unit but d (F: the fixed fragments), which is the row set of the
    // paper's relaxed query d (the reference oracle runs each one), so
    // each fragment is evaluated ONCE per request as a bitmap
    // over the global row space and every pass is word-parallel ANDs.
    // Tombstones: retired delta rows never enter a fragment, retired base
    // rows are cleared from F once.
    //
    // On a base table with a fragment memo, a fragment's base rows come
    // from the memo: with no live delta the passes AND the memoized words
    // in place, with one they are copied and widened by the delta rows.
    const std::size_t n_units = units.size();
    const bool memoized = rt.fragment_memo != nullptr &&
                          parsed.fragment_keys.size() == n_units + 1;
    // Fragment f's words over [0, total_rows) (units 0..N-1, then F), and
    // whether it selects any row. They point into `owned` (per-request
    // bitmaps) or into `pinned` (memo entries, kept alive for the request
    // should the memo evict them meanwhile).
    std::vector<const std::uint64_t*> frag;
    std::vector<char> empty;
    std::vector<db::exec::RowBitmap> owned;
    std::vector<db::exec::FragmentMemo::Words> pinned;
    owned.reserve(n_units + 1);
    for (std::size_t f = 0; f <= n_units; ++f) {
      if (deadline.expired()) {
        degraded = true;
        break;
      }
      // A fragment that cannot be evaluated selects nothing: the passes
      // that keep it are skipped, as a failing relaxed query skips its
      // pass.
      if (memoized && delta == nullptr) {
        auto words = MemoBaseRows(rt, parsed, f, &stats);
        const bool none = !words.ok() || words.value()->empty();
        frag.push_back(none ? nullptr : words.value()->data());
        empty.push_back(none);
        if (!none) pinned.push_back(std::move(words).value());
        continue;
      }
      auto base = memoized ? MemoBaseRowsCopy(rt, parsed, f, &stats)
                           : PlanBaseRows(rt, parsed, f, &stats);
      owned.push_back(base.ok() ? WithDeltaRows(rt, parsed, f,
                                                std::move(base).value(),
                                                total_rows, &stats)
                                : db::exec::RowBitmap(total_rows));
      frag.push_back(owned.back().word_data());
      empty.push_back(!owned.back().AnySet());
    }
    // With a live delta every fragment is owned, F last.
    if (!degraded && delta != nullptr) {
      for (db::RowId r : delta->retired_base()) owned.back().Reset(r);
    }

    std::vector<const std::uint64_t*> kept;
    for (std::size_t dropped = 0; !degraded && dropped < n_units;
         ++dropped) {
      if (deadline.expired()) {
        degraded = true;
        break;
      }
      kept.clear();
      bool empty_pass = false;
      for (std::size_t f = 0; f <= n_units; ++f) {
        if (f == dropped) continue;
        empty_pass = empty_pass || empty[f];
        kept.push_back(frag[f]);
      }
      if (empty_pass) continue;
      // Passes run in d order and dedup against every earlier pass (and
      // the exact answers), so the first pass to reach a row owns its
      // measure label, exactly as in the paper's pass-by-pass loop.
      std::uint64_t* seen = already.word_data();
      std::uint64_t* c = cand.word_data();
      for (std::size_t w = 0; w < n_words; ++w) {
        std::uint64_t pass = kept[0][w];
        for (std::size_t j = 1; j < kept.size(); ++j) pass &= kept[j][w];
        c[w] = pass & ~seen[w];
        seen[w] |= pass;
      }
      degraded = !rank_pass(dropped, /*single=*/false);
    }
  } else {
    // A single condition has nothing to relax: every live row not already
    // answered is a candidate, fixed fragments ignored (§4.3.1, last
    // paragraph).
    cand = already;
    cand.ComplementAll();
    if (delta != nullptr) {
      for (db::RowId r : delta->retired_base()) cand.Reset(r);
      for (std::size_t i = 0; i < delta->num_rows(); ++i) {
        if (delta->delta_retired(i)) {
          cand.Reset(static_cast<db::RowId>(base_rows + i));
        }
      }
    }
    degraded = !rank_pass(0, /*single=*/true);
  }

  stats.rank_rows_scored += scorer.rows_scored();
  stats.rank_sim_evals += scorer.sim_evals();
  for (const auto& e : topk.Take()) {
    out.answers.push_back(
        Answer{e.row, false, e.score, scorer.unit_measure(e.tag)});
  }
  if (degraded) out.degraded = true;
  if (!out.explain.empty()) {
    out.explain +=
        "rank: blocks_visited=" + std::to_string(stats.rank_blocks_visited) +
        " blocks_skipped=" + std::to_string(stats.rank_blocks_skipped) +
        " rows_pruned=" + std::to_string(stats.rank_rows_pruned) +
        " threshold_updates=" +
        std::to_string(stats.rank_threshold_updates) +
        " rows_scored=" + std::to_string(stats.rank_rows_scored) +
        " sim_evals=" + std::to_string(stats.rank_sim_evals) +
        " fragment_hits=" + std::to_string(stats.fragment_hits) +
        " fragment_evals=" + std::to_string(stats.fragment_evals) + "\n";
  }
  return Status::OK();
}

}  // namespace

QueryContext::QueryContext(std::string question_text, std::string domain_name)
    : question(std::move(question_text)), domain(std::move(domain_name)) {
  result.domain = domain;
}

const text::TokenList& QueryContext::tokens() {
  if (!tokens_ready_) {
    tokens_ = text::Tokenize(question);
    tokens_ready_ = true;
  }
  return tokens_;
}

Status ClassifyQuestion(const EngineSnapshot& snapshot, QueryContext* ctx) {
  return RunStage("classify", ctx, [&] {
    if (ctx->domain.empty()) {
      // The shared once-per-request token stream feeds classification;
      // the tag stage reuses it instead of re-tokenizing the question.
      auto domain = snapshot.ClassifyDomainTokens(ctx->tokens());
      if (!domain.ok()) return domain.status();
      ctx->domain = std::move(domain).value();
    }
    ctx->result.domain = ctx->domain;
    return Status::OK();
  });
}

Result<ParsedQuestion> ParseQuestion(const EngineSnapshot& snapshot,
                                     QueryContext* ctx) {
  auto rt_result = RequireRuntime(snapshot, *ctx);
  if (!rt_result.ok()) return rt_result.status();
  const DomainRuntime& rt = *rt_result.value();
  const db::Schema& schema = rt.table->schema();
  ParsedQuestion parsed;
  CQADS_RETURN_NOT_OK(RunStage("tag", ctx, [&] {
    parsed.tags = rt.tagger->TagTokens(ctx->tokens());
    return Status::OK();
  }));
  CQADS_RETURN_NOT_OK(RunStage("conditions", ctx, [&] {
    parsed.conditions = BuildConditions(parsed.tags.items, schema);
    return Status::OK();
  }));
  CQADS_RETURN_NOT_OK(RunStage("assemble", ctx, [&] {
    // §4.2.2 resolver over the column statistics frozen into the snapshot:
    // candidate attributes are those whose observed [min, max] contains
    // the bare number; '$' restricts to money attributes.
    auto assembled = AssembleQuery(parsed.conditions, schema,
                                   MakeStatsResolver(&schema, rt.stats));
    if (!assembled.ok()) return assembled.status();
    parsed.assembled = std::move(assembled).value();
    return Status::OK();
  }));
  CQADS_RETURN_NOT_OK(RunStage("render_sql", ctx, [&] {
    parsed.query.where = parsed.assembled.where;
    parsed.query.superlative = parsed.assembled.superlative;
    parsed.query.limit = snapshot.options().answer_cap;
    parsed.sql = db::WriteSql(schema, parsed.query);
    return Status::OK();
  }));
  return parsed;
}

Status PlanQuestion(const EngineSnapshot& snapshot, QueryContext* ctx,
                    ParsedQuestion* parsed) {
  auto rt_result = RequireRuntime(snapshot, *ctx);
  if (!rt_result.ok()) return rt_result.status();
  const DomainRuntime& rt = *rt_result.value();
  return RunStage("plan", ctx, [&] {
    // A rule-1c contradiction never executes: don't compile (or cache) a
    // plan that cannot run.
    if (parsed->assembled.contradiction) return Status::OK();
    auto plan = rt.planner->Compile(parsed->query);
    if (!plan.ok()) return plan.status();
    parsed->plan = std::move(plan).value();

    // The N-1 relaxation's fragments too — one plan per unit plus one for
    // the fixed fragments, which the rank stage combines as bitmaps — so a
    // prepared-cache hit replays partial retrieval without compiling.
    // Eager by design: a cached ParsedQuestion is immutable and shared
    // across threads, so lazy fill-at-rank-time would need synchronization
    // on the hot path, and on the paper workload most questions do rank
    // partials.
    // On a runtime with a fragment memo, each fragment's memo key too.
    if (snapshot.options().enable_partial && IsRelaxable(*parsed)) {
      const bool memoized = rt.fragment_memo != nullptr;
      for (const MatchUnit& unit : parsed->assembled.units) {
        auto unit_plan = CompileFragment(rt, unit.expr);
        if (!unit_plan.ok()) return unit_plan.status();
        parsed->unit_plans.push_back(std::move(unit_plan).value());
        if (memoized) {
          parsed->fragment_keys.push_back(
              db::exec::FragmentKey(unit.expr.get()));
        }
      }
      const db::ExprPtr fixed = FixedExpr(*parsed);
      if (memoized) {
        parsed->fragment_keys.push_back(db::exec::FragmentKey(fixed.get()));
      }
      if (fixed != nullptr) {
        auto fixed_plan = CompileFragment(rt, fixed);
        if (!fixed_plan.ok()) return fixed_plan.status();
        parsed->fixed_plan = std::move(fixed_plan).value();
      }
    }
    return Status::OK();
  });
}

Status AnswerQuestion(const EngineSnapshot& snapshot,
                      const ParsedQuestion& parsed, QueryContext* ctx) {
  auto rt_result = RequireRuntime(snapshot, *ctx);
  if (!rt_result.ok()) return rt_result.status();
  const DomainRuntime& rt = *rt_result.value();
  if (!IsPlanned(parsed, snapshot.options())) {
    return Status::FailedPrecondition(
        "parse lacks the plans PlanQuestion compiles");
  }
  CQADS_RETURN_NOT_OK(RunStage(
      "execute", ctx, [&] { return Execute(snapshot, rt, parsed, ctx); }));
  if (parsed.assembled.contradiction) return Status::OK();
  return RunStage(
      "rank", ctx, [&] { return Rank(snapshot, rt, parsed, ctx); },
      /*degradable=*/true);
}

}  // namespace cqads::core
