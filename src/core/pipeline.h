// The staged ask pipeline. The paper's monolithic Ask flow —
//   classify (§3) -> tag/repair (§4.1-4.2) -> build conditions (§4.1.2)
//   -> assemble Boolean query (§4.4) -> render SQL (§4.5)
//   -> execute (§4.3/§4.5) -> Rank_Sim partial ranking (§4.3.1-4.3.2)
// — decomposed into composable PipelineStages that operate on an immutable
// EngineSnapshot and a per-request QueryContext. Stages never touch shared
// mutable state: everything request-scoped (intermediate artifacts, the
// answer under construction, timings, the request RNG) lives in the
// context, so one snapshot serves any number of concurrent contexts.
//
// There is one serving path: tag on the frozen flat trie, execute compiled
// plans block-at-a-time, rank partials through the pruned top-k sweep.
// Its answers are checked against the test-only reference oracle
// (reference/reference_ask.h), which runs the same parse stages and then
// the paper's algorithm over the seed executor and string-keyed scoring.
#ifndef CQADS_CORE_PIPELINE_H_
#define CQADS_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/ask_types.h"
#include "core/engine_snapshot.h"
#include "text/term_dict.h"
#include "text/token.h"

namespace cqads::core {

/// Per-request scratch state threaded through the stages.
struct QueryContext {
  /// `domain` empty: the classify stage runs. Non-empty: classification is
  /// skipped (the AskInDomain path, or a cache hit that already knows it).
  explicit QueryContext(std::string question_text, std::string domain_name = "");

  std::string question;
  std::string domain;

  /// The question's token stream, produced ONCE on first use and shared by
  /// every stage (§3 classification features, §4.1 tagging). Before the
  /// term substrate, classify and tag each re-tokenized the raw string.
  const text::TokenList& tokens();

  /// Parse-side artifacts (tag -> conditions -> assembly -> SQL), filled
  /// by the parse stages. Unused when `cached_parsed` is set.
  ParsedQuestion parsed;

  /// A memoized parse injected by the prepared-query cache. When set, the
  /// parse stages are skipped and the execution stages read through it —
  /// no copy: the immutable ParsedQuestion is shared across all concurrent
  /// requests that hit the same entry.
  std::shared_ptr<const ParsedQuestion> cached_parsed;

  bool parsed_from_cache() const { return cached_parsed != nullptr; }

  /// The parse the execution stages should read: the cached one when
  /// present, this request's own otherwise.
  const ParsedQuestion& parsed_view() const {
    return cached_parsed ? *cached_parsed : parsed;
  }

  /// The answer under construction; stages fill it incrementally.
  AskResult result;

  /// Set by a stage to short-circuit the rest of the pipeline (e.g. a rule
  /// 1c contradiction: "search retrieved no results").
  bool done = false;

  /// The request's budget. Default-infinite: the no-deadline path never
  /// reads the clock and behaves byte-identically to the pre-deadline
  /// engine. The pipeline checks it at stage boundaries, the execute stage
  /// per delta-scan chunk, the rank stage per relaxation pass and block
  /// run.
  Deadline deadline;

  /// Per-request deterministic RNG (seeded from the question text), so any
  /// stochastic stage draws from request-local state instead of a shared
  /// generator — a shared Rng would race under the concurrent server.
  Rng rng;

 private:
  bool tokens_ready_ = false;
  text::TokenList tokens_;
};

/// One stage of the ask pipeline. Implementations must be stateless (or
/// immutable after construction): a single stage instance runs concurrent
/// requests.
class PipelineStage {
 public:
  virtual ~PipelineStage() = default;
  virtual const char* name() const = 0;
  /// May read anything from the snapshot, mutates only the context.
  virtual Status Run(const EngineSnapshot& snapshot,
                     QueryContext* ctx) const = 0;
  /// True when the stage only IMPROVES an answer that is already complete
  /// and correct without it (RankStage's partial retrieval). When the
  /// deadline expires before such a stage, the pipeline skips it and marks
  /// the result degraded instead of failing the whole request.
  virtual bool degradable() const { return false; }
};

/// An ordered stage sequence. Run() executes stages in order, records a
/// per-stage wall-clock timing into ctx->result.timings, and stops early
/// when a stage fails or sets ctx->done.
class QueryPipeline {
 public:
  explicit QueryPipeline(std::vector<std::unique_ptr<PipelineStage>> stages)
      : stages_(std::move(stages)) {}

  Status Run(const EngineSnapshot& snapshot, QueryContext* ctx) const;

  const std::vector<std::unique_ptr<PipelineStage>>& stages() const {
    return stages_;
  }

  /// The full ask pipeline: classify, tag, conditions, assemble, render,
  /// plan, execute, rank. Shared immutable instance.
  static const QueryPipeline& Full();

  /// Parse-side only (tag -> render -> plan); what CqadsEngine::Parse and
  /// the prepared-query cache's fill path run.
  static const QueryPipeline& ParseOnly();

 private:
  std::vector<std::unique_ptr<PipelineStage>> stages_;
};

// --- concrete stages (exposed for tests and custom pipelines) -----------

/// §3: classify the question's ads domain; skipped when ctx->domain preset.
class ClassifyStage : public PipelineStage {
 public:
  const char* name() const override { return "classify"; }
  Status Run(const EngineSnapshot& s, QueryContext* ctx) const override;
};

/// §4.1-4.2: trie tagging with spelling/segmentation/shorthand repair.
class TagStage : public PipelineStage {
 public:
  const char* name() const override { return "tag"; }
  Status Run(const EngineSnapshot& s, QueryContext* ctx) const override;
};

/// §4.1.2: context-switching analysis merging tags into conditions.
class ConditionStage : public PipelineStage {
 public:
  const char* name() const override { return "conditions"; }
  Status Run(const EngineSnapshot& s, QueryContext* ctx) const override;
};

/// §4.4 rules 1-4 plus §4.2.2 ambiguous-number resolution.
class AssembleStage : public PipelineStage {
 public:
  const char* name() const override { return "assemble"; }
  Status Run(const EngineSnapshot& s, QueryContext* ctx) const override;
};

/// §4.5: executable query + nested-subquery SQL text.
class RenderSqlStage : public PipelineStage {
 public:
  const char* name() const override { return "render_sql"; }
  Status Run(const EngineSnapshot& s, QueryContext* ctx) const override;
};

/// Compiles the executable query into a cost-aware physical plan
/// (db/exec/planner.h) over the domain's column store. For a relaxable
/// question it also compiles the N-1 relaxation's fragments: one plan per
/// match unit and one for the fixed fragments, which RankStage combines. Part of the parse-side
/// pipeline, so the prepared-query cache memoizes compiled plans per
/// snapshot version along with the rest of the ParsedQuestion.
class PlanStage : public PipelineStage {
 public:
  const char* name() const override { return "plan"; }
  Status Run(const EngineSnapshot& s, QueryContext* ctx) const override;
};

/// §4.3/§4.5 exact evaluation through the compiled plan, unioned with the
/// live ingest delta; short-circuits on a contradiction.
class ExecuteStage : public PipelineStage {
 public:
  const char* name() const override { return "execute"; }
  Status Run(const EngineSnapshot& s, QueryContext* ctx) const override;
};

/// §4.3.1-4.3.2: N-1 partial retrieval ranked by Rank_Sim, capped at 30.
/// It evaluates each unit and the fixed fragments once, as row bitmaps,
/// builds relaxation d as the AND of the fixed fragments and every unit
/// but d, word by word, and selects the top k in one serial loop that
/// visits each pass's blocks best bound first and skips those that bound
/// below the k-th score (the reference oracle runs each relaxation as its
/// own query and sorts every candidate). A single-condition question is
/// one pass over every live row. Degradable: under deadline pressure it
/// stops after the best-so-far block run (the partials collected so far
/// are still ranked and appended) and marks the result degraded rather
/// than returning nothing.
class RankStage : public PipelineStage {
 public:
  const char* name() const override { return "rank"; }
  Status Run(const EngineSnapshot& s, QueryContext* ctx) const override;
  bool degradable() const override { return true; }
};

}  // namespace cqads::core

#endif  // CQADS_CORE_PIPELINE_H_
