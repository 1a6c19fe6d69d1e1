// The ask path. The paper answers a question with one fixed sequence —
//   classify (§3) -> tag/repair (§4.1-4.2) -> build conditions (§4.1.2)
//   -> assemble Boolean query (§4.4) -> render SQL (§4.5) -> plan
//   -> execute (§4.3/§4.5) -> Rank_Sim partial ranking (§4.3.1-4.3.2)
// — and this header runs it as four functions over an immutable
// EngineSnapshot and a per-request QueryContext:
//
//   ClassifyQuestion  classify
//   ParseQuestion     tag, conditions, assemble, render_sql
//   PlanQuestion      plan
//   AnswerQuestion    execute, rank
//
// A full ask calls all four in order; the prepared-query cache memoizes
// what ClassifyQuestion, ParseQuestion and PlanQuestion produce, so a cache
// hit calls only AnswerQuestion. Every stage runs through one
// wrapper that evaluates the "pipeline.<stage>" failpoint, checks the
// deadline at the stage boundary and appends the stage's StageTiming.
// Nothing here touches shared mutable state: everything request-scoped
// (the tokens, the answer under construction, timings, the deadline)
// lives in the context, so one snapshot serves any number of concurrent
// contexts.
//
// There is one serving path: tag on the frozen flat trie, execute compiled
// plans block-at-a-time, rank partials through the pruned top-k sweep.
// Its answers are checked against the test-only reference oracle
// (reference/reference_ask.h), which calls ClassifyQuestion and
// ParseQuestion and then runs the paper's algorithm over the seed executor
// and string-keyed scoring.
#ifndef CQADS_CORE_PIPELINE_H_
#define CQADS_CORE_PIPELINE_H_

#include <string>

#include "common/deadline.h"
#include "common/status.h"
#include "core/ask_types.h"
#include "core/engine_snapshot.h"
#include "text/term_dict.h"
#include "text/token.h"

namespace cqads::core {

/// Per-request state threaded through the four functions.
struct QueryContext {
  /// `domain` empty: ClassifyQuestion classifies the question. Non-empty:
  /// the domain is kept (the AskInDomain path).
  explicit QueryContext(std::string question_text, std::string domain_name = "");

  std::string question;
  std::string domain;

  /// The question's token stream, produced ONCE on first use and shared by
  /// classification (§3 features) and tagging (§4.1).
  const text::TokenList& tokens();

  /// The answer under construction; every stage appends its timing here.
  AskResult result;

  /// The request's budget. Default-infinite: the no-deadline path never
  /// reads the clock. Checked at every stage boundary, by the execute stage
  /// per delta-scan chunk and by the rank stage per relaxation pass and
  /// block run.
  Deadline deadline;

 private:
  bool tokens_ready_ = false;
  text::TokenList tokens_;
};

/// §3: the "classify" stage. Sets ctx->domain (and ctx->result.domain)
/// from the snapshot's classifier over ctx->tokens(); keeps a preset
/// domain.
Status ClassifyQuestion(const EngineSnapshot& snapshot, QueryContext* ctx);

/// §4.1-4.5: the "tag", "conditions", "assemble" and "render_sql" stages
/// within ctx->domain (NotFound when the snapshot has no such domain).
/// The result carries no plans yet.
Result<ParsedQuestion> ParseQuestion(const EngineSnapshot& snapshot,
                                     QueryContext* ctx);

/// The "plan" stage: compiles `parsed->query` into a cost-aware physical
/// plan (db/exec/planner.h) and, for a relaxable question, one plan per
/// match unit plus one for the fixed fragments, which the rank stage
/// combines as bitmaps, and on a runtime with a fragment memo each
/// fragment's memo key. A contradiction, which never executes, gets none.
/// The plans ride on the ParsedQuestion, so the prepared-query cache
/// memoizes them with the rest of the parse, per parse generation.
Status PlanQuestion(const EngineSnapshot& snapshot, QueryContext* ctx,
                    ParsedQuestion* parsed);

/// The "execute" and "rank" stages over a parse that PlanQuestion
/// completed on this snapshot; one that lacks its plans fails with
/// FailedPrecondition.
///   execute  §4.3/§4.5 exact evaluation through the compiled plan,
///            unioned with the live ingest delta; a rule-1c contradiction
///            ("search retrieved no results") ends the request here.
///   rank     §4.3.1-4.3.2 N-1 partial retrieval ranked by Rank_Sim,
///            capped at answer_cap. Each unit and the fixed fragments are
///            evaluated once as row bitmaps, relaxation d is the AND of
///            the fixed fragments and every unit but d, and one serial
///            top-k loop visits each pass's blocks best bound first,
///            skipping those that bound below the k-th score. On a base
///            table larger than one rank block, a fragment's base rows
///            come from the table's fragment memo (db/exec/fragment_memo.h),
///            so its plan runs once per base table, not once per request,
///            and a pruned pass pushes only each scored block's k best
///            scores into the top k (the block cut, db/exec/topk.h). A
///            single-condition question is one pass over every live row.
///            Degradable: when the deadline has passed before it, or
///            passes between its block runs, the partials kept so far are
///            appended and the result is marked degraded instead of
///            failing a request whose exact answers are complete.
Status AnswerQuestion(const EngineSnapshot& snapshot,
                      const ParsedQuestion& parsed, QueryContext* ctx);

}  // namespace cqads::core

#endif  // CQADS_CORE_PIPELINE_H_
