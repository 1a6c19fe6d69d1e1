#include "reference/reference_ask.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/rank_sim.h"
#include "db/exec/rowset_ops.h"
#include "db/executor.h"
#include "db/row_match.h"
#include "reference/string_rank_sim.h"

namespace cqads::reference {
namespace {

using core::Answer;
using core::AskResult;
using core::ParsedQuestion;

/// The §4.3.1 N-1 relaxation of a parsed question: all units except
/// `dropped`, plus the never-dropped fixed fragments, uncapped (ranking
/// happens before the answer cap).
db::Query MakeRelaxedQuery(const ParsedQuestion& parsed, std::size_t dropped,
                           std::size_t table_rows) {
  const auto& units = parsed.assembled.units;
  std::vector<db::ExprPtr> parts;
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (u != dropped) parts.push_back(units[u].expr);
  }
  for (const auto& f : parsed.assembled.fixed) parts.push_back(f);
  db::Query relaxed;
  relaxed.where = parts.empty() ? nullptr : db::Expr::MakeAnd(parts);
  relaxed.limit = table_rows;
  return relaxed;
}

/// Runs `query` through the seed executor. With a live delta it builds the
/// base ∪ delta union itself, in the steps the serving path's ExecuteHybrid
/// takes over a plan: the base rows the WHERE clause selects minus the
/// tombstoned ones, then every live delta record it matches, row at a time
/// (global id base_rows + slot), then the superlative and the cap over the
/// combined ids.
Result<db::QueryResult> RunSeed(const core::DomainRuntime& rt,
                                const db::Query& query) {
  const db::Table& base = *rt.table;
  const db::DeltaStore* delta = rt.live_delta();
  if (delta == nullptr) return db::ExecuteQuery(base, query);

  const std::size_t base_rows = base.num_rows();
  db::Query raw = query;
  raw.superlative = std::nullopt;
  raw.limit = base_rows;
  auto base_result = db::ExecuteQuery(base, raw);
  if (!base_result.ok()) return base_result.status();
  db::QueryResult result = std::move(base_result).value();

  const db::RowSet& retired = delta->retired_base();
  db::RowSet rows;
  for (db::RowId row : result.rows) {
    if (!std::binary_search(retired.begin(), retired.end(), row)) {
      rows.push_back(row);
    }
  }
  for (std::size_t i = 0; i < delta->num_rows(); ++i) {
    if (delta->delta_retired(i)) continue;
    if (query.where == nullptr ||
        db::RecordMatchesExpr(base.schema(), delta->record(i), *query.where)) {
      rows.push_back(static_cast<db::RowId>(base_rows + i));
    }
  }
  db::exec::ApplySuperlativeAndCap(
      &rows, query.superlative,
      [&](db::RowId row, std::size_t attr) -> const db::Value& {
        return row < base_rows ? base.cell(row, attr)
                               : delta->record(row - base_rows)[attr];
      },
      query.limit);
  result.rows = std::move(rows);
  return result;
}

/// Classifies (a preset domain is kept) and parses with the production
/// functions, then answers from the parse without compiling a plan.
Result<AskResult> AnswerInContext(const core::EngineSnapshot& snapshot,
                                  core::QueryContext* ctx) {
  CQADS_RETURN_NOT_OK(core::ClassifyQuestion(snapshot, ctx));
  auto parse = core::ParseQuestion(snapshot, ctx);
  if (!parse.ok()) return parse.status();
  const core::DomainRuntime* rt = snapshot.runtime(ctx->domain);
  const core::EngineOptions& options = snapshot.options();
  const ParsedQuestion& parsed = parse.value();
  const auto& units = parsed.assembled.units;
  AskResult& out = ctx->result;
  out.sql = parsed.sql;
  out.interpretation = parsed.assembled.interpretation;
  if (parsed.assembled.contradiction) {
    out.contradiction = true;
    return std::move(out);
  }

  // Exact answers score the number of units (Eq. 5 with nothing dropped).
  auto exact = RunSeed(*rt, parsed.query);
  if (!exact.ok()) return exact.status();
  out.stats = exact.value().stats;
  for (db::RowId row : exact.value().rows) {
    out.answers.push_back(
        Answer{row, true, static_cast<double>(units.size()), ""});
  }
  out.exact_count = out.answers.size();
  if (!options.enable_partial ||
      out.answers.size() >= options.partial_trigger || units.empty() ||
      parsed.query.superlative.has_value()) {
    return std::move(out);
  }

  const db::Table& table = *rt->table;
  const db::DeltaStore* delta = rt->live_delta();
  const std::size_t base_rows = table.num_rows();
  const std::size_t total_rows =
      base_rows + (delta != nullptr ? delta->num_rows() : 0);
  // The string scorer needs no record terms, so the oracle leaves the
  // runtime's unbuilt.
  core::SimilarityContext sim;
  sim.ti = rt->ti_matrix.get();
  sim.ws = snapshot.word_similarity();
  sim.attr_ranges = &rt->attr_ranges;
  auto score = [&](db::RowId row, std::size_t dropped) {
    if (row < base_rows) {
      return ScorePartialMatch(table, row, units, dropped, sim);
    }
    return ScorePartialMatch(table.schema(), delta->record(row - base_rows),
                             units, dropped, sim);
  };
  auto is_live = [&](db::RowId row) {
    if (delta == nullptr) return true;
    if (row >= base_rows) return !delta->delta_retired(row - base_rows);
    const auto& retired = delta->retired_base();
    return !std::binary_search(retired.begin(), retired.end(), row);
  };

  // A row belongs to the first pass that reaches it (exact answers first),
  // which fixes its score and measure label.
  std::vector<bool> seen(total_rows, false);
  for (const Answer& a : out.answers) seen[a.row] = true;
  std::vector<Answer> partials;
  if (units.size() >= 2) {
    for (std::size_t dropped = 0; dropped < units.size(); ++dropped) {
      auto relaxed =
          RunSeed(*rt, MakeRelaxedQuery(parsed, dropped, total_rows));
      if (!relaxed.ok()) continue;
      out.stats += relaxed.value().stats;
      for (db::RowId row : relaxed.value().rows) {
        if (seen[row]) continue;
        seen[row] = true;
        const core::PartialScore s = score(row, dropped);
        partials.push_back(Answer{row, false, s.rank_sim, s.measure});
      }
    }
  } else {
    // A single condition has nothing to relax: every record is matched
    // against it by similarity alone (§4.3.1, last paragraph).
    for (db::RowId row = 0; row < total_rows; ++row) {
      if (seen[row] || !is_live(row)) continue;
      const core::PartialScore s = score(row, 0);
      if (s.unit_sim <= 0.0) continue;
      partials.push_back(Answer{row, false, s.rank_sim, s.measure});
    }
  }

  std::sort(partials.begin(), partials.end(),
            [](const Answer& a, const Answer& b) {
              if (a.rank_sim != b.rank_sim) return a.rank_sim > b.rank_sim;
              return a.row < b.row;
            });
  for (const Answer& p : partials) {
    if (out.answers.size() >= options.answer_cap) break;
    out.answers.push_back(p);
  }
  return std::move(out);
}

}  // namespace

Result<AskResult> ReferenceAskInDomain(const core::EngineSnapshot& snapshot,
                                       const std::string& domain,
                                       const std::string& question) {
  core::QueryContext ctx(question, domain);
  return AnswerInContext(snapshot, &ctx);
}

Result<AskResult> ReferenceAsk(const core::EngineSnapshot& snapshot,
                               const std::string& question) {
  core::QueryContext ctx(question);
  return AnswerInContext(snapshot, &ctx);
}

}  // namespace cqads::reference
