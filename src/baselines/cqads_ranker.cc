#include "baselines/cqads_ranker.h"

#include <algorithm>

namespace cqads::baselines {

double CqadsRanker::ScoreWith(const RankInput& input, db::RowId row,
                              core::SimScorer* scorer) {
  db::Executor exec(input.table);
  double satisfied = 0.0;
  double best_unsat_sim = 0.0;
  bool any_unsat = false;
  for (std::size_t u = 0; u < input.units.size(); ++u) {
    const core::MatchUnit& unit = input.units[u];
    if (unit.expr && exec.MatchesExpr(row, *unit.expr)) {
      satisfied += 1.0;
    } else {
      any_unsat = true;
      best_unsat_sim = std::max(best_unsat_sim,
                                scorer->Score(*input.table, row, u).unit_sim);
    }
  }
  return satisfied + (any_unsat ? best_unsat_sim : 0.0);
}

double CqadsRanker::Score(const RankInput& input, db::RowId row) const {
  core::SimScorer scorer(input.table->schema(), input.units, *ctx_);
  return ScoreWith(input, row, &scorer);
}

std::vector<db::RowId> CqadsRanker::Rank(const RankInput& input,
                                         std::size_t k) {
  core::SimScorer scorer(input.table->schema(), input.units, *ctx_);
  std::vector<std::pair<double, db::RowId>> scored;
  scored.reserve(input.candidates.size());
  for (db::RowId row : input.candidates) {
    scored.emplace_back(ScoreWith(input, row, &scorer), row);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first > b.first;
                     return a.second < b.second;
                   });
  std::vector<db::RowId> out;
  for (const auto& [score, row] : scored) {
    if (out.size() >= k) break;
    out.push_back(row);
  }
  return out;
}

}  // namespace cqads::baselines
