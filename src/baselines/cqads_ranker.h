// CQAds' own ranking strategy exposed through the shared Ranker interface,
// so the §5.5 comparison treats all five approaches identically. Candidates
// are ordered by Rank_Sim (Eq. 5): satisfied units count 1 each and the
// best-scoring unsatisfied unit contributes its domain similarity, scored by
// core::SimScorer, the serving path's Eq. 5 scorer.
#ifndef CQADS_BASELINES_CQADS_RANKER_H_
#define CQADS_BASELINES_CQADS_RANKER_H_

#include "baselines/ranker.h"
#include "core/rank_sim.h"

namespace cqads::baselines {

class CqadsRanker : public Ranker {
 public:
  /// `ctx` must outlive the ranker.
  explicit CqadsRanker(const core::SimilarityContext* ctx) : ctx_(ctx) {}

  std::string name() const override { return "CQAds"; }

  std::vector<db::RowId> Rank(const RankInput& input,
                              std::size_t k) override;

  /// Rank_Sim for one candidate: #satisfied units + the maximum similarity
  /// among unsatisfied units.
  double Score(const RankInput& input, db::RowId row) const;

 private:
  /// Score() through the caller's scorer: Rank builds one per call, so its
  /// memo tables carry across the candidates.
  static double ScoreWith(const RankInput& input, db::RowId row,
                          core::SimScorer* scorer);

  const core::SimilarityContext* ctx_;
};

}  // namespace cqads::baselines

#endif  // CQADS_BASELINES_CQADS_RANKER_H_
