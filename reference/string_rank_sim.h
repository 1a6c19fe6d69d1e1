// The seed's string-keyed Eq. 5 scorer (§4.3.2), the test-only oracle of
// core::SimScorer. Every call re-tokenizes and re-stems both values and
// probes the TI/WS matrices by string, with no memo tables, block bounds or
// batching: the paper's formula in its most literal form. A record scores
// (N-1) plus the similarity of its dropped unit:
//   Type I   TI_Sim from the query-log matrix (normalized by its maximum)
//   Type II  Feat_Sim from the WS word-correlation matrix (normalized)
//   Type III Num_Sim (Eq. 4, core::NumSim)
// The measure label comes from core::MeasureLabel, the one the serving path
// uses.
//
// test_term_substrate pins SimScorer bit-equal to it row by row, and the
// reference oracle (reference_ask.h) ranks every partial answer with it.
#ifndef CQADS_REFERENCE_STRING_RANK_SIM_H_
#define CQADS_REFERENCE_STRING_RANK_SIM_H_

#include <vector>

#include "core/rank_sim.h"
#include "db/table.h"

namespace cqads::reference {

/// Similarity of the dropped unit's requested value(s) vs the record's.
double UnitSimilarity(const db::Table& table, db::RowId row,
                      const core::MatchUnit& unit,
                      const core::SimilarityContext& ctx);

/// Record-level form for rows that live outside a Table (delta-store rows
/// awaiting compaction). Same semantics cell for cell: a record scores
/// identically through either overload.
double UnitSimilarity(const db::Schema& schema, const db::Record& record,
                      const core::MatchUnit& unit,
                      const core::SimilarityContext& ctx);

/// Full Eq. 5 score: (num_units - 1) + UnitSimilarity, with the Table 2
/// measure label.
core::PartialScore ScorePartialMatch(const db::Table& table, db::RowId row,
                                     const std::vector<core::MatchUnit>& units,
                                     std::size_t dropped_unit,
                                     const core::SimilarityContext& ctx);

/// Record-level form (delta rows).
core::PartialScore ScorePartialMatch(const db::Schema& schema,
                                     const db::Record& record,
                                     const std::vector<core::MatchUnit>& units,
                                     std::size_t dropped_unit,
                                     const core::SimilarityContext& ctx);

}  // namespace cqads::reference

#endif  // CQADS_REFERENCE_STRING_RANK_SIM_H_
