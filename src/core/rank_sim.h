// Rank_Sim (§4.3.2, Eq. 5): scoring of partially-matched records. A record
// matching all but one unit of a question scores (N-1) plus the similarity
// of the mismatched unit's values:
//   Type I   TI_Sim from the query-log matrix (normalized by its maximum)
//   Type II  Feat_Sim from the WS word-correlation matrix (normalized)
//   Type III Num_Sim(T,V) = 1 - |T-V| / AttributeValueRange (Eq. 4)
//
// SimScorer is the one Eq. 5 scorer: the rank stage serves with it and
// fig5's CqadsRanker baseline scores with it. It is id-keyed and
// per-request: question-side values are tokenized and resolved to TermIds
// once per request, record-side strings are memoized on first sight
// (dictionary-encoded stores repeat them heavily), and every similarity
// probe is an id-to-id CSR lookup. The string-keyed seed scorer in
// reference/string_rank_sim.h is its test-only oracle: test_term_substrate
// pins the two bit-equal row by row, and the reference parity gates pin
// them end to end.
#ifndef CQADS_CORE_RANK_SIM_H_
#define CQADS_CORE_RANK_SIM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/boolean_assembler.h"
#include "db/exec/rank_bounds.h"
#include "db/table.h"
#include "qlog/ti_matrix.h"
#include "text/term_dict.h"
#include "wordsim/ws_matrix.h"

namespace cqads::core {

/// Similarity resources shared by partial-match scoring.
struct SimilarityContext {
  const qlog::TiMatrix* ti = nullptr;     ///< per-domain (may be null)
  const wordsim::WsMatrix* ws = nullptr;  ///< shared (may be null)
  /// Eq. 4 normalization per numeric attribute: avg(10 highest values) -
  /// avg(10 lowest values), the paper's ebay.com statistic. Indexed by
  /// attribute; <= 0 means unknown (falls back to observed spread).
  std::vector<double> attr_ranges;
};

/// Computes the Eq. 4 AttributeValueRange vector for a table.
std::vector<double> ComputeAttrRanges(const db::Table& table);

/// Outcome of scoring one record against a question with one dropped unit.
struct PartialScore {
  double rank_sim = 0.0;   ///< (N-1) + unit similarity
  double unit_sim = 0.0;   ///< the similarity term alone, in [0, 1]
  std::string measure;     ///< e.g. "TI_Sim on Make and Model"
};

/// The Table 2 measure label of a unit's similarity: "TI_Sim on Make and
/// Model", "Feat_Sim on Color", "Num_Sim on Price".
std::string MeasureLabel(const db::Schema& schema, const MatchUnit& unit);

/// Num_Sim (Eq. 4), clamped to [0, 1]. `range` <= 0 yields 0.
double NumSim(double t, double v, double range);

/// Id-keyed Eq. 5 scorer for one request's candidate loop. Construction
/// resolves everything question-side ONCE: each Type II condition value is
/// tokenized, stemmed, and mapped to WS vocabulary ids; each Type I value
/// to its TI id; each unit's Table 2 measure label is prebuilt. Scoring a
/// row then performs zero stemming and zero map-key materialization —
/// record-side strings resolve through per-request memo tables (misses
/// included, satisfying the "memoize unknown-word misses" contract).
///
/// NOT thread-safe (the memo tables mutate): one instance per request,
/// which is exactly how the rank stage uses it.
class SimScorer {
 public:
  SimScorer(const db::Schema& schema, const std::vector<MatchUnit>& units,
            const SimilarityContext& ctx);

  /// Eq. 5 for a column-store row.
  PartialScore Score(const db::Table& table, db::RowId row,
                     std::size_t dropped_unit);
  /// Eq. 5 for a row-major record (delta rows).
  PartialScore Score(const db::Schema& schema, const db::Record& record,
                     std::size_t dropped_unit);

  /// Batched Eq. 5 over BASE-table rows for one dropped unit: fills
  /// rank_sims[i] (and unit_sims[i] when non-null) for rows[i].
  /// Type III and ambiguous units are scored straight from the packed
  /// numeric columns (ColumnStore::numeric_column). Identity and Type II
  /// similarities are a pure function of the row's dictionary codes on the
  /// unit's read attributes (same codes → same cells → same elements), so
  /// they are memoized per distinct code tuple when the unit reads at most
  /// two attributes. Either way the result is bit-identical to Score() row
  /// by row, with the RowRef adapter, memo probes, and measure-string
  /// composition hoisted out of the candidate loop. The rank stage scores
  /// every base-table candidate of its full-table and relaxation sweeps
  /// with it.
  void ScoreBlock(const db::Table& table, const db::RowId* rows,
                  std::size_t n, std::size_t dropped_unit, double* rank_sims,
                  double* unit_sims);

  /// Per-1024-row-block upper bounds on one dropped unit's similarity
  /// (Eq. 5's unit term alone, in [0, 1]), for block-max top-k pruning.
  /// Fills out_bounds[b] for every block of `bounds` and returns true when
  /// the bounds are informative; returns false (out_bounds untouched) when
  /// this unit cannot be bounded better than the trivial 1.0 — it reads
  /// more than one attribute, or the attribute's dictionary is too large
  /// for the per-code sweep to pay for itself.
  ///
  /// Derivation (the byte-identity argument): a unit reading ONE attribute
  /// has a similarity that is a pure function of the row's dictionary code
  /// there (same code -> same cell -> same elements — the ScoreBlock memo
  /// invariant), so maxing the representative-row similarities over the
  /// block's [code_min, code_max] superset bounds every row in the block;
  /// NULL cells are bounded via the column's first-NULL representative.
  /// Numeric units are bounded exactly: Num_Sim (Eq. 4) is unimodal in the
  /// record value, peaking where the value equals the question's target, so
  /// the block's bound is Num_Sim at the target clamped into the block's
  /// [val_min, val_max]. Representative-row similarities are inserted into
  /// the ScoreBlock memo, so visited blocks never recompute them.
  bool ComputeBlockBounds(const db::Table& table,
                          const db::exec::RankBounds& bounds,
                          std::size_t dropped_unit,
                          std::vector<double>* out_bounds);

  /// The Table 2 measure label of one unit (identical for every row a
  /// ScoreBlock call scores).
  const std::string& unit_measure(std::size_t unit) const {
    return units_[unit].measure;
  }
  std::size_t num_units() const { return units_.size(); }

 private:
  /// One tokenized word with its resolved WS id; the stem is kept for the
  /// equal-stem rule when the id is out of vocabulary.
  struct TokenSim {
    std::string text;
    std::string stem;
    text::TermId ws_id = text::kInvalidTerm;
  };
  /// A tokenized value string: its tokens plus the concatenated numeric
  /// token signature (the "2 door" vs "4 door" exclusivity guard).
  struct ValueToks {
    std::vector<TokenSim> tokens;
    std::string digits;
  };
  /// Precomputed question-side state of one condition.
  struct CondSim {
    const Condition* cond = nullptr;
    ValueToks value_toks;               ///< Type II: tokenized c.value
    text::TermId ti_id = text::kInvalidTerm;  ///< Type I: resolved c.value
  };
  /// Precomputed question-side state of one unit.
  struct UnitSim {
    const MatchUnit* unit = nullptr;
    std::vector<CondSim> conds;
    std::vector<std::size_t> identity_attrs;  ///< sorted unique Type I attrs
    text::TermId value_ti_id = text::kInvalidTerm;  ///< unit.value in TI
    std::string measure;                      ///< Table 2 label
    /// Identity / Type II: sorted unique attributes this unit's similarity
    /// reads — the code tuple over these is ScoreBlock's memo key. Empty
    /// for numeric units (ScoreBlock reads their packed columns).
    std::vector<std::size_t> read_attrs;
  };

  struct RowRef;  // table-or-record adapter (defined in the .cc)

  double UnitSimImpl(const RowRef& row, const UnitSim& unit);
  double IdentitySimIds(const RowRef& row, const UnitSim& unit);
  double FeatSimIds(const ValueToks& a, const std::string& a_raw,
                    const std::string& b_raw);

  const ValueToks& ElementToks(const std::string& element);
  text::TermId TiId(const std::string& value);

  const SimilarityContext* ctx_;
  std::vector<UnitSim> units_;
  /// Record-side memo tables (hits AND misses are cached).
  std::unordered_map<std::string, ValueToks> element_toks_;
  std::unordered_map<std::string, text::TermId> ti_ids_;
  /// Per identity / Type II unit: similarity by the code tuple of the
  /// unit's read attributes (ScoreBlock and ComputeBlockBounds;
  /// (c0 << 32) | c1, or c0 for single-attribute units).
  std::vector<std::unordered_map<std::uint64_t, double>> unit_memo_;
};

}  // namespace cqads::core

#endif  // CQADS_CORE_RANK_SIM_H_
