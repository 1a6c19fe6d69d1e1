// Rank_Sim (§4.3.2, Eq. 5): scoring of partially-matched records. A record
// matching all but one unit of a question scores (N-1) plus the similarity
// of the mismatched unit's values:
//   Type I   TI_Sim from the query-log matrix (normalized by its maximum)
//   Type II  Feat_Sim from the WS word-correlation matrix (normalized)
//   Type III Num_Sim(T,V) = 1 - |T-V| / AttributeValueRange (Eq. 4)
//
// SimScorer is the one Eq. 5 scorer: the rank stage serves with it and
// fig5's CqadsRanker baseline scores with it. It scores a base-table row by
// its dictionary codes. The record side of every similarity (each
// element's tokens and stems, each Type I cell's TI id) is resolved once
// per base table into RecordTerms, built on first use; a request resolves
// its question side once, memoizes each unit's similarity by the row's
// code tuple, and so computes one similarity per distinct code key it
// meets, id to id. Only row-major delta records, whose values may lie
// outside the base dictionary, resolve strings per request. The
// string-keyed seed scorer in reference/string_rank_sim.h is its test-only
// oracle: test_vector_kernels and test_term_substrate pin the two bit-equal
// row by row, and the reference parity gates pin them end to end.
#ifndef CQADS_CORE_RANK_SIM_H_
#define CQADS_CORE_RANK_SIM_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/boolean_assembler.h"
#include "db/exec/rank_bounds.h"
#include "db/table.h"
#include "qlog/ti_matrix.h"
#include "text/term_dict.h"
#include "wordsim/ws_matrix.h"

namespace cqads::core {

class RecordTerms;

/// Similarity resources shared by partial-match scoring. Nothing is owned.
struct SimilarityContext {
  const qlog::TiMatrix* ti = nullptr;     ///< per-domain (may be null)
  const wordsim::WsMatrix* ws = nullptr;  ///< shared (may be null)
  /// Eq. 4 normalization per numeric attribute: avg(10 highest values) -
  /// avg(10 lowest values), the paper's ebay.com statistic. Indexed by
  /// attribute; <= 0 (or no vector) means unknown, and Num_Sim is 0.
  const std::vector<double>* attr_ranges = nullptr;
  /// The scored table's RecordTerms, built with `ti`. Required to score
  /// Type II units over table rows (RecordTerms::Build, or
  /// EngineSnapshot::MakeSimilarityContext).
  const RecordTerms* terms = nullptr;

  /// attr_ranges[attr], or 0 when unknown.
  double attr_range(std::size_t attr) const {
    return attr_ranges != nullptr && attr < attr_ranges->size()
               ? (*attr_ranges)[attr]
               : 0.0;
  }
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

/// The record side of Eq. 5 for one immutable base table, resolved once:
///   * every element of every text column, tokenized and Porter-stemmed,
///     with its number-token signature (the "2 door" vs "4 door" guard);
///     tokens are interned per table, so equal texts share one id;
///   * per text column, an element-string -> element-code index;
///   * per Type I text column, the TI id of every dictionary value.
/// WS ids are not resolved here: the word matrix may be installed after
/// the domain (EngineBuilder::SetWordSimilarity), so a request resolves
/// them itself, for the few record tokens it meets.
///
/// Immutable after Build and safe to share across threads. It keeps views
/// into the table's element dictionaries: the table must outlive it.
class RecordTerms {
 public:
  /// "No such token / element".
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// One distinct token text of the table's elements.
  struct Token {
    std::string text;  ///< text::Tokenize text
    std::string stem;  ///< text::PorterStem(text)
  };
  /// One element's tokens, [begin, end) into token_ids(), and its number
  /// tokens, each followed by a space.
  struct Element {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::string digits;
  };

  /// Resolves `table`'s record side; `ti` (may be null) is the domain's TI
  /// matrix, which the Type I ids are resolved against.
  static std::unique_ptr<const RecordTerms> Build(const db::Table& table,
                                                  const qlog::TiMatrix* ti);

  const db::Table& table() const { return *table_; }
  const qlog::TiMatrix* ti() const { return ti_; }

  std::size_t num_tokens() const { return tokens_.size(); }
  const Token& token(std::uint32_t id) const { return tokens_[id]; }
  /// Id of the token with text `text`; kNone when no element holds it.
  std::uint32_t FindToken(const std::string& text) const;

  /// True when `attr` is a text column (its cells have elements).
  bool has_elements(std::size_t attr) const {
    return columns_[attr].text;
  }
  /// Element `code` of text column `attr`, and its token ids.
  const Element& element(std::size_t attr, std::uint32_t code) const {
    return columns_[attr].elements[code];
  }
  const std::uint32_t* token_ids() const { return token_ids_.data(); }
  /// Element code of `element` in column `attr`; kNone when the column
  /// holds no such element (or no elements at all).
  std::uint32_t FindElement(std::size_t attr, std::string_view element) const;

  /// TI ids by dictionary code of column `attr`: filled for Type I text
  /// columns when built with a TI matrix, empty otherwise.
  const std::vector<text::TermId>& ti_ids(std::size_t attr) const {
    return columns_[attr].ti_ids;
  }

 private:
  struct Column {
    bool text = false;
    std::vector<Element> elements;  ///< by element code
    /// Keys view the table's element dictionary.
    std::unordered_map<std::string_view, std::uint32_t> element_index;
    std::vector<text::TermId> ti_ids;  ///< by dictionary code
  };

  RecordTerms() = default;

  const db::Table* table_ = nullptr;
  const qlog::TiMatrix* ti_ = nullptr;
  std::vector<Token> tokens_;
  std::unordered_map<std::string, std::uint32_t> token_index_;
  std::vector<std::uint32_t> token_ids_;  ///< every element's token ids
  std::vector<Column> columns_;
};

/// A base table's RecordTerms, built on first use, so that registering,
/// compacting or loading a table stems nothing (DomainRuntime::record_terms
/// says which runtimes share a cell). Thread-safe: concurrent first calls
/// build once (std::call_once), and every caller sees the same terms.
class RecordTermsCell {
 public:
  /// `table` and `ti` (may be null) must outlive the cell; the runtimes
  /// sharing it keep both alive.
  RecordTermsCell(const db::Table* table, const qlog::TiMatrix* ti)
      : table_(table), ti_(ti) {}
  RecordTermsCell(const RecordTermsCell&) = delete;
  RecordTermsCell& operator=(const RecordTermsCell&) = delete;

  /// The terms, built by the first call.
  const RecordTerms& Get() const;
  /// True once some call to Get has built the terms.
  bool built() const { return built_.load(std::memory_order_acquire); }

 private:
  const db::Table* table_;
  const qlog::TiMatrix* ti_;
  mutable std::once_flag once_;
  mutable std::unique_ptr<const RecordTerms> terms_;
  mutable std::atomic<bool> built_{false};
};

/// Id-keyed Eq. 5 scorer for one request's candidate loop. Construction
/// resolves the question side once: a Type II condition value reads its
/// tokens from the RecordTerms when it is an element of its column (it is
/// tokenized and stemmed otherwise), and each Type I value is resolved to
/// its TI id. An identity or Type II similarity is a pure function of the
/// row's code tuple over the attributes the unit reads (same codes -> same
/// cells -> same elements), so it is computed once per distinct tuple and
/// kept in the unit's code table. Type III and ambiguous units read the
/// packed numeric columns per row.
///
/// NOT thread-safe (the code tables mutate): one instance per request,
/// which is exactly how the rank stage uses it.
class SimScorer {
 public:
  SimScorer(const db::Schema& schema, const std::vector<MatchUnit>& units,
            const SimilarityContext& ctx);

  /// Eq. 5 for one base-table row: ScoreBlock on that row, plus the label.
  PartialScore Score(const db::Table& table, db::RowId row,
                     std::size_t dropped_unit);

  /// Batched Eq. 5 over BASE-table rows for one dropped unit: fills
  /// rank_sims[i] (and unit_sims[i] when non-null) for rows[i]. `table`
  /// must be the table of ctx.terms. The rank stage scores every base-table
  /// candidate of its full-table and relaxation sweeps with it.
  void ScoreBlock(const db::Table& table, const db::RowId* rows,
                  std::size_t n, std::size_t dropped_unit, double* rank_sims,
                  double* unit_sims);

  /// Eq. 5 for a row-major record (a delta row): the same similarities,
  /// with the record's strings resolved through this request. Its values
  /// may lie outside the base dictionary.
  void ScoreRecord(const db::Record& record, std::size_t dropped_unit,
                   double* rank_sim, double* unit_sim);

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
  /// there, so maxing the similarities of the codes present in the table
  /// over the block's [code_min, code_max] superset bounds every row in the
  /// block; NULL cells are bounded by the NULL code's similarity. Numeric
  /// units are bounded exactly: Num_Sim (Eq. 4) is unimodal in the record
  /// value, peaking where the value equals the question's target, so the
  /// block's bound is Num_Sim at the target clamped into the block's
  /// [val_min, val_max]. Code similarities land in the unit's code table,
  /// so visited blocks never recompute them.
  bool ComputeBlockBounds(const db::Table& table,
                          const db::exec::RankBounds& bounds,
                          std::size_t dropped_unit,
                          std::vector<double>* out_bounds);

  /// The Table 2 measure label of one unit (identical for every row it
  /// scores), built on first use: only units whose partials ship need it.
  const std::string& unit_measure(std::size_t unit);
  std::size_t num_units() const { return units_.size(); }

  /// Rows scored so far (base rows and records).
  std::size_t rows_scored() const { return rows_scored_; }
  /// Similarities computed so far from codes or records: one per distinct
  /// code key met, plus one per record. Numeric units over base rows,
  /// which read their packed columns per row, compute none.
  std::size_t sim_evals() const { return sim_evals_; }

 private:
  /// A token sequence: ids into the request's token space (the
  /// RecordTerms' tokens, then tokens of this request's own), plus its
  /// number-token signature. Equal token texts have equal ids.
  struct TokSpan {
    const std::uint32_t* begin = nullptr;
    const std::uint32_t* end = nullptr;
    std::string_view digits;
  };
  /// A string this request tokenized (it is not an element of the column
  /// it is compared against).
  struct OwnValue {
    std::vector<std::uint32_t> ids;
    std::string digits;
  };
  /// Precomputed question-side state of one condition.
  struct CondSim {
    const Condition* cond = nullptr;
    text::TermId ti_id = text::kInvalidTerm;  ///< Type I: resolved value
    /// Type II: the value's element code in its column (kNone when it is
    /// no element there), its tokens, and the position of its column in
    /// the unit's read_attrs.
    std::uint32_t element = RecordTerms::kNone;
    TokSpan toks;
    std::size_t read_pos = 0;
  };
  /// Precomputed question-side state of one unit.
  struct UnitSim {
    const MatchUnit* unit = nullptr;
    std::vector<CondSim> conds;
    text::TermId value_ti_id = text::kInvalidTerm;  ///< unit.value in TI
    std::string measure;  ///< Table 2 label, built on first use
    /// Identity / Type II: sorted unique attributes the similarity reads;
    /// the code tuple over them is the unit's code-table key. Empty for
    /// numeric units.
    std::vector<std::size_t> read_attrs;
  };
  /// One Type I part of a record identity.
  struct IdPart {
    std::string_view text;
    text::TermId ti_id;
  };

  /// A unit's similarity by code key: a slot per code (kNullCode last) for
  /// a one-attribute unit over a dictionary of at most kMaxDenseCodes
  /// codes, an open-addressing table on the key ((c0 << 32) | c1, or c0)
  /// otherwise.
  class CodeMemo {
   public:
    static constexpr std::size_t kMaxDenseCodes = 4096;

    bool ready() const { return !dense_.empty() || !slots_.empty(); }
    /// `dense_codes` > 0: a slot per code; 0: hashed.
    void Init(std::size_t dense_codes);

    /// The similarity under `key`; `compute()` on a miss.
    template <typename Compute>
    double Get(std::uint64_t key, Compute&& compute) {
      if (!dense_.empty()) {
        double& slot =
            dense_[key == db::ColumnStore::kNullCode ? dense_.size() - 1
                                                     : key];
        if (std::isnan(slot)) slot = compute();
        return slot;
      }
      std::size_t i = Home(key);
      for (; slots_[i].used; i = (i + 1) & (slots_.size() - 1)) {
        if (slots_[i].key == key) return slots_[i].sim;
      }
      const double sim = compute();
      slots_[i] = Slot{key, sim, true};
      if (2 * ++used_ > slots_.size()) Grow();
      return sim;
    }

   private:
    struct Slot {
      std::uint64_t key = 0;
      double sim = 0.0;
      bool used = false;
    };
    std::size_t Home(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                      shift_);
    }
    void Grow();

    std::vector<double> dense_;  ///< NaN = not computed
    std::vector<Slot> slots_;    ///< power-of-two size, at most half full
    std::size_t used_ = 0;
    unsigned shift_ = 64;
  };

  /// The code table of `dropped_unit`, sized for `store` on first use.
  CodeMemo& Memo(const db::ColumnStore& store, std::size_t dropped_unit);
  /// Identity / Type II similarity of a base row whose codes on
  /// unit.read_attrs are `codes`.
  double CodeSim(const db::ColumnStore& store, const UnitSim& unit,
                 const std::uint32_t* codes);
  double IdentitySim(const UnitSim& unit, const std::vector<IdPart>& parts);
  /// Feat_Sim of two distinct values (the equal-value rule is the
  /// caller's).
  double FeatSim(const TokSpan& a, const TokSpan& b);

  /// Tokens of element `code` of column `attr`, from the RecordTerms.
  TokSpan ElementToks(std::size_t attr, std::uint32_t code) const;
  /// Tokens of any string, tokenized once per request.
  TokSpan ValueToks(const std::string& value);
  /// Id of a token text: the RecordTerms' when an element holds it, one of
  /// this request's own otherwise.
  std::uint32_t TokenId(const std::string& text);
  const RecordTerms::Token& Tok(std::uint32_t id) const {
    return id < num_terms_tokens_ ? terms_->token(id)
                                  : own_tokens_[id - num_terms_tokens_];
  }
  /// WS vocabulary id of a token's stem, resolved on first use.
  text::TermId WsId(std::uint32_t id);
  /// TI id of dictionary value `code` (text `text`) of column `attr`.
  text::TermId TiId(std::size_t attr, std::uint32_t code,
                    std::string_view text) const;

  const db::Schema* schema_;
  const SimilarityContext* ctx_;
  const RecordTerms* terms_;
  std::uint32_t num_terms_tokens_ = 0;
  /// The RecordTerms' TI ids were resolved against ctx.ti.
  bool terms_ti_ = false;
  std::vector<UnitSim> units_;
  std::vector<CodeMemo> memos_;  ///< by unit

  std::vector<RecordTerms::Token> own_tokens_;
  std::unordered_map<std::string, std::uint32_t> own_token_index_;
  std::unordered_map<std::string, OwnValue> own_values_;
  std::vector<text::TermId> ws_ids_;  ///< by token id; see WsId
  // Scratch reused across similarity computations.
  std::vector<IdPart> parts_;
  std::string joined_;
  std::vector<std::uint32_t> codes_;

  std::size_t rows_scored_ = 0;
  std::size_t sim_evals_ = 0;
};

}  // namespace cqads::core

#endif  // CQADS_CORE_RANK_SIM_H_
