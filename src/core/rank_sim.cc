#include "core/rank_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/string_util.h"
#include "db/row_match.h"
#include "text/porter_stemmer.h"
#include "text/tokenizer.h"

namespace cqads::core {

namespace {

std::string Capitalize(const std::string& s) {
  std::string out = s;
  if (!out.empty()) out[0] = static_cast<char>(std::toupper(out[0]));
  return out;
}

/// Sorted unique attributes of a unit's conditions (the identity shape).
std::vector<std::size_t> UniqueCondAttrs(const MatchUnit& unit) {
  std::vector<std::size_t> attrs;
  for (const auto& c : unit.conds) attrs.push_back(c.attr);
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

}  // namespace

std::string MeasureLabel(const db::Schema& schema, const MatchUnit& unit) {
  switch (unit.kind) {
    case MatchUnit::Kind::kIdentity: {
      std::vector<std::string> names;
      for (std::size_t a : UniqueCondAttrs(unit)) {
        names.push_back(Capitalize(schema.attribute(a).name));
      }
      return "TI_Sim on " + Join(names, " and ");
    }
    case MatchUnit::Kind::kTypeII:
      return "Feat_Sim on " + Capitalize(schema.attribute(unit.attr).name);
    case MatchUnit::Kind::kTypeIII:
    case MatchUnit::Kind::kAmbiguous:
      return "Num_Sim on " + Capitalize(schema.attribute(unit.attr).name);
  }
  return std::string();
}

double NumSim(double t, double v, double range) {
  if (range <= 0.0) return 0.0;
  double sim = 1.0 - std::abs(t - v) / range;
  return std::clamp(sim, 0.0, 1.0);
}

std::vector<double> ComputeAttrRanges(const db::Table& table) {
  const db::Schema& schema = table.schema();
  std::vector<double> ranges(schema.num_attributes(), 0.0);
  for (std::size_t a : schema.NumericAttrs()) {
    std::vector<double> values;
    values.reserve(table.num_rows());
    for (db::RowId r = 0; r < table.num_rows(); ++r) {
      const db::Value& v = table.cell(r, a);
      if (v.is_numeric()) values.push_back(v.AsDouble());
    }
    if (values.size() < 2) continue;
    std::sort(values.begin(), values.end());
    // Eq. 4's normalization: avg of the 10 highest minus avg of the 10
    // lowest values (the paper pulls these statistics from ebay.com).
    const std::size_t k = std::min<std::size_t>(10, values.size());
    double low = 0.0, high = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      low += values[i];
      high += values[values.size() - 1 - i];
    }
    ranges[a] = (high - low) / static_cast<double>(k);
  }
  return ranges;
}

// ---------------------------------------------------------------------------
// SimScorer: the id-keyed per-request path.
// ---------------------------------------------------------------------------

/// Table-or-record adapter for the scorer (a private type, so the header
/// stays free of scoring internals).
struct SimScorer::RowRef {
  const db::Schema* schema = nullptr;
  const db::Table* table = nullptr;
  db::RowId row = 0;
  const db::Record* record = nullptr;

  const db::Value& cell(std::size_t attr) const {
    return table != nullptr ? table->cell(row, attr) : (*record)[attr];
  }
  std::vector<std::string> elements(std::size_t attr) const {
    return table != nullptr
               ? table->CellElements(row, attr)
               : db::ValueElements(*schema, attr, (*record)[attr]);
  }
};

// Tokenizes a value and resolves each word against the WS vocabulary:
// stemming happens HERE, once per distinct string per request, never inside
// the row loop. The stem string is kept for the equal-stem rule when the id
// is out of vocabulary.
const SimScorer::ValueToks& SimScorer::ElementToks(const std::string& element) {
  auto it = element_toks_.find(element);
  if (it != element_toks_.end()) return it->second;
  ValueToks toks;
  for (const auto& tok : text::Tokenize(element)) {
    TokenSim t;
    t.text = tok.text;
    t.stem = text::PorterStem(tok.text);
    if (ctx_->ws != nullptr) t.ws_id = ctx_->ws->ResolveStem(t.stem);
    if (tok.kind == text::TokenKind::kNumber) {
      toks.digits += tok.text;
      toks.digits += " ";
    }
    toks.tokens.push_back(std::move(t));
  }
  return element_toks_.emplace(element, std::move(toks)).first->second;
}

text::TermId SimScorer::TiId(const std::string& value) {
  auto it = ti_ids_.find(value);
  if (it != ti_ids_.end()) return it->second;
  const text::TermId id =
      ctx_->ti != nullptr ? ctx_->ti->Resolve(value) : text::kInvalidTerm;
  ti_ids_.emplace(value, id);
  return id;
}

SimScorer::SimScorer(const db::Schema& schema,
                     const std::vector<MatchUnit>& units,
                     const SimilarityContext& ctx)
    : ctx_(&ctx) {
  units_.reserve(units.size());
  for (const MatchUnit& unit : units) {
    UnitSim u;
    u.unit = &unit;
    u.measure = MeasureLabel(schema, unit);
    if (unit.kind == MatchUnit::Kind::kIdentity) {
      u.identity_attrs = UniqueCondAttrs(unit);
      u.value_ti_id = TiId(unit.value);
    }
    for (const Condition& cond : unit.conds) {
      CondSim cs;
      cs.cond = &cond;
      switch (unit.kind) {
        case MatchUnit::Kind::kIdentity:
          cs.ti_id = TiId(cond.value);
          break;
        case MatchUnit::Kind::kTypeII:
          // Seed the memo with the question-side value; the row loop then
          // reuses the same tokenization machinery for both sides.
          cs.value_toks = ElementToks(cond.value);
          break;
        case MatchUnit::Kind::kTypeIII:
        case MatchUnit::Kind::kAmbiguous:
          break;  // numeric: no string state
      }
      u.conds.push_back(std::move(cs));
    }
    // ScoreBlock memo key: the sorted unique attributes the unit's
    // similarity reads. Numeric units keep none: ScoreBlock reads their
    // packed columns instead of memoizing.
    if (unit.kind == MatchUnit::Kind::kIdentity ||
        unit.kind == MatchUnit::Kind::kTypeII) {
      u.read_attrs = UniqueCondAttrs(unit);
    }
    units_.push_back(std::move(u));
  }
  unit_memo_.resize(units_.size());
}

double SimScorer::FeatSimIds(const ValueToks& a, const std::string& a_raw,
                             const std::string& b_raw) {
  if (a_raw == b_raw) return 1.0;
  const wordsim::WsMatrix* ws = ctx_->ws;
  if (ws == nullptr || ws->MaxSim() <= 0.0) return 0.0;
  if (a.tokens.empty()) return 0.0;
  const ValueToks& b = ElementToks(b_raw);
  if (b.tokens.empty()) return 0.0;
  // Conflicting numeric qualifiers are exclusive, not similar: "2 door" and
  // "4 door" share a word but denote incompatible properties (digit
  // signatures are precomputed per value).
  if (!a.digits.empty() && !b.digits.empty() && a.digits != b.digits) {
    return 0.0;
  }
  double sum = 0.0;
  for (const TokenSim& wa : a.tokens) {
    double best = 0.0;
    for (const TokenSim& wb : b.tokens) {
      double s;
      if (wa.text == wb.text) {
        s = ws->MaxSim();
      } else if (wa.stem == wb.stem) {
        s = 1.0;  // equal stems score 1.0 even out of vocabulary
      } else {
        s = ws->SimById(wa.ws_id, wb.ws_id);
      }
      best = std::max(best, s);
    }
    sum += best;
  }
  double mean = sum / static_cast<double>(a.tokens.size());
  return std::min(1.0, mean / ws->MaxSim());
}

double SimScorer::IdentitySimIds(const RowRef& row, const UnitSim& unit) {
  const qlog::TiMatrix* ti = ctx_->ti;
  if (ti == nullptr || ti->MaxSim() <= 0.0) return 0.0;

  // Record identity: the row's values of the unit's Type I attributes, in
  // schema order (attrs were deduped and sorted at construction).
  std::string record_identity;
  std::vector<const std::string*> record_parts;
  for (std::size_t a : unit.identity_attrs) {
    const db::Value& v = row.cell(a);
    if (!v.is_text()) continue;
    if (!record_identity.empty()) record_identity += " ";
    record_identity += v.text();
    record_parts.push_back(&v.text());
  }
  if (record_identity == unit.unit->value) return 1.0;

  const text::TermId rid = TiId(record_identity);
  double sim = ti->SimById(unit.value_ti_id, rid);
  if (sim <= 0.0) {
    for (const CondSim& cs : unit.conds) {
      for (const std::string* rp : record_parts) {
        sim = std::max(sim, ti->SimById(cs.ti_id, TiId(*rp)));
      }
      sim = std::max(sim, ti->SimById(cs.ti_id, rid));
      if (!cs.cond->value.empty()) {
        sim = std::max(sim, ti->SimById(unit.value_ti_id, rid));
      }
    }
  }
  return std::min(1.0, sim / ti->MaxSim());
}

double SimScorer::UnitSimImpl(const RowRef& row, const UnitSim& unit) {
  switch (unit.unit->kind) {
    case MatchUnit::Kind::kIdentity:
      return IdentitySimIds(row, unit);

    case MatchUnit::Kind::kTypeII: {
      double best = 0.0;
      for (const CondSim& cs : unit.conds) {
        for (const auto& element : row.elements(cs.cond->attr)) {
          best = std::max(best,
                          FeatSimIds(cs.value_toks, cs.cond->value, element));
        }
      }
      return best;
    }

    case MatchUnit::Kind::kTypeIII:
    case MatchUnit::Kind::kAmbiguous: {
      double best = 0.0;
      for (const CondSim& cs : unit.conds) {
        const Condition& c = *cs.cond;
        std::size_t attr = c.attr == kNoAttr ? unit.unit->attr : c.attr;
        const db::Value& v = row.cell(attr);
        if (!v.is_numeric()) continue;
        double target =
            c.op == db::CompareOp::kBetween ? (c.lo + c.hi) / 2.0 : c.lo;
        double range =
            attr < ctx_->attr_ranges.size() ? ctx_->attr_ranges[attr] : 0.0;
        best = std::max(best, NumSim(target, v.AsDouble(), range));
      }
      return best;
    }
  }
  return 0.0;
}

PartialScore SimScorer::Score(const db::Table& table, db::RowId row,
                              std::size_t dropped_unit) {
  RowRef ref;
  ref.schema = &table.schema();
  ref.table = &table;
  ref.row = row;
  PartialScore out;
  const UnitSim& unit = units_[dropped_unit];
  out.unit_sim = UnitSimImpl(ref, unit);
  out.rank_sim = static_cast<double>(units_.size()) - 1.0 + out.unit_sim;
  out.measure = unit.measure;
  return out;
}

void SimScorer::ScoreBlock(const db::Table& table, const db::RowId* rows,
                           std::size_t n, std::size_t dropped_unit,
                           double* rank_sims, double* unit_sims) {
  const UnitSim& unit = units_[dropped_unit];
  const double exact_part = static_cast<double>(units_.size()) - 1.0;
  RowRef ref;
  ref.schema = &table.schema();
  ref.table = &table;

  const MatchUnit::Kind kind = unit.unit->kind;
  if (kind == MatchUnit::Kind::kTypeIII ||
      kind == MatchUnit::Kind::kAmbiguous) {
    // Numeric: read the packed columns directly. Values are nearly unique
    // per row (prices carry cents), so a code memo would miss on almost
    // every row. Same arithmetic as UnitSimImpl: the max over the unit's
    // conditions of Num_Sim, a NULL cell (NaN in the packed column)
    // contributing nothing; a NaN-valued Real contributes nothing there
    // either, since std::max(best, NaN) keeps best. Text columns hold no
    // numeric cell and have no packed column.
    struct NumCond {
      const double* values;
      double target;
      double range;
    };
    std::vector<NumCond> conds;
    for (const CondSim& cs : unit.conds) {
      const Condition& c = *cs.cond;
      const std::size_t attr = c.attr == kNoAttr ? unit.unit->attr : c.attr;
      const auto& packed = table.store().numeric_column(attr);
      if (packed.empty()) continue;
      conds.push_back(NumCond{
          packed.data(),
          c.op == db::CompareOp::kBetween ? (c.lo + c.hi) / 2.0 : c.lo,
          attr < ctx_->attr_ranges.size() ? ctx_->attr_ranges[attr] : 0.0});
    }
    for (std::size_t i = 0; i < n; ++i) {
      double best = 0.0;
      for (const NumCond& c : conds) {
        const double v = c.values[rows[i]];
        if (std::isnan(v)) continue;
        best = std::max(best, NumSim(c.target, v, c.range));
      }
      rank_sims[i] = exact_part + best;
      if (unit_sims != nullptr) unit_sims[i] = best;
    }
    return;
  }

  const std::size_t num_attrs = unit.read_attrs.size();
  if (num_attrs == 0 || num_attrs > 2) {
    // No cells read, or too wide for the u64 code-tuple key: score row by
    // row (question shapes never get here in practice — units read one or
    // two attributes).
    for (std::size_t i = 0; i < n; ++i) {
      ref.row = rows[i];
      const double s = UnitSimImpl(ref, unit);
      rank_sims[i] = exact_part + s;
      if (unit_sims != nullptr) unit_sims[i] = s;
    }
    return;
  }

  // Dictionary codes determine cells, cells determine elements, so the
  // code tuple over read_attrs determines the similarity. kNullCode keys
  // like any other code (the null cell's similarity is memoized too).
  const std::uint32_t* c0 = table.store().code_column(unit.read_attrs[0]).data();
  const std::uint32_t* c1 =
      num_attrs == 2 ? table.store().code_column(unit.read_attrs[1]).data()
                     : nullptr;
  auto& memo = unit_memo_[dropped_unit];
  for (std::size_t i = 0; i < n; ++i) {
    const db::RowId r = rows[i];
    std::uint64_t key = c0[r];
    if (c1 != nullptr) key = (key << 32) | c1[r];
    auto it = memo.find(key);
    if (it == memo.end()) {
      ref.row = r;
      it = memo.emplace(key, UnitSimImpl(ref, unit)).first;
    }
    rank_sims[i] = exact_part + it->second;
    if (unit_sims != nullptr) unit_sims[i] = it->second;
  }
}

namespace {

/// How large a single-attribute dictionary may be before per-code bound
/// computation stops paying for itself (each code costs one representative-
/// row scoring call plus a slot in the range-max table).
constexpr std::size_t kMaxDictForRankBounds = 4096;

/// O(1) range-max over a fixed double array (sparse table, power-of-two
/// jumps). Built once per (request, unit); queried once per block.
class RangeMax {
 public:
  explicit RangeMax(std::vector<double> base) {
    levels_.push_back(std::move(base));
    for (std::size_t span = 1; span * 2 <= levels_[0].size(); span *= 2) {
      const std::vector<double>& prev = levels_.back();
      std::vector<double> next(prev.size() - span);
      for (std::size_t i = 0; i < next.size(); ++i) {
        next[i] = std::max(prev[i], prev[i + span]);
      }
      levels_.push_back(std::move(next));
    }
  }

  /// Max over [lo, hi] inclusive; lo <= hi < size.
  double Query(std::size_t lo, std::size_t hi) const {
    std::size_t level = 0, span = 1;
    while (span * 2 <= hi - lo + 1) {
      span *= 2;
      ++level;
    }
    return std::max(levels_[level][lo], levels_[level][hi + 1 - span]);
  }

 private:
  std::vector<std::vector<double>> levels_;
};

}  // namespace

bool SimScorer::ComputeBlockBounds(const db::Table& table,
                                   const db::exec::RankBounds& bounds,
                                   std::size_t dropped_unit,
                                   std::vector<double>* out_bounds) {
  const UnitSim& unit = units_[dropped_unit];
  const std::size_t nb = bounds.num_blocks();

  const MatchUnit::Kind kind = unit.unit->kind;
  if (kind == MatchUnit::Kind::kTypeIII ||
      kind == MatchUnit::Kind::kAmbiguous) {
    // Numeric: per-cond exact bound at the target clamped into the block's
    // value range; non-numeric cells contribute 0 (UnitSimImpl skips them),
    // so value-less blocks bound at 0.
    out_bounds->assign(nb, 0.0);
    for (const CondSim& cs : unit.conds) {
      const Condition& c = *cs.cond;
      const std::size_t attr = c.attr == kNoAttr ? unit.unit->attr : c.attr;
      const auto& ab = bounds.attr(attr);
      if (ab.val_min.empty()) continue;  // text column: never numeric
      const double target =
          c.op == db::CompareOp::kBetween ? (c.lo + c.hi) / 2.0 : c.lo;
      const double range =
          attr < ctx_->attr_ranges.size() ? ctx_->attr_ranges[attr] : 0.0;
      for (std::size_t b = 0; b < nb; ++b) {
        if (ab.val_min[b] > ab.val_max[b]) continue;  // no numeric values
        const double peak = std::clamp(target, ab.val_min[b], ab.val_max[b]);
        (*out_bounds)[b] =
            std::max((*out_bounds)[b], NumSim(target, peak, range));
      }
    }
    return true;
  }

  // Identity / Type II: pure function of the code on the single read
  // attribute. Wider units (composite identities) are not decomposable
  // into per-code bounds — no pruning for them.
  if (unit.read_attrs.size() != 1) return false;
  const std::size_t attr = unit.read_attrs[0];
  const auto& ab = bounds.attr(attr);
  const std::size_t dict_size = ab.first_row_of_code.size();
  if (dict_size > kMaxDictForRankBounds) return false;

  RowRef ref;
  ref.schema = &table.schema();
  ref.table = &table;
  auto& memo = unit_memo_[dropped_unit];

  std::vector<double> code_sims(dict_size, 0.0);
  for (std::size_t c = 0; c < dict_size; ++c) {
    const db::RowId rep = ab.first_row_of_code[c];
    if (rep == db::exec::kNoRankRow) continue;  // code in no row: unreachable
    auto it = memo.find(c);
    if (it == memo.end()) {
      ref.row = rep;
      it = memo.emplace(c, UnitSimImpl(ref, unit)).first;
    }
    code_sims[c] = it->second;
  }
  double null_sim = 0.0;
  if (ab.first_null_row != db::exec::kNoRankRow) {
    const std::uint64_t null_key = db::ColumnStore::kNullCode;
    auto it = memo.find(null_key);
    if (it == memo.end()) {
      ref.row = ab.first_null_row;
      it = memo.emplace(null_key, UnitSimImpl(ref, unit)).first;
    }
    null_sim = it->second;
  }

  const RangeMax range_max(std::move(code_sims));
  out_bounds->assign(nb, 0.0);
  for (std::size_t b = 0; b < nb; ++b) {
    double bound = ab.has_null[b] ? null_sim : 0.0;
    if (ab.code_min[b] <= ab.code_max[b]) {
      bound = std::max(bound, range_max.Query(ab.code_min[b], ab.code_max[b]));
    }
    (*out_bounds)[b] = bound;
  }
  return true;
}

PartialScore SimScorer::Score(const db::Schema& schema,
                              const db::Record& record,
                              std::size_t dropped_unit) {
  RowRef ref;
  ref.schema = &schema;
  ref.record = &record;
  PartialScore out;
  const UnitSim& unit = units_[dropped_unit];
  out.unit_sim = UnitSimImpl(ref, unit);
  out.rank_sim = static_cast<double>(units_.size()) - 1.0 + out.unit_sim;
  out.measure = unit.measure;
  return out;
}

}  // namespace cqads::core
