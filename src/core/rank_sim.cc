#include "core/rank_sim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

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

/// A WS id slot not resolved yet (kInvalidTerm is a resolved miss). Were a
/// real id ever equal to it, it would only be resolved again.
constexpr text::TermId kUnresolved = text::kInvalidTerm - 1;

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
// RecordTerms: the record side, once per base table.
// ---------------------------------------------------------------------------

std::unique_ptr<const RecordTerms> RecordTerms::Build(
    const db::Table& table, const qlog::TiMatrix* ti) {
  std::unique_ptr<RecordTerms> terms(new RecordTerms());
  terms->table_ = &table;
  terms->ti_ = ti;
  const db::Schema& schema = table.schema();
  const db::ColumnStore& store = table.store();
  terms->columns_.resize(schema.num_attributes());
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const db::Attribute& attr = schema.attribute(a);
    if (attr.data_kind == db::DataKind::kNumeric) continue;
    Column& col = terms->columns_[a];
    col.text = true;
    // The tokenization SimScorer applies to any value: Tokenize, then a
    // Porter stem per distinct token text.
    const std::vector<std::string>& elements = store.element_dictionary(a);
    col.elements.reserve(elements.size());
    col.element_index.reserve(elements.size());
    for (std::size_t code = 0; code < elements.size(); ++code) {
      Element e;
      e.begin = static_cast<std::uint32_t>(terms->token_ids_.size());
      for (const auto& tok : text::Tokenize(elements[code])) {
        auto [it, inserted] = terms->token_index_.emplace(
            tok.text, static_cast<std::uint32_t>(terms->tokens_.size()));
        if (inserted) {
          terms->tokens_.push_back(Token{tok.text, text::PorterStem(tok.text)});
        }
        terms->token_ids_.push_back(it->second);
        if (tok.kind == text::TokenKind::kNumber) {
          e.digits += tok.text;
          e.digits += ' ';
        }
      }
      e.end = static_cast<std::uint32_t>(terms->token_ids_.size());
      col.elements.push_back(std::move(e));
      col.element_index.emplace(elements[code],
                                static_cast<std::uint32_t>(code));
    }
    if (ti != nullptr && attr.attr_type == db::AttrType::kTypeI) {
      const std::vector<db::Value>& dict = store.dictionary(a);
      col.ti_ids.reserve(dict.size());
      for (const db::Value& v : dict) {
        col.ti_ids.push_back(v.is_text() ? ti->Resolve(v.text())
                                         : text::kInvalidTerm);
      }
    }
  }
  return terms;
}

std::uint32_t RecordTerms::FindToken(const std::string& text) const {
  auto it = token_index_.find(text);
  return it == token_index_.end() ? kNone : it->second;
}

std::uint32_t RecordTerms::FindElement(std::size_t attr,
                                       std::string_view element) const {
  if (attr >= columns_.size()) return kNone;
  const auto& index = columns_[attr].element_index;
  auto it = index.find(element);
  return it == index.end() ? kNone : it->second;
}

const RecordTerms& RecordTermsCell::Get() const {
  std::call_once(once_, [this] {
    terms_ = RecordTerms::Build(*table_, ti_);
    built_.store(true, std::memory_order_release);
  });
  return *terms_;
}

// ---------------------------------------------------------------------------
// SimScorer: the id-keyed per-request path.
// ---------------------------------------------------------------------------

void SimScorer::CodeMemo::Init(std::size_t dense_codes) {
  if (dense_codes > 0) {
    dense_.assign(dense_codes, std::numeric_limits<double>::quiet_NaN());
    return;
  }
  slots_.assign(16, Slot{});
  shift_ = 64 - 4;
}

void SimScorer::CodeMemo::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  --shift_;
  for (const Slot& s : old) {
    if (!s.used) continue;
    std::size_t i = Home(s.key);
    while (slots_[i].used) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = s;
  }
}

SimScorer::SimScorer(const db::Schema& schema,
                     const std::vector<MatchUnit>& units,
                     const SimilarityContext& ctx)
    : schema_(&schema), ctx_(&ctx), terms_(ctx.terms) {
  if (terms_ != nullptr) {
    num_terms_tokens_ = static_cast<std::uint32_t>(terms_->num_tokens());
    terms_ti_ = terms_->ti() == ctx.ti;
  }
  const qlog::TiMatrix* ti = ctx.ti;
  units_.reserve(units.size());
  for (const MatchUnit& unit : units) {
    UnitSim u;
    u.unit = &unit;
    if (unit.kind == MatchUnit::Kind::kIdentity ||
        unit.kind == MatchUnit::Kind::kTypeII) {
      u.read_attrs = UniqueCondAttrs(unit);
    }
    if (unit.kind == MatchUnit::Kind::kIdentity && ti != nullptr) {
      u.value_ti_id = ti->Resolve(unit.value);
    }
    for (const Condition& cond : unit.conds) {
      CondSim cs;
      cs.cond = &cond;
      switch (unit.kind) {
        case MatchUnit::Kind::kIdentity:
          if (ti != nullptr) cs.ti_id = ti->Resolve(cond.value);
          break;
        case MatchUnit::Kind::kTypeII:
          cs.read_pos = static_cast<std::size_t>(
              std::lower_bound(u.read_attrs.begin(), u.read_attrs.end(),
                               cond.attr) -
              u.read_attrs.begin());
          // A value that is an element of its column reads the table's
          // tokens; any other value is tokenized here, once.
          cs.element = terms_ != nullptr
                           ? terms_->FindElement(cond.attr, cond.value)
                           : RecordTerms::kNone;
          cs.toks = cs.element != RecordTerms::kNone
                        ? ElementToks(cond.attr, cs.element)
                        : ValueToks(cond.value);
          break;
        case MatchUnit::Kind::kTypeIII:
        case MatchUnit::Kind::kAmbiguous:
          break;  // numeric: no string state
      }
      u.conds.push_back(std::move(cs));
    }
    units_.push_back(std::move(u));
  }
  memos_.resize(units_.size());
}

SimScorer::TokSpan SimScorer::ElementToks(std::size_t attr,
                                          std::uint32_t code) const {
  const RecordTerms::Element& e = terms_->element(attr, code);
  const std::uint32_t* ids = terms_->token_ids();
  return TokSpan{ids + e.begin, ids + e.end, e.digits};
}

SimScorer::TokSpan SimScorer::ValueToks(const std::string& value) {
  auto it = own_values_.find(value);
  if (it == own_values_.end()) {
    OwnValue v;
    for (const auto& tok : text::Tokenize(value)) {
      v.ids.push_back(TokenId(tok.text));
      if (tok.kind == text::TokenKind::kNumber) {
        v.digits += tok.text;
        v.digits += ' ';
      }
    }
    it = own_values_.emplace(value, std::move(v)).first;
  }
  const OwnValue& v = it->second;  // map nodes never move
  return TokSpan{v.ids.data(), v.ids.data() + v.ids.size(), v.digits};
}

std::uint32_t SimScorer::TokenId(const std::string& text) {
  if (terms_ != nullptr) {
    const std::uint32_t id = terms_->FindToken(text);
    if (id != RecordTerms::kNone) return id;
  }
  auto [it, inserted] = own_token_index_.emplace(
      text, num_terms_tokens_ + static_cast<std::uint32_t>(own_tokens_.size()));
  if (inserted) {
    own_tokens_.push_back(RecordTerms::Token{text, text::PorterStem(text)});
  }
  return it->second;
}

text::TermId SimScorer::WsId(std::uint32_t id) {
  if (id >= ws_ids_.size()) {
    ws_ids_.resize(num_terms_tokens_ + own_tokens_.size(), kUnresolved);
  }
  text::TermId& ws_id = ws_ids_[id];
  if (ws_id == kUnresolved) ws_id = ctx_->ws->ResolveStem(Tok(id).stem);
  return ws_id;
}

text::TermId SimScorer::TiId(std::size_t attr, std::uint32_t code,
                             std::string_view text) const {
  if (terms_ti_) {
    const std::vector<text::TermId>& ids = terms_->ti_ids(attr);
    if (!ids.empty()) return ids[code];
  }
  return ctx_->ti->Resolve(text);
}

// Word-level Feat_Sim: each token of `a` is aligned with its best match in
// `b` (equal texts score the matrix maximum, equal stems 1.0 even out of
// vocabulary, others the WS similarity of their stems), and the mean is
// normalized by the matrix maximum.
double SimScorer::FeatSim(const TokSpan& a, const TokSpan& b) {
  const wordsim::WsMatrix* ws = ctx_->ws;
  if (ws == nullptr || ws->MaxSim() <= 0.0) return 0.0;
  if (a.begin == a.end || b.begin == b.end) return 0.0;
  // Conflicting numeric qualifiers are exclusive, not similar: "2 door" and
  // "4 door" share a word but denote incompatible properties.
  if (!a.digits.empty() && !b.digits.empty() && a.digits != b.digits) {
    return 0.0;
  }
  double sum = 0.0;
  for (const std::uint32_t* wa = a.begin; wa != a.end; ++wa) {
    double best = 0.0;
    for (const std::uint32_t* wb = b.begin; wb != b.end; ++wb) {
      double s;
      if (*wa == *wb) {
        s = ws->MaxSim();  // equal texts share one token id
      } else if (Tok(*wa).stem == Tok(*wb).stem) {
        s = 1.0;
      } else {
        s = ws->SimById(WsId(*wa), WsId(*wb));
      }
      best = std::max(best, s);
    }
    sum += best;
  }
  double mean = sum / static_cast<double>(a.end - a.begin);
  return std::min(1.0, mean / ws->MaxSim());
}

// Identity-level TI_Sim with a part-wise fallback: the record identity (its
// Type I values joined in schema order) is tried first; an unknown pair
// falls back to the best similarity among the individual values. The
// caller has checked the TI matrix.
double SimScorer::IdentitySim(const UnitSim& unit,
                              const std::vector<IdPart>& parts) {
  const qlog::TiMatrix* ti = ctx_->ti;
  std::string_view identity;
  text::TermId rid;
  if (parts.size() == 1) {
    identity = parts[0].text;
    rid = parts[0].ti_id;
  } else {
    joined_.clear();
    for (const IdPart& p : parts) {
      if (!joined_.empty()) joined_ += ' ';
      joined_ += p.text;
    }
    identity = joined_;
    rid = ti->Resolve(identity);
  }
  // An equal identity is an exact match, in the TI vocabulary or not.
  if (identity == unit.unit->value) return 1.0;

  double sim = ti->SimById(unit.value_ti_id, rid);
  if (sim <= 0.0) {
    for (const CondSim& cs : unit.conds) {
      for (const IdPart& p : parts) {
        sim = std::max(sim, ti->SimById(cs.ti_id, p.ti_id));
      }
      sim = std::max(sim, ti->SimById(cs.ti_id, rid));
      if (!cs.cond->value.empty()) {
        sim = std::max(sim, ti->SimById(unit.value_ti_id, rid));
      }
    }
  }
  return std::min(1.0, sim / ti->MaxSim());
}

double SimScorer::CodeSim(const db::ColumnStore& store, const UnitSim& unit,
                          const std::uint32_t* codes) {
  ++sim_evals_;
  if (unit.unit->kind == MatchUnit::Kind::kIdentity) {
    const qlog::TiMatrix* ti = ctx_->ti;
    if (ti == nullptr || ti->MaxSim() <= 0.0) return 0.0;
    parts_.clear();
    for (std::size_t i = 0; i < unit.read_attrs.size(); ++i) {
      if (codes[i] == db::ColumnStore::kNullCode) continue;
      const std::size_t attr = unit.read_attrs[i];
      const db::Value& v = store.dictionary(attr)[codes[i]];
      if (!v.is_text()) continue;
      parts_.push_back(IdPart{v.text(), TiId(attr, codes[i], v.text())});
    }
    return IdentitySim(unit, parts_);
  }
  // Type II: the best Feat_Sim of a condition's value against an element of
  // the row's cell. A NULL cell has no elements, and neither has a column
  // without any (a numeric one).
  double best = 0.0;
  for (const CondSim& cs : unit.conds) {
    const std::size_t attr = cs.cond->attr;
    const std::uint32_t code = codes[cs.read_pos];
    if (code == db::ColumnStore::kNullCode || !terms_->has_elements(attr)) {
      continue;
    }
    const auto [begin, end] = store.DictElementSpan(attr, code);
    for (const std::uint32_t* e = begin; e != end; ++e) {
      best = std::max(best, *e == cs.element
                                ? 1.0
                                : FeatSim(cs.toks, ElementToks(attr, *e)));
    }
  }
  return best;
}

SimScorer::CodeMemo& SimScorer::Memo(const db::ColumnStore& store,
                                     std::size_t dropped_unit) {
  CodeMemo& memo = memos_[dropped_unit];
  if (!memo.ready()) {
    const UnitSim& unit = units_[dropped_unit];
    const std::size_t codes = store.dictionary(unit.read_attrs[0]).size();
    memo.Init(unit.read_attrs.size() == 1 && codes <= CodeMemo::kMaxDenseCodes
                  ? codes + 1
                  : 0);
  }
  return memo;
}

PartialScore SimScorer::Score(const db::Table& table, db::RowId row,
                              std::size_t dropped_unit) {
  PartialScore out;
  ScoreBlock(table, &row, 1, dropped_unit, &out.rank_sim, &out.unit_sim);
  out.measure = unit_measure(dropped_unit);
  return out;
}

const std::string& SimScorer::unit_measure(std::size_t unit) {
  UnitSim& u = units_[unit];
  if (u.measure.empty()) u.measure = MeasureLabel(*schema_, *u.unit);
  return u.measure;
}

void SimScorer::ScoreBlock(const db::Table& table, const db::RowId* rows,
                           std::size_t n, std::size_t dropped_unit,
                           double* rank_sims, double* unit_sims) {
  assert((terms_ == nullptr || &terms_->table() == &table) &&
         "ScoreBlock on a table other than the context's RecordTerms'");
  const UnitSim& unit = units_[dropped_unit];
  const double exact_part = static_cast<double>(units_.size()) - 1.0;
  const db::ColumnStore& store = table.store();
  rows_scored_ += n;

  const MatchUnit::Kind kind = unit.unit->kind;
  if (kind == MatchUnit::Kind::kTypeIII ||
      kind == MatchUnit::Kind::kAmbiguous) {
    // Numeric: read the packed columns directly. Values are nearly unique
    // per row (prices carry cents), so a code table would miss on almost
    // every row. Same arithmetic as ScoreRecord: the max over the unit's
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
      const auto& packed = store.numeric_column(attr);
      if (packed.empty()) continue;
      conds.push_back(NumCond{
          packed.data(),
          c.op == db::CompareOp::kBetween ? (c.lo + c.hi) / 2.0 : c.lo,
          ctx_->attr_range(attr)});
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
    // No cells read, or too wide for the u64 code-tuple key: compute row
    // by row (question shapes never get here in practice — units read one
    // or two attributes).
    codes_.resize(num_attrs);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < num_attrs; ++j) {
        codes_[j] = store.code_column(unit.read_attrs[j])[rows[i]];
      }
      const double s = CodeSim(store, unit, codes_.data());
      rank_sims[i] = exact_part + s;
      if (unit_sims != nullptr) unit_sims[i] = s;
    }
    return;
  }

  // Dictionary codes determine cells, cells determine elements, so the
  // code tuple over read_attrs determines the similarity. kNullCode keys
  // like any other code (the NULL cell's similarity is kept too).
  const std::uint32_t* c0 = store.code_column(unit.read_attrs[0]).data();
  const std::uint32_t* c1 =
      num_attrs == 2 ? store.code_column(unit.read_attrs[1]).data() : nullptr;
  CodeMemo& memo = Memo(store, dropped_unit);
  std::uint32_t codes[2] = {0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const db::RowId r = rows[i];
    codes[0] = c0[r];
    std::uint64_t key = codes[0];
    if (c1 != nullptr) {
      codes[1] = c1[r];
      key = (key << 32) | codes[1];
    }
    const double s =
        memo.Get(key, [&] { return CodeSim(store, unit, codes); });
    rank_sims[i] = exact_part + s;
    if (unit_sims != nullptr) unit_sims[i] = s;
  }
}

void SimScorer::ScoreRecord(const db::Record& record,
                            std::size_t dropped_unit, double* rank_sim,
                            double* unit_sim) {
  const UnitSim& unit = units_[dropped_unit];
  ++rows_scored_;
  ++sim_evals_;
  double sim = 0.0;
  switch (unit.unit->kind) {
    case MatchUnit::Kind::kIdentity: {
      const qlog::TiMatrix* ti = ctx_->ti;
      if (ti == nullptr || ti->MaxSim() <= 0.0) break;
      parts_.clear();
      for (std::size_t attr : unit.read_attrs) {
        const db::Value& v = record[attr];
        if (!v.is_text()) continue;
        parts_.push_back(IdPart{v.text(), ti->Resolve(v.text())});
      }
      sim = IdentitySim(unit, parts_);
      break;
    }

    case MatchUnit::Kind::kTypeII:
      // An element of the base dictionary reads the table's tokens; any
      // other string is tokenized by this request.
      for (const CondSim& cs : unit.conds) {
        const std::size_t attr = cs.cond->attr;
        for (const std::string& element :
             db::ValueElements(*schema_, attr, record[attr])) {
          const std::uint32_t code =
              terms_ != nullptr ? terms_->FindElement(attr, element)
                                : RecordTerms::kNone;
          double s;
          if (code != RecordTerms::kNone) {
            s = code == cs.element ? 1.0
                                   : FeatSim(cs.toks, ElementToks(attr, code));
          } else {
            s = element == cs.cond->value
                    ? 1.0
                    : FeatSim(cs.toks, ValueToks(element));
          }
          sim = std::max(sim, s);
        }
      }
      break;

    case MatchUnit::Kind::kTypeIII:
    case MatchUnit::Kind::kAmbiguous:
      for (const CondSim& cs : unit.conds) {
        const Condition& c = *cs.cond;
        const std::size_t attr = c.attr == kNoAttr ? unit.unit->attr : c.attr;
        const db::Value& v = record[attr];
        if (!v.is_numeric()) continue;
        const double target =
            c.op == db::CompareOp::kBetween ? (c.lo + c.hi) / 2.0 : c.lo;
        sim = std::max(sim, NumSim(target, v.AsDouble(),
                                   ctx_->attr_range(attr)));
      }
      break;
  }
  *rank_sim = static_cast<double>(units_.size()) - 1.0 + sim;
  if (unit_sim != nullptr) *unit_sim = sim;
}

namespace {

/// How large a single-attribute dictionary may be before per-code bound
/// computation stops paying for itself (each code costs one similarity
/// plus a slot in the range-max table).
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
    // value range; non-numeric cells contribute 0 (ScoreBlock skips them),
    // so value-less blocks bound at 0.
    out_bounds->assign(nb, 0.0);
    for (const CondSim& cs : unit.conds) {
      const Condition& c = *cs.cond;
      const std::size_t attr = c.attr == kNoAttr ? unit.unit->attr : c.attr;
      const auto& ab = bounds.attr(attr);
      if (ab.val_min.empty()) continue;  // text column: never numeric
      const double target =
          c.op == db::CompareOp::kBetween ? (c.lo + c.hi) / 2.0 : c.lo;
      const double range = ctx_->attr_range(attr);
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
  const std::size_t dict_size = ab.code_present.size();
  if (dict_size > kMaxDictForRankBounds) return false;

  const db::ColumnStore& store = table.store();
  CodeMemo& memo = Memo(store, dropped_unit);
  std::vector<double> code_sims(dict_size, 0.0);
  for (std::size_t c = 0; c < dict_size; ++c) {
    if (!ab.code_present[c]) continue;  // a code in no row is unreachable
    const auto code = static_cast<std::uint32_t>(c);
    code_sims[c] = memo.Get(code, [&] { return CodeSim(store, unit, &code); });
  }
  double null_sim = 0.0;
  if (ab.any_null) {
    const std::uint32_t null_code = db::ColumnStore::kNullCode;
    null_sim = memo.Get(null_code,
                        [&] { return CodeSim(store, unit, &null_code); });
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

}  // namespace cqads::core
