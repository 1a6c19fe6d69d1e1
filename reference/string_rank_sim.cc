#include "reference/string_rank_sim.h"

#include <algorithm>
#include <string>

#include "db/row_match.h"
#include "text/tokenizer.h"

namespace cqads::reference {

namespace {

/// One row behind either representation: a table row read through the
/// column store, or a row-major delta Record. Scoring below goes through
/// this adapter only, so the two paths cannot drift.
struct RowAccess {
  const db::Schema* schema = nullptr;
  const db::Table* table = nullptr;  ///< table path when non-null
  db::RowId row = 0;
  const db::Record* record = nullptr;  ///< record path otherwise

  const db::Value& cell(std::size_t attr) const {
    return table != nullptr ? table->cell(row, attr) : (*record)[attr];
  }
  std::vector<std::string> elements(std::size_t attr) const {
    return table != nullptr
               ? table->CellElements(row, attr)
               : db::ValueElements(*schema, attr, (*record)[attr]);
  }
};

/// Sorted unique attributes of a unit's conditions (the identity shape).
std::vector<std::size_t> UniqueCondAttrs(const core::MatchUnit& unit) {
  std::vector<std::size_t> attrs;
  for (const auto& c : unit.conds) attrs.push_back(c.attr);
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

/// Word-level Feat_Sim between two possibly multi-word values: each word of
/// the requested value is aligned with its best WS match in the record's
/// value and the alignment scores are averaged, so "2 door" vs "4 door"
/// scores 0.5, not 1.0. Identical words contribute 1; everything is
/// normalized by the matrix maximum per Eq. 5.
double FeatSim(const wordsim::WsMatrix* ws, const std::string& a,
               const std::string& b) {
  if (a == b) return 1.0;
  if (ws == nullptr || ws->MaxSim() <= 0.0) return 0.0;
  auto ta = text::Tokenize(a);
  auto tb = text::Tokenize(b);
  if (ta.empty() || tb.empty()) return 0.0;
  // Conflicting numeric qualifiers are exclusive, not similar: "2 door" and
  // "4 door" share a word but denote incompatible properties.
  std::string digits_a, digits_b;
  for (const auto& t : ta) {
    if (t.kind == text::TokenKind::kNumber) digits_a += t.text + " ";
  }
  for (const auto& t : tb) {
    if (t.kind == text::TokenKind::kNumber) digits_b += t.text + " ";
  }
  if (!digits_a.empty() && !digits_b.empty() && digits_a != digits_b) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& wa : ta) {
    double best = 0.0;
    for (const auto& wb : tb) {
      double s = wa.text == wb.text ? ws->MaxSim() : ws->Sim(wa.text, wb.text);
      best = std::max(best, s);
    }
    sum += best;
  }
  double mean = sum / static_cast<double>(ta.size());
  return std::min(1.0, mean / ws->MaxSim());
}

/// Identity-level TI_Sim with a part-wise fallback: the combined identity
/// strings are tried first; unknown pairs fall back to the best similarity
/// among the individual Type I values.
double IdentitySim(const qlog::TiMatrix* ti, const RowAccess& access,
                   const core::MatchUnit& unit) {
  if (ti == nullptr || ti->MaxSim() <= 0.0) return 0.0;

  // Record identity: the row's values of the unit's Type I attributes, in
  // schema order.
  std::string record_identity;
  std::vector<std::string> record_parts;
  for (std::size_t a : UniqueCondAttrs(unit)) {
    const db::Value& v = access.cell(a);
    if (!v.is_text()) continue;
    if (!record_identity.empty()) record_identity += " ";
    record_identity += v.text();
    record_parts.push_back(v.text());
  }
  if (record_identity == unit.value) return 1.0;

  double sim = ti->Sim(unit.value, record_identity);
  if (sim <= 0.0) {
    for (const auto& c : unit.conds) {
      for (const auto& rp : record_parts) {
        sim = std::max(sim, ti->Sim(c.value, rp));
      }
      sim = std::max(sim, ti->Sim(c.value, record_identity));
      sim = std::max(
          sim, ti->Sim(unit.value, c.value.empty() ? "" : record_identity));
    }
  }
  return std::min(1.0, sim / ti->MaxSim());
}

double UnitSimilarityImpl(const RowAccess& access,
                          const core::MatchUnit& unit,
                          const core::SimilarityContext& ctx) {
  switch (unit.kind) {
    case core::MatchUnit::Kind::kIdentity:
      return IdentitySim(ctx.ti, access, unit);

    case core::MatchUnit::Kind::kTypeII: {
      // Best Feat_Sim between the requested value(s) and the record's
      // value/elements for the attribute.
      double best = 0.0;
      for (const auto& c : unit.conds) {
        for (const auto& element : access.elements(c.attr)) {
          best = std::max(best, FeatSim(ctx.ws, c.value, element));
        }
      }
      return best;
    }

    case core::MatchUnit::Kind::kTypeIII:
    case core::MatchUnit::Kind::kAmbiguous: {
      // Target scalar: an equality's value, a bound's threshold, or a
      // range's midpoint.
      double best = 0.0;
      for (const auto& c : unit.conds) {
        std::size_t attr = c.attr == core::kNoAttr ? unit.attr : c.attr;
        const db::Value& v = access.cell(attr);
        if (!v.is_numeric()) continue;
        double target =
            c.op == db::CompareOp::kBetween ? (c.lo + c.hi) / 2.0 : c.lo;
        best = std::max(best, core::NumSim(target, v.AsDouble(),
                                           ctx.attr_range(attr)));
      }
      return best;
    }
  }
  return 0.0;
}

core::PartialScore ScorePartialMatchImpl(
    const RowAccess& access, const std::vector<core::MatchUnit>& units,
    std::size_t dropped_unit, const core::SimilarityContext& ctx) {
  core::PartialScore out;
  const core::MatchUnit& unit = units[dropped_unit];
  out.unit_sim = UnitSimilarityImpl(access, unit, ctx);
  out.rank_sim = static_cast<double>(units.size()) - 1.0 + out.unit_sim;
  out.measure = core::MeasureLabel(*access.schema, unit);
  return out;
}

RowAccess TableRow(const db::Table& table, db::RowId row) {
  RowAccess access;
  access.schema = &table.schema();
  access.table = &table;
  access.row = row;
  return access;
}

RowAccess RecordRow(const db::Schema& schema, const db::Record& record) {
  RowAccess access;
  access.schema = &schema;
  access.record = &record;
  return access;
}

}  // namespace

double UnitSimilarity(const db::Table& table, db::RowId row,
                      const core::MatchUnit& unit,
                      const core::SimilarityContext& ctx) {
  return UnitSimilarityImpl(TableRow(table, row), unit, ctx);
}

double UnitSimilarity(const db::Schema& schema, const db::Record& record,
                      const core::MatchUnit& unit,
                      const core::SimilarityContext& ctx) {
  return UnitSimilarityImpl(RecordRow(schema, record), unit, ctx);
}

core::PartialScore ScorePartialMatch(const db::Table& table, db::RowId row,
                                     const std::vector<core::MatchUnit>& units,
                                     std::size_t dropped_unit,
                                     const core::SimilarityContext& ctx) {
  return ScorePartialMatchImpl(TableRow(table, row), units, dropped_unit, ctx);
}

core::PartialScore ScorePartialMatch(const db::Schema& schema,
                                     const db::Record& record,
                                     const std::vector<core::MatchUnit>& units,
                                     std::size_t dropped_unit,
                                     const core::SimilarityContext& ctx) {
  return ScorePartialMatchImpl(RecordRow(schema, record), units, dropped_unit,
                               ctx);
}

}  // namespace cqads::reference
