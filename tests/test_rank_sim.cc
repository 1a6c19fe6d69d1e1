#include "core/rank_sim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "qlog/log_generator.h"
#include "test_fixtures.h"

namespace cqads::core {
namespace {

TEST(NumSimTest, Equation4) {
  // Example 4: Num_Sim(10000, 7500) = 0.75; Num_Sim(10000, 11000) = 0.90
  // with a price range of 10000.
  EXPECT_DOUBLE_EQ(NumSim(10000, 7500, 10000), 0.75);
  EXPECT_DOUBLE_EQ(NumSim(10000, 11000, 10000), 0.90);
}

TEST(NumSimTest, ClampedToUnitInterval) {
  EXPECT_DOUBLE_EQ(NumSim(0, 100000, 10), 0.0);
  EXPECT_DOUBLE_EQ(NumSim(5, 5, 10), 1.0);
}

TEST(NumSimTest, ZeroRangeYieldsZero) {
  EXPECT_DOUBLE_EQ(NumSim(5, 5, 0), 0.0);
  EXPECT_DOUBLE_EQ(NumSim(5, 5, -1), 0.0);
}

TEST(ComputeAttrRangesTest, TopBottomTenAverages) {
  db::Table table = cqads::testing::MiniCarTable();
  auto ranges = ComputeAttrRanges(table);
  ASSERT_EQ(ranges.size(), table.schema().num_attributes());
  EXPECT_EQ(ranges[0], 0.0);  // categorical: no range
  EXPECT_GT(ranges[3], 0.0);  // price
  // With 12 rows and k=10, range < full spread but positive.
  EXPECT_LT(ranges[3], 42000.0 - 5500.0 + 1.0);
}

/// Eq. 5 for one table row through SimScorer, the serving path's scorer.
PartialScore Score(const db::Table& table, db::RowId row,
                   const std::vector<MatchUnit>& units, std::size_t dropped,
                   const SimilarityContext& ctx) {
  SimScorer scorer(table.schema(), units, ctx);
  return scorer.Score(table, row, dropped);
}

/// The similarity term of one unit alone.
double UnitSim(const db::Table& table, db::RowId row, const MatchUnit& unit,
               const SimilarityContext& ctx) {
  return Score(table, row, {unit}, 0, ctx).unit_sim;
}

class RankSimTest : public ::testing::Test {
 protected:
  RankSimTest() : table_(cqads::testing::MiniCarTable()) {
    // TI matrix: midsize sedans cluster together.
    qlog::LogGenSpec spec;
    spec.values = {"honda accord", "toyota camry", "chevy malibu",
                   "ford focus", "bmw m3", "ford mustang"};
    spec.cluster_of = {0, 0, 0, 1, 2, 2};
    spec.num_sessions = 600;
    Rng rng(123);
    ti_ = qlog::TiMatrix::Build(qlog::GenerateQueryLog(spec, &rng));

    std::vector<std::string> corpus;
    for (int i = 0; i < 6; ++i) {
      corpus.push_back(
          "blue navy paint excellent condition owner garage kept quality "
          "clean original deal warranty gold tan interior");
    }
    ws_ = wordsim::WsMatrix::Build(corpus);

    ctx_.ti = &ti_;
    ctx_.ws = &ws_;
    ctx_.attr_ranges = ComputeAttrRanges(table_);
  }

  MatchUnit IdentityUnit(const char* make, const char* model) {
    MatchUnit u;
    u.kind = MatchUnit::Kind::kIdentity;
    u.value = std::string(make) + " " + model;
    Condition c1;
    c1.kind = Condition::Kind::kTypeI;
    c1.attr = 0;
    c1.value = make;
    Condition c2 = c1;
    c2.attr = 1;
    c2.value = model;
    u.conds = {c1, c2};
    u.attr = 1;
    return u;
  }

  MatchUnit ColorUnit(const char* color) {
    MatchUnit u;
    u.kind = MatchUnit::Kind::kTypeII;
    u.attr = 5;
    u.value = color;
    Condition c;
    c.kind = Condition::Kind::kTypeII;
    c.attr = 5;
    c.value = color;
    u.conds = {c};
    return u;
  }

  MatchUnit PriceUnit(db::CompareOp op, double lo, double hi = 0) {
    MatchUnit u;
    u.kind = MatchUnit::Kind::kTypeIII;
    u.attr = 3;
    Condition c;
    c.kind = Condition::Kind::kTypeIIIBound;
    c.attr = 3;
    c.op = op;
    c.lo = lo;
    c.hi = hi;
    u.conds = {c};
    return u;
  }

  db::Table table_;
  qlog::TiMatrix ti_;
  wordsim::WsMatrix ws_;
  SimilarityContext ctx_;
};

TEST_F(RankSimTest, IdentityExactMatchScoresOne) {
  auto unit = IdentityUnit("honda", "accord");
  EXPECT_DOUBLE_EQ(UnitSim(table_, 0, unit, ctx_), 1.0);
}

TEST_F(RankSimTest, SameSegmentBeatsCrossSegment) {
  auto unit = IdentityUnit("honda", "accord");
  // Row 5 = toyota camry (same latent segment), row 9 = bmw m3.
  double camry = UnitSim(table_, 5, unit, ctx_);
  double bmw = UnitSim(table_, 9, unit, ctx_);
  EXPECT_GT(camry, bmw);
  EXPECT_GT(camry, 0.0);
}

TEST_F(RankSimTest, FeatSimRelatedColorBeatsUnrelated) {
  auto unit = ColorUnit("blue");
  // Row 2 is gold; rows 0/1 are blue (exact). Navy would be related, but
  // the fixture has none; check blue > gold at least via corpus structure:
  double gold = UnitSim(table_, 2, unit, ctx_);
  double blue = UnitSim(table_, 0, unit, ctx_);
  EXPECT_DOUBLE_EQ(blue, 1.0);
  EXPECT_LT(gold, 1.0);
}

TEST_F(RankSimTest, NumSimCloserPriceScoresHigher) {
  auto unit = PriceUnit(db::CompareOp::kLt, 15000);
  // accord at 16536 (row 1) vs bmw at 42000 (row 9).
  double near = UnitSim(table_, 1, unit, ctx_);
  double far = UnitSim(table_, 9, unit, ctx_);
  EXPECT_GT(near, far);
}

TEST_F(RankSimTest, BetweenUsesMidpoint) {
  auto unit = PriceUnit(db::CompareOp::kBetween, 8000, 10000);
  // Midpoint 9000: row 0 (8900) nearly exact.
  EXPECT_GT(UnitSim(table_, 0, unit, ctx_), 0.95);
}

TEST_F(RankSimTest, ScoreAddsNMinusOne) {
  std::vector<MatchUnit> units = {IdentityUnit("honda", "accord"),
                                  ColorUnit("blue"),
                                  PriceUnit(db::CompareOp::kLt, 15000)};
  // Row 5 (camry, blue, 8561): fails only the identity unit.
  auto score = Score(table_, 5, units, 0, ctx_);
  EXPECT_GE(score.rank_sim, 2.0);
  EXPECT_LE(score.rank_sim, 3.0);
  EXPECT_EQ(score.measure, "TI_Sim on Make and Model");
}

TEST_F(RankSimTest, MeasureLabels) {
  std::vector<MatchUnit> units = {IdentityUnit("honda", "accord"),
                                  ColorUnit("blue"),
                                  PriceUnit(db::CompareOp::kLt, 15000)};
  EXPECT_EQ(Score(table_, 1, units, 1, ctx_).measure,
            "Feat_Sim on Color");
  EXPECT_EQ(Score(table_, 1, units, 2, ctx_).measure,
            "Num_Sim on Price");
}

TEST_F(RankSimTest, Table2OrderingShape) {
  // The Table 2 question: "Honda Accord blue less than 15000 dollars".
  // A same-segment sedan missing only the identity should outrank a record
  // missing the identity from a far segment.
  std::vector<MatchUnit> units = {IdentityUnit("honda", "accord"),
                                  ColorUnit("blue"),
                                  PriceUnit(db::CompareOp::kLt, 15000)};
  auto malibu = Score(table_, 4, units, 0, ctx_);  // chevy malibu blue
  auto camry = Score(table_, 5, units, 0, ctx_);   // toyota camry blue
  EXPECT_GT(malibu.rank_sim, 2.0);
  EXPECT_GT(camry.rank_sim, 2.0);
  EXPECT_EQ(malibu.measure, "TI_Sim on Make and Model");
}

TEST_F(RankSimTest, NullContextsDegradeGracefully) {
  SimilarityContext empty;
  empty.attr_ranges = ComputeAttrRanges(table_);
  auto unit = IdentityUnit("honda", "accord");
  EXPECT_DOUBLE_EQ(UnitSim(table_, 5, unit, empty), 0.0);
  // Num_Sim still works without matrices.
  auto price_unit = PriceUnit(db::CompareOp::kLt, 15000);
  EXPECT_GT(UnitSim(table_, 1, price_unit, empty), 0.0);
}

// ------------------------------------- ScoreBlock numeric edge cases

std::uint64_t Bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

Condition NumCond(std::size_t attr, db::CompareOp op, double lo,
                  double hi = 0.0) {
  Condition c;
  c.kind = Condition::Kind::kTypeIIIBound;
  c.attr = attr;
  c.op = op;
  c.lo = lo;
  c.hi = hi;
  return c;
}

// ScoreBlock reads numeric units straight from the packed columns (NaN at
// NULL rows); per-row Score reads cells and skips non-numeric ones. The two
// must agree bit for bit on NULL, NaN-valued and infinite cells, and on a
// column whose range is 0.
TEST(ScoreBlockNumericTest, MatchesPerRowScoreBitForBit) {
  auto attr = [](const char* name, db::AttrType type, db::DataKind kind) {
    db::Attribute a;
    a.name = name;
    a.attr_type = type;
    a.data_kind = kind;
    return a;
  };
  const db::DataKind num = db::DataKind::kNumeric;
  db::Table table(db::Schema(
      "cars", {attr("make", db::AttrType::kTypeI, db::DataKind::kCategorical),
               attr("price", db::AttrType::kTypeIII, num),
               attr("year", db::AttrType::kTypeIII, num),
               attr("mileage", db::AttrType::kTypeIII, num)}));
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<db::Value> prices = {
      db::Value::Null(),
      db::Value::Real(std::numeric_limits<double>::quiet_NaN()),
      db::Value::Real(inf),
      db::Value::Real(-inf),
      db::Value::Real(5000.0),
      db::Value::Real(7000.5),
      db::Value::Int(8000),
      db::Value::Real(8999.75),
      db::Value::Real(12000.0),
      db::Value::Null()};
  for (std::size_t i = 0; i < prices.size(); ++i) {
    db::Record r = {db::Value::Text(i % 2 == 0 ? "honda" : "ford"), prices[i],
                    db::Value::Real(2005.0),  // one distinct value
                    i % 3 == 0 ? db::Value::Null()
                               : db::Value::Real(20000.0 * i)};
    ASSERT_TRUE(table.Insert(std::move(r)).ok());
  }
  table.BuildIndexes();

  SimilarityContext ctx;
  // year holds one distinct value, so its range is 0 (ComputeAttrRanges'
  // top-ten minus bottom-ten average): Num_Sim on it is always 0.
  ctx.attr_ranges = {0.0, 10000.0, 0.0, 150000.0};

  std::vector<MatchUnit> units(3);
  // Type III kBetween on price: target at the midpoint, 8000.
  units[0].kind = MatchUnit::Kind::kTypeIII;
  units[0].attr = 1;
  units[0].conds = {NumCond(1, db::CompareOp::kBetween, 6000.0, 10000.0)};
  // Type III with two conditions on different columns.
  units[1].kind = MatchUnit::Kind::kTypeIII;
  units[1].attr = 1;
  units[1].conds = {NumCond(1, db::CompareOp::kGe, 7000.0),
                    NumCond(3, db::CompareOp::kLe, 60000.0)};
  // Ambiguous "2005": the unit's own attribute (year, range 0) through a
  // kNoAttr placeholder, price, and a text column with no numeric cell.
  units[2].kind = MatchUnit::Kind::kAmbiguous;
  units[2].attr = 2;
  units[2].conds = {NumCond(kNoAttr, db::CompareOp::kEq, 2005.0),
                    NumCond(1, db::CompareOp::kEq, 2005.0),
                    NumCond(0, db::CompareOp::kEq, 2005.0)};

  SimScorer scorer(table.schema(), units, ctx);
  std::vector<db::RowId> rows;  // descending: ScoreBlock needs no order
  for (db::RowId r = table.num_rows(); r-- > 0;) rows.push_back(r);
  std::vector<double> rank(rows.size()), unit(rows.size());
  for (std::size_t dropped = 0; dropped < units.size(); ++dropped) {
    scorer.ScoreBlock(table, rows.data(), rows.size(), dropped, rank.data(),
                      unit.data());
    std::size_t positive = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const PartialScore one = scorer.Score(table, rows[i], dropped);
      EXPECT_EQ(Bits(rank[i]), Bits(one.rank_sim))
          << "unit " << dropped << " row " << rows[i];
      EXPECT_EQ(Bits(unit[i]), Bits(one.unit_sim))
          << "unit " << dropped << " row " << rows[i];
      positive += unit[i] > 0.0;
    }
    // Not vacuous: finite prices near each target score above 0.
    EXPECT_GT(positive, 0u) << "unit " << dropped;
  }
}

}  // namespace
}  // namespace cqads::core
