// Unit tests for the exec layer: histograms and selectivity estimation,
// density-adaptive set algebra, compiled predicates (shared NULL and
// canonical-contains semantics), plan-node correctness against the seed
// executor, cost-aware conjunction ordering, and the Explain() dump.
#include "db/exec/planner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "core/boolean_assembler.h"
#include "db/compare.h"
#include "db/exec/rowset_ops.h"
#include "db/exec/table_stats.h"
#include "db/exec/vector_kernels.h"
#include "db/executor.h"
#include "test_fixtures.h"

namespace cqads::db {
namespace {

using exec::CompiledPredicate;
using exec::Histogram;
using exec::Planner;
using exec::TableStats;

Predicate TextEq(std::size_t attr, const char* v,
                 CompareOp op = CompareOp::kEq) {
  Predicate p;
  p.attr = attr;
  p.op = op;
  p.value = Value::Text(v);
  return p;
}

Predicate Num(std::size_t attr, CompareOp op, double v, double hi = 0) {
  Predicate p;
  p.attr = attr;
  p.op = op;
  p.value = Value::Real(v);
  p.value_hi = Value::Real(hi);
  return p;
}

// ------------------------------------------------------------- histograms

TEST(HistogramTest, UniformRangeFractions) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);
  Histogram h = Histogram::Build(values);
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 99.0);
  EXPECT_EQ(h.total, 100u);
  EXPECT_NEAR(h.EstimateRangeFraction(0, 49), 0.5, 0.05);
  EXPECT_NEAR(h.EstimateRangeFraction(0, 99), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(200, 300), 0.0);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(50, 40), 0.0);  // inverted
}

TEST(HistogramTest, SkipsNaNAndHandlesSingleValue) {
  std::vector<double> values = {7.0, std::nan(""), 7.0};
  Histogram h = Histogram::Build(values);
  EXPECT_EQ(h.total, 2u);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(6, 8), 1.0);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(8, 9), 0.0);
}

TEST(HistogramTest, InfiniteValuesKeepTheirRangeAndCount) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {-inf, 1.0, std::nan(""), 2.0, inf};
  Histogram h = Histogram::Build(values);
  EXPECT_EQ(h.lo, -inf);
  EXPECT_EQ(h.hi, inf);
  EXPECT_EQ(h.total, 4u);
  std::uint64_t bucketed = 0;
  for (std::uint32_t c : h.counts) bucketed += c;
  EXPECT_EQ(bucketed, h.total);
}

TEST(HistogramTest, EmptyColumn) {
  Histogram h = Histogram::Build(std::vector<double>{});
  EXPECT_EQ(h.total, 0u);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(0, 1), 0.0);
}

// ------------------------------------------------------------ selectivity

class SelectivityTest : public ::testing::Test {
 protected:
  SelectivityTest() : table_(cqads::testing::MiniCarTable()) {}
  db::Table table_;
};

TEST_F(SelectivityTest, EqualityUsesDistinctCounts) {
  const TableStats& stats = *table_.stats();
  // make: 13 postings over 7 distinct keys -> ~0.14 of rows per probe.
  double make_eq =
      stats.EstimateSelectivity(table_.schema(), TextEq(0, "honda"));
  EXPECT_NEAR(make_eq, 13.0 / 7.0 / 13.0, 1e-9);
  // Negation is the complement.
  double make_ne = stats.EstimateSelectivity(
      table_.schema(), TextEq(0, "honda", CompareOp::kNe));
  EXPECT_NEAR(make_eq + make_ne, 1.0, 1e-9);
}

TEST_F(SelectivityTest, RangeUsesHistogramMass) {
  const TableStats& stats = *table_.stats();
  double below_all = stats.EstimateSelectivity(
      table_.schema(), Num(3, CompareOp::kLt, 1e9));
  EXPECT_NEAR(below_all, 1.0, 0.05);
  double narrow = stats.EstimateSelectivity(
      table_.schema(), Num(3, CompareOp::kBetween, 5500, 7000));
  EXPECT_LT(narrow, below_all);
  EXPECT_GT(narrow, 0.0);
}

TEST_F(SelectivityTest, StatsResolverMatchesObservedRanges) {
  auto resolver =
      core::MakeStatsResolver(&table_.schema(), table_.stats_ptr());
  // 6000 falls only inside price's observed [5500, 42000].
  EXPECT_EQ(resolver(6000, false), (std::vector<std::size_t>{3}));
  // 2005 falls only inside year's [2002, 2010].
  EXPECT_EQ(resolver(2005, false), (std::vector<std::size_t>{2}));
  // '$' restricts to money-denominated attributes.
  EXPECT_EQ(resolver(100000, false), (std::vector<std::size_t>{4}));
  EXPECT_TRUE(resolver(100000, true).empty());
  EXPECT_TRUE(resolver(1e12, false).empty());
}

TEST_F(SelectivityTest, TextRangeOpsMatchNothing) {
  const TableStats& stats = *table_.stats();
  EXPECT_DOUBLE_EQ(
      stats.EstimateSelectivity(table_.schema(),
                                TextEq(0, "honda", CompareOp::kLt)),
      0.0);
}

// ------------------------------------------------------ adaptive set ops

TEST(RowSetOpsTest, BitmapRoundTrip) {
  RowSet set = {0, 3, 63, 64, 65, 127, 200};
  exec::RowBitmap bm = exec::RowBitmap::FromSet(set, 256);
  EXPECT_EQ(bm.Count(), set.size());
  EXPECT_TRUE(bm.Test(63));
  EXPECT_FALSE(bm.Test(62));
  EXPECT_EQ(bm.ToSet(), set);
}

// Universes on and off word boundaries, and densities from empty to full,
// so every physical path (sorted merge, bitmap, empty-operand shortcut) and
// every partial last word is exercised.
constexpr std::size_t kUniverses[] = {1,   63,   64,   65,    127,
                                      128, 1000, 4097, 10037};
constexpr double kDensities[] = {0.0, 0.001, 0.02, 0.1, 0.25, 0.6, 0.95, 1.0};

RowSet Draw(cqads::Rng* rng, std::size_t universe, double density) {
  RowSet s;
  for (RowId r = 0; r < universe; ++r) {
    if (rng->Bernoulli(density)) s.push_back(r);
  }
  return s;
}

/// Bit-at-a-time references for the word-level kernels.
exec::RowBitmap BitAtATimeFromSet(const RowSet& set, std::size_t universe) {
  exec::RowBitmap bm(universe);
  for (RowId r : set) bm.Set(r);
  return bm;
}

RowSet BitAtATimeToSet(const exec::RowBitmap& bm) {
  RowSet out;
  for (RowId r = 0; r < bm.universe(); ++r) {
    if (bm.Test(r)) out.push_back(r);
  }
  return out;
}

std::vector<std::uint64_t> Words(const exec::RowBitmap& bm) {
  return {bm.word_data(), bm.word_data() + bm.word_count()};
}

TEST(RowSetOpsTest, AdaptiveOpsMatchSortedMergeAcrossDensities) {
  cqads::Rng rng(4242);
  for (std::size_t universe : kUniverses) {
    for (double da : kDensities) {
      for (double db : kDensities) {
        const RowSet a = Draw(&rng, universe, da);
        const RowSet b = Draw(&rng, universe, db);
        SCOPED_TRACE(::testing::Message() << "universe=" << universe
                                          << " |a|=" << a.size()
                                          << " |b|=" << b.size());
        EXPECT_EQ(exec::UnionSets(a, b, universe), Union(a, b));
        EXPECT_EQ(exec::IntersectSets(a, b, universe), Intersect(a, b));
        EXPECT_EQ(exec::DifferenceSets(a, b, universe), Difference(a, b));

        // The lazy forms, in every combination of representations.
        for (int form = 0; form < 4; ++form) {
          auto lazy = [&](const RowSet& s, bool dense) {
            return dense ? exec::LazyRowSet::FromBitmap(
                               exec::RowBitmap::FromSet(s, universe))
                         : exec::LazyRowSet::FromRows(s);
          };
          exec::LazyRowSet i = lazy(a, form & 1);
          i.IntersectWith(lazy(b, form & 2), universe);
          EXPECT_EQ(std::move(i).ToRows(), Intersect(a, b)) << form;
          exec::LazyRowSet u = lazy(a, form & 1);
          u.UnionWith(lazy(b, form & 2), universe);
          EXPECT_EQ(u.Count(), Union(a, b).size()) << form;
          EXPECT_EQ(std::move(u).ToRows(), Union(a, b)) << form;
        }
        exec::LazyRowSet c = exec::LazyRowSet::FromRows(a);
        c.ComplementWithin(universe);
        EXPECT_EQ(std::move(c).ToRows(),
                  Difference(Draw(&rng, universe, 1.0), a));
      }
    }
  }
}

TEST(RowSetOpsTest, BitmapKernelsMatchBitAtATimeReference) {
  cqads::Rng rng(977);
  for (std::size_t universe : kUniverses) {
    for (double density : kDensities) {
      const RowSet set = Draw(&rng, universe, density);
      SCOPED_TRACE(::testing::Message() << "universe=" << universe
                                        << " |set|=" << set.size());
      const exec::RowBitmap ref = BitAtATimeFromSet(set, universe);
      const exec::RowBitmap bm = exec::RowBitmap::FromSet(set, universe);
      ASSERT_EQ(Words(bm), Words(ref));
      EXPECT_EQ(bm.Count(), set.size());
      EXPECT_EQ(bm.AnySet(), !set.empty());
      EXPECT_EQ(bm.ToSet(), set);
      EXPECT_EQ(BitAtATimeToSet(bm), set);

      // Complement keeps the bits past the universe clear.
      exec::RowBitmap comp = bm;
      comp.ComplementAll();
      EXPECT_EQ(comp.Count(), universe - set.size());
      EXPECT_EQ(comp.ToSet(), BitAtATimeToSet(comp));
      EXPECT_EQ(comp.ToSet(), Difference(Draw(&rng, universe, 1.0), set));

      // Growing widens the universe with clear rows, in place or from the
      // vector form; the rows past the old universe are settable.
      const std::size_t wider = universe + 70;
      exec::RowBitmap grown = comp;
      grown.Grow(wider);
      EXPECT_EQ(grown.universe(), wider);
      EXPECT_EQ(grown.ToSet(), comp.ToSet());
      grown.Set(static_cast<RowId>(wider - 1));
      EXPECT_EQ(grown.Count(), comp.Count() + 1);
      exec::RowBitmap from_rows =
          exec::LazyRowSet::FromRows(set).ToBitmap(wider);
      exec::RowBitmap from_bitmap =
          exec::LazyRowSet::FromBitmap(bm).ToBitmap(wider);
      EXPECT_EQ(Words(from_rows), Words(BitAtATimeFromSet(set, wider)));
      EXPECT_EQ(Words(from_bitmap), Words(from_rows));

      // Reset clears exactly the named rows.
      exec::RowBitmap reset = bm;
      RowSet kept;
      for (std::size_t i = 0; i < set.size(); ++i) {
        if (i % 3 == 0) {
          reset.Reset(set[i]);
        } else {
          kept.push_back(set[i]);
        }
      }
      EXPECT_EQ(Words(reset), Words(BitAtATimeFromSet(kept, universe)));
    }
  }
}

TEST(RowSetOpsTest, PopCountMatchesBitLoop) {
  auto bit_loop = [](std::uint64_t w) {
    std::size_t n = 0;
    for (int b = 0; b < 64; ++b) n += (w >> b) & 1;
    return n;
  };
  cqads::Rng rng(31);
  std::vector<std::uint64_t> words = {0, ~std::uint64_t{0}, 1,
                                      std::uint64_t{1} << 63,
                                      0x5555555555555555ULL,
                                      0xAAAAAAAAAAAAAAAAULL};
  for (int i = 0; i < 2000; ++i) {
    // Sparse, dense and uniform words alike.
    const std::uint64_t x = rng.engine()(), y = rng.engine()();
    words.push_back(i % 3 == 0 ? x & y : i % 3 == 1 ? x | y : x);
  }
  exec::SelMask mask;
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(exec::PopCount64(words[i]), bit_loop(words[i])) << words[i];
    mask.words[i % exec::kMaskWords] = words[i];
    if (i % exec::kMaskWords == exec::kMaskWords - 1) {
      std::size_t want = 0;
      for (std::uint64_t w : mask.words) want += bit_loop(w);
      EXPECT_EQ(mask.Count(), want);
    }
  }
}

// ------------------------------------------------- compiled predicates

class CompiledPredicateTest : public ::testing::Test {
 protected:
  CompiledPredicateTest()
      : table_(cqads::testing::MiniCarTable()), exec_(&table_) {}
  db::Table table_;
  db::Executor exec_;

  void ExpectAgreesWithExecutor(const Predicate& pred) {
    CompiledPredicate cp = exec::CompilePredicate(table_, pred);
    for (RowId r = 0; r < table_.num_rows(); ++r) {
      EXPECT_EQ(cp.Matches(table_.store(), r), exec_.Matches(r, pred))
          << "row " << r;
    }
  }
};

TEST_F(CompiledPredicateTest, AgreesWithExecutorAcrossOps) {
  ExpectAgreesWithExecutor(TextEq(0, "honda"));
  ExpectAgreesWithExecutor(TextEq(0, "honda", CompareOp::kNe));
  ExpectAgreesWithExecutor(TextEq(9, "cd player"));
  ExpectAgreesWithExecutor(TextEq(9, "player", CompareOp::kContains));
  ExpectAgreesWithExecutor(TextEq(7, "4dr"));  // shorthand for "4 door"
  ExpectAgreesWithExecutor(Num(3, CompareOp::kLt, 9000));
  ExpectAgreesWithExecutor(Num(3, CompareOp::kBetween, 6000, 9000));
  ExpectAgreesWithExecutor(Num(2, CompareOp::kEq, 2007));
  ExpectAgreesWithExecutor(Num(2, CompareOp::kNe, 2007));
  ExpectAgreesWithExecutor(TextEq(5, "blue", CompareOp::kGt));  // text range
}

TEST_F(CompiledPredicateTest, NullCellsMatchOnlyNegations) {
  Table t(cqads::testing::MiniCarSchema());
  Record rec(10);
  rec[0] = Value::Text("honda");
  rec[1] = Value::Text("accord");
  ASSERT_TRUE(t.Insert(std::move(rec)).ok());
  t.BuildIndexes();
  // Shared rule: NullComparisonMatches is the single source of truth.
  EXPECT_TRUE(NullComparisonMatches(CompareOp::kNe));
  EXPECT_FALSE(NullComparisonMatches(CompareOp::kEq));
  EXPECT_FALSE(NullComparisonMatches(CompareOp::kLt));

  CompiledPredicate null_lt =
      exec::CompilePredicate(t, Num(3, CompareOp::kLt, 1e9));
  EXPECT_FALSE(null_lt.Matches(t.store(), 0));
  CompiledPredicate null_ne =
      exec::CompilePredicate(t, TextEq(5, "blue", CompareOp::kNe));
  EXPECT_TRUE(null_ne.Matches(t.store(), 0));
}

TEST_F(CompiledPredicateTest, NumericContainsUsesCanonicalRendering) {
  // Price 16536 rendered canonically contains "653".
  Predicate p = TextEq(3, "653", CompareOp::kContains);
  CompiledPredicate cp = exec::CompilePredicate(table_, p);
  EXPECT_TRUE(cp.Matches(table_.store(), 1));   // 16536
  EXPECT_FALSE(cp.Matches(table_.store(), 0));  // 8900
  EXPECT_EQ(cp.Matches(table_.store(), 1), exec_.Matches(1, p));

  // A numeric-literal probe and the stored real render through ONE path:
  // "8900.50" (text) finds a hypothetical 8900.5 cell and vice versa.
  EXPECT_EQ(CanonicalContainsText(Value::Text("8900.50")),
            CanonicalContainsText(Value::Real(8900.5)));
  EXPECT_EQ(CanonicalContainsText(Value::Real(8900.0)), "8900");
  EXPECT_EQ(CanonicalContainsText(Value::Text("4 door")), "4 door");
  // Only plain decimals canonicalize: hex, scientific, and padded forms
  // are not numeric probes and stay verbatim.
  EXPECT_EQ(CanonicalContainsText(Value::Text("0x10")), "0x10");
  EXPECT_EQ(CanonicalContainsText(Value::Text("1e3")), "1e3");
  EXPECT_EQ(CanonicalContainsText(Value::Text(" 8900")), " 8900");
}

// ------------------------------------------------------- planner + plans

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : table_(cqads::testing::MiniCarTable()),
        exec_(&table_),
        planner_(&table_) {}

  void ExpectPlanMatchesSeed(const Query& q) {
    auto seed = exec_.Execute(q);
    auto planned = planner_.Run(q);
    ASSERT_TRUE(seed.ok());
    ASSERT_TRUE(planned.ok());
    EXPECT_EQ(planned.value().rows, seed.value().rows);
  }

  db::Table table_;
  db::Executor exec_;
  Planner planner_;
};

TEST_F(PlannerTest, ConjunctionMatchesSeedExecutor) {
  Query q;
  q.where = Expr::MakeAnd({Expr::MakePredicate(TextEq(0, "honda")),
                           Expr::MakePredicate(TextEq(5, "blue")),
                           Expr::MakePredicate(Num(3, CompareOp::kLt, 17000))});
  ExpectPlanMatchesSeed(q);
}

TEST_F(PlannerTest, DisjunctionNegationAndNestingMatchSeed) {
  Query q;
  q.where = Expr::MakeOr(
      {Expr::MakeAnd({Expr::MakePredicate(TextEq(0, "toyota")),
                      Expr::MakeNot(Expr::MakePredicate(TextEq(5, "blue")))}),
       Expr::MakePredicate(Num(2, CompareOp::kGe, 2009))});
  ExpectPlanMatchesSeed(q);
}

TEST_F(PlannerTest, SuperlativeAndLimitMatchSeed) {
  Query q;
  q.where = Expr::MakePredicate(TextEq(0, "honda"));
  q.superlative = Superlative{3, true};
  q.limit = 2;
  ExpectPlanMatchesSeed(q);

  q.superlative = Superlative{3, false};
  ExpectPlanMatchesSeed(q);
}

TEST_F(PlannerTest, EmptyWhereMatchesAll) {
  Query q;
  ExpectPlanMatchesSeed(q);
}

TEST_F(PlannerTest, OutOfRangeAttributeFails) {
  Query q;
  q.where = Expr::MakePredicate(TextEq(99, "zzz"));
  EXPECT_FALSE(planner_.Compile(q).ok());
}

TEST_F(PlannerTest, UnbuiltIndexesFail) {
  Table fresh(cqads::testing::MiniCarSchema());
  Planner p(&fresh);
  Query q;
  EXPECT_FALSE(p.Compile(q).ok());
}

TEST_F(PlannerTest, MostSelectivePredicateDrivesThePlan) {
  // price BETWEEN 42000 AND 42000 is estimated far more selective than
  // make = 'honda', so the cost-aware order INVERTS the paper's Type rank
  // (price is Type III, make is Type I) and seeds from the range scan.
  Query q;
  q.where = Expr::MakeAnd(
      {Expr::MakePredicate(TextEq(0, "honda")),
       Expr::MakePredicate(Num(3, CompareOp::kBetween, 42000, 42000))});
  auto plan = planner_.Compile(q);
  ASSERT_TRUE(plan.ok());
  const std::string explain = plan.value()->Explain();
  const auto range_pos = explain.find("RangeScan(price");
  const auto filter_pos = explain.find("Filter(make");
  ASSERT_NE(range_pos, std::string::npos) << explain;
  ASSERT_NE(filter_pos, std::string::npos) << explain;
  // Filter wraps the scan: it prints first, the seed scan is the inner line.
  EXPECT_LT(filter_pos, range_pos) << explain;
  ExpectPlanMatchesSeed(q);
}

TEST_F(PlannerTest, TypeRankBreaksSelectivityTies) {
  // make and color have identical eq estimates on the fixture (13 postings
  // over 7 keys each): the Type rank keeps the paper's order (make first).
  Query q;
  q.where = Expr::MakeAnd({Expr::MakePredicate(TextEq(5, "blue")),
                           Expr::MakePredicate(TextEq(0, "honda"))});
  auto plan = planner_.Compile(q);
  ASSERT_TRUE(plan.ok());
  const std::string explain = plan.value()->Explain();
  EXPECT_NE(explain.find("IndexScan(make"), std::string::npos) << explain;
  EXPECT_NE(explain.find("Filter(color"), std::string::npos) << explain;
}

TEST_F(PlannerTest, ExplainShowsPlanShape) {
  Query q;
  q.where = Expr::MakeOr({Expr::MakePredicate(TextEq(0, "honda")),
                          Expr::MakePredicate(TextEq(0, "toyota"))});
  q.superlative = Superlative{3, true};
  q.limit = 5;
  auto plan = planner_.Compile(q);
  ASSERT_TRUE(plan.ok());
  const std::string explain = plan.value()->Explain();
  EXPECT_NE(explain.find("Plan(limit=5, superlative=price asc)"),
            std::string::npos)
      << explain;
  EXPECT_NE(explain.find("Union("), std::string::npos) << explain;
  EXPECT_NE(explain.find("IndexScan(make = 'honda'"), std::string::npos)
      << explain;
}

TEST_F(PlannerTest, ShorthandKeysResolvedAtCompileTime) {
  Query q;
  q.where = Expr::MakePredicate(TextEq(7, "4dr"));  // stored as "4 door"
  auto plan = planner_.Compile(q);
  ASSERT_TRUE(plan.ok());
  ExpectPlanMatchesSeed(q);
  // The needle is not a stored value itself; the one resolved key is its
  // shorthand expansion "4 door".
  EXPECT_NE(plan.value()->Explain().find("keys=1"), std::string::npos)
      << plan.value()->Explain();
  auto res = plan.value()->Execute();
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.value().rows.empty());
}

}  // namespace
}  // namespace cqads::db
