// Property-based tests: randomized differential checks of the executor
// against a brute-force row-by-row reference, the cost-aware planner
// against the seed Type-rank executor across every datagen domain, served
// answers against the reference oracle, robustness of the question
// pipeline under garbage input, and invariants of the similarity
// machinery.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cqads_engine.h"
#include "datagen/ads_generator.h"
#include "datagen/domain_spec.h"
#include "db/exec/planner.h"
#include "db/executor.h"
#include "reference/reference_ask.h"
#include "test_fixtures.h"

namespace cqads {
namespace {

// ---------------------------------------------------- executor differential

class RandomExprGen {
 public:
  RandomExprGen(const db::Table* table, Rng* rng) : table_(table), rng_(rng) {}

  db::ExprPtr Generate(int depth) {
    if (depth <= 0 || rng_->Bernoulli(0.45)) {
      return db::Expr::MakePredicate(RandomPredicate());
    }
    double r = rng_->UniformReal(0, 1);
    if (r < 0.4) {
      return db::Expr::MakeAnd({Generate(depth - 1), Generate(depth - 1)});
    }
    if (r < 0.8) {
      return db::Expr::MakeOr({Generate(depth - 1), Generate(depth - 1)});
    }
    return db::Expr::MakeNot(Generate(depth - 1));
  }

 private:
  db::Predicate RandomPredicate() {
    const db::Schema& schema = table_->schema();
    db::Predicate p;
    p.attr = rng_->UniformIndex(schema.num_attributes());
    const db::Attribute& attr = schema.attribute(p.attr);
    if (attr.data_kind == db::DataKind::kNumeric) {
      auto range = table_->NumericRange(p.attr);
      double lo = range.ok() ? range.value().first : 0;
      double hi = range.ok() ? range.value().second : 1;
      static const db::CompareOp kOps[] = {
          db::CompareOp::kEq, db::CompareOp::kNe, db::CompareOp::kLt,
          db::CompareOp::kLe, db::CompareOp::kGt, db::CompareOp::kGe,
          db::CompareOp::kBetween};
      p.op = kOps[rng_->UniformIndex(7)];
      double a = rng_->UniformReal(lo, hi);
      double b = rng_->UniformReal(lo, hi);
      p.value = db::Value::Real(std::min(a, b));
      p.value_hi = db::Value::Real(std::max(a, b));
    } else {
      // Draw a value that exists (or occasionally a miss).
      const db::HashIndex* idx = table_->hash_index(p.attr);
      auto keys = idx->Keys();
      if (!keys.empty() && rng_->Bernoulli(0.9)) {
        p.value = db::Value::Text(keys[rng_->UniformIndex(keys.size())]);
      } else {
        p.value = db::Value::Text("nonexistent-value");
      }
      p.op = rng_->Bernoulli(0.8) ? db::CompareOp::kEq : db::CompareOp::kNe;
      p.allow_shorthand = rng_->Bernoulli(0.5);
    }
    return p;
  }

  const db::Table* table_;
  Rng* rng_;
};

class ExecutorDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorDifferentialTest, IndexedExecutionMatchesBruteForce) {
  Rng rng(1000 + GetParam());
  auto table_result = datagen::GenerateAds(
      *datagen::FindDomainSpec("cars"), 120, &rng);
  ASSERT_TRUE(table_result.ok());
  const db::Table& table = table_result.value();
  db::Executor exec(&table);
  RandomExprGen gen(&table, &rng);

  for (int trial = 0; trial < 50; ++trial) {
    db::Query q;
    q.where = gen.Generate(3);
    q.limit = table.num_rows();
    auto res = exec.Execute(q);
    ASSERT_TRUE(res.ok()) << res.status();
    // Brute force: every row checked individually.
    std::vector<db::RowId> expected;
    for (db::RowId r = 0; r < table.num_rows(); ++r) {
      if (exec.MatchesExpr(r, *q.where)) expected.push_back(r);
    }
    EXPECT_EQ(res.value().rows, expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorDifferentialTest,
                         ::testing::Values(0, 1, 2, 3, 4));

// ------------------------------------------------- planner differential

// The planner reorders conjunctions by estimated selectivity and swaps
// set-op representations by density; none of that may change answers. Pin
// planner-ordered execution to the seed §4.3 Type-rank order across every
// datagen domain and randomized expression trees, superlatives included.
class PlannerDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(PlannerDifferentialTest, PlannedExecutionMatchesSeedAcrossDomains) {
  for (const auto& spec : datagen::AllDomainSpecs()) {
    Rng rng(5000 + GetParam());
    auto table_result = datagen::GenerateAds(spec, 90, &rng);
    ASSERT_TRUE(table_result.ok()) << spec.schema.domain();
    const db::Table& table = table_result.value();
    db::Executor exec(&table);
    db::exec::Planner planner(&table);
    RandomExprGen gen(&table, &rng);

    for (int trial = 0; trial < 25; ++trial) {
      db::Query q;
      q.where = gen.Generate(3);
      q.limit = table.num_rows();
      if (rng.Bernoulli(0.3)) {
        const auto numeric = table.schema().NumericAttrs();
        if (!numeric.empty()) {
          q.superlative = db::Superlative{
              numeric[rng.UniformIndex(numeric.size())], rng.Bernoulli(0.5)};
          q.limit = 1 + rng.UniformIndex(10);
        }
      }
      auto seed = exec.Execute(q);
      auto planned = planner.Run(q);
      ASSERT_TRUE(seed.ok()) << seed.status();
      ASSERT_TRUE(planned.ok()) << planned.status();
      EXPECT_EQ(planned.value().rows, seed.value().rows)
          << spec.schema.domain() << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialTest,
                         ::testing::Values(0, 1, 2));

TEST(PlannerDifferentialTest, EngineAnswersMatchTheReference) {
  db::Table table = cqads::testing::MiniCarTable();
  const char* questions[] = {
      "honda accord blue less than 15000 dollars",
      "cheapest 2 door",
      "red or blue toyota",
      "not manual honda under $9000",
      "2004 accord",
      "gold honda except automatic",
  };

  core::CqadsEngine engine;
  ASSERT_TRUE(engine.AddDomain(&table, qlog::TiMatrix()).ok());

  for (const char* q : questions) {
    auto served = engine.AskInDomain("cars", q);
    auto want = reference::ReferenceAskInDomain(*engine.snapshot(), "cars", q);
    ASSERT_TRUE(served.ok()) << q;
    ASSERT_TRUE(want.ok()) << q;
    EXPECT_EQ(core::CanonicalAskResultString(served.value()),
              core::CanonicalAskResultString(want.value()))
        << q;
  }
}

TEST(ExecutorPropertyTest, SuperlativeReturnsExtremeOfFilteredSet) {
  Rng rng(77);
  auto table_result =
      datagen::GenerateAds(*datagen::FindDomainSpec("cars"), 150, &rng);
  ASSERT_TRUE(table_result.ok());
  const db::Table& table = table_result.value();
  db::Executor exec(&table);
  RandomExprGen gen(&table, &rng);

  for (int trial = 0; trial < 30; ++trial) {
    db::Query q;
    q.where = gen.Generate(2);
    q.superlative = db::Superlative{3, rng.Bernoulli(0.5)};  // price
    q.limit = 1;
    auto res = exec.Execute(q);
    ASSERT_TRUE(res.ok());
    if (res.value().rows.empty()) continue;
    double top = table.cell(res.value().rows[0], 3).AsDouble();
    for (db::RowId r = 0; r < table.num_rows(); ++r) {
      if (!exec.MatchesExpr(r, *q.where)) continue;
      double v = table.cell(r, 3).AsDouble();
      if (q.superlative->ascending) {
        EXPECT_LE(top, v);
      } else {
        EXPECT_GE(top, v);
      }
    }
  }
}

// --------------------------------------------------------- pipeline fuzzing

class PipelineRobustnessTest : public ::testing::Test {
 protected:
  PipelineRobustnessTest() : table_(cqads::testing::MiniCarTable()) {
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
  }
  db::Table table_;
  core::CqadsEngine engine_;
};

TEST_F(PipelineRobustnessTest, RandomBytesNeverCrash) {
  Rng rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    std::size_t len = rng.UniformIndex(60);
    for (std::size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.UniformInt(1, 127)));
    }
    auto result = engine_.AskInDomain("cars", garbage);
    ASSERT_TRUE(result.ok()) << "input: " << garbage;
  }
}

TEST_F(PipelineRobustnessTest, RandomWordSoupNeverCrashes) {
  Rng rng(424242);
  const char* words[] = {"honda",  "blue",   "less",  "than",   "2000",
                         "not",    "or",     "and",   "between", "cheapest",
                         "zzz",    "$5,000", "miles", "except", "4",
                         "door",   "price",  "no",    "accord", "20k"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string question;
    std::size_t n_words = 1 + rng.UniformIndex(12);
    for (std::size_t i = 0; i < n_words; ++i) {
      if (i > 0) question += " ";
      question += words[rng.UniformIndex(std::size(words))];
    }
    auto result = engine_.AskInDomain("cars", question);
    ASSERT_TRUE(result.ok()) << "input: " << question;
    // The cap invariant holds for any input.
    EXPECT_LE(result.value().answers.size(), 30u);
  }
}

TEST_F(PipelineRobustnessTest, VeryLongQuestionHandled) {
  std::string question;
  for (int i = 0; i < 500; ++i) question += "blue honda accord ";
  auto result = engine_.AskInDomain("cars", question);
  ASSERT_TRUE(result.ok());
}

TEST_F(PipelineRobustnessTest, AnswersAlwaysUniqueAndCapped) {
  Rng rng(9);
  const char* questions[] = {
      "honda accord blue less than 15000 dollars",
      "cheapest 2 door",
      "red or blue toyota",
      "not manual honda under $9000",
      "2004 accord",
  };
  for (const char* q : questions) {
    auto result = engine_.AskInDomain("cars", q);
    ASSERT_TRUE(result.ok());
    std::set<db::RowId> seen;
    for (const auto& a : result.value().answers) {
      EXPECT_TRUE(seen.insert(a.row).second) << q;
    }
    EXPECT_LE(result.value().answers.size(), 30u);
    // Exact answers always precede partial ones.
    bool saw_partial = false;
    for (const auto& a : result.value().answers) {
      if (!a.exact) saw_partial = true;
      if (saw_partial) {
        EXPECT_FALSE(a.exact) << q;
      }
    }
  }
}

// ------------------------------------------------------ similarity bounds

TEST(SimilarityPropertyTest, RankSimBoundedByUnitCount) {
  Rng rng(55);
  auto table_result =
      datagen::GenerateAds(*datagen::FindDomainSpec("cars"), 100, &rng);
  ASSERT_TRUE(table_result.ok());
  const db::Table& table = table_result.value();

  const std::vector<double> ranges = core::ComputeAttrRanges(table);
  const auto terms = core::RecordTerms::Build(table, nullptr);
  core::SimilarityContext ctx;
  ctx.attr_ranges = &ranges;
  ctx.terms = terms.get();

  core::MatchUnit unit;
  unit.kind = core::MatchUnit::Kind::kTypeIII;
  unit.attr = 3;
  core::Condition c;
  c.kind = core::Condition::Kind::kTypeIIIBound;
  c.attr = 3;
  c.op = db::CompareOp::kLt;
  c.lo = 9000;
  unit.conds = {c};
  std::vector<core::MatchUnit> units = {unit};

  core::SimScorer scorer(table.schema(), units, ctx);
  for (db::RowId r = 0; r < table.num_rows(); ++r) {
    auto score = scorer.Score(table, r, 0);
    EXPECT_GE(score.unit_sim, 0.0);
    EXPECT_LE(score.unit_sim, 1.0);
    EXPECT_GE(score.rank_sim, 0.0);
    EXPECT_LE(score.rank_sim, 1.0);  // N-1 + sim with N = 1
  }
}

}  // namespace
}  // namespace cqads
