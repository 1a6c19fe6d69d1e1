#include "core/cqads_engine.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "qlog/log_generator.h"
#include "test_fixtures.h"

namespace cqads::core {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : table_(cqads::testing::MiniCarTable()) {
    qlog::LogGenSpec spec;
    spec.values = {"honda accord", "toyota camry", "chevy malibu",
                   "ford focus",   "honda civic",  "bmw m3"};
    spec.cluster_of = {0, 0, 0, 1, 1, 2};
    spec.num_sessions = 500;
    Rng rng(99);
    qlog::TiMatrix ti =
        qlog::TiMatrix::Build(qlog::GenerateQueryLog(spec, &rng));

    std::vector<std::string> corpus;
    for (int i = 0; i < 5; ++i) {
      corpus.push_back(
          "blue navy paint garage kept excellent condition clean original "
          "owner quality deal gold tan trim");
    }
    ws_ = wordsim::WsMatrix::Build(corpus);

    EXPECT_TRUE(engine_.AddDomain(&table_, std::move(ti)).ok());
    engine_.SetWordSimilarity(&ws_);
    EXPECT_TRUE(engine_.TrainClassifier().ok());
  }

  db::Table table_;
  wordsim::WsMatrix ws_;
  CqadsEngine engine_;
};

TEST_F(EngineTest, AddDomainValidation) {
  CqadsEngine e;
  EXPECT_FALSE(e.AddDomain(nullptr, qlog::TiMatrix()).ok());
  db::Table unindexed(cqads::testing::MiniCarSchema());
  EXPECT_FALSE(e.AddDomain(&unindexed, qlog::TiMatrix()).ok());
}

TEST_F(EngineTest, DuplicateDomainRejected) {
  auto st = engine_.AddDomain(&table_, qlog::TiMatrix());
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, ClassifyRequiresTraining) {
  CqadsEngine fresh;
  EXPECT_FALSE(fresh.ClassifyDomain("honda").ok());
}

TEST_F(EngineTest, SingleDomainClassification) {
  auto domain = engine_.ClassifyDomain("blue honda accord");
  ASSERT_TRUE(domain.ok());
  EXPECT_EQ(domain.value(), "cars");
}

TEST_F(EngineTest, ParseProducesSqlAndInterpretation) {
  auto parsed = engine_.Parse("cars", "blue honda accord under $15,000");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().assembled.interpretation,
            "(make = 'honda' AND model = 'accord') AND color = 'blue' AND "
            "price < 15000");
  EXPECT_NE(parsed.value().sql.find("SELECT * FROM Car_Ads WHERE"),
            std::string::npos);
  EXPECT_NE(parsed.value().sql.find("LIMIT 30"), std::string::npos);
  EXPECT_EQ(parsed.value().assembled.units.size(), 3u);
}

TEST_F(EngineTest, ParseUnknownDomainFails) {
  EXPECT_EQ(engine_.Parse("boats", "x").status().code(),
            StatusCode::kNotFound);
}

TEST_F(EngineTest, ExactAnswersFirst) {
  auto result = engine_.AskInDomain("cars", "blue honda accord");
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  ASSERT_GE(r.answers.size(), 2u);
  EXPECT_EQ(r.exact_count, 2u);  // rows 0 and 1
  EXPECT_TRUE(r.answers[0].exact);
  EXPECT_TRUE(r.answers[1].exact);
  EXPECT_EQ(r.answers[0].row, 0u);
  EXPECT_EQ(r.answers[1].row, 1u);
}

TEST_F(EngineTest, PartialAnswersFollowExact) {
  auto result =
      engine_.AskInDomain("cars", "honda accord blue less than 15000 dollars");
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  EXPECT_EQ(r.exact_count, 1u);  // only row 0 is blue accord under 15000
  ASSERT_GT(r.answers.size(), r.exact_count);
  // Partials are sorted by descending Rank_Sim.
  for (std::size_t i = r.exact_count + 1; i < r.answers.size(); ++i) {
    EXPECT_GE(r.answers[i - 1].rank_sim, r.answers[i].rank_sim);
  }
  // Every partial reports the similarity measure used (Table 2 column).
  for (std::size_t i = r.exact_count; i < r.answers.size(); ++i) {
    EXPECT_FALSE(r.answers[i].measure.empty());
  }
}

TEST_F(EngineTest, PartialAnswersDisjointFromExact) {
  auto result =
      engine_.AskInDomain("cars", "honda accord blue less than 15000 dollars");
  ASSERT_TRUE(result.ok());
  std::set<db::RowId> seen;
  for (const auto& a : result.value().answers) {
    EXPECT_TRUE(seen.insert(a.row).second) << "duplicate row " << a.row;
  }
}

TEST_F(EngineTest, AnswerCapRespected) {
  CqadsEngine::Options opts;
  opts.answer_cap = 3;
  CqadsEngine capped(opts);
  qlog::TiMatrix ti;
  ASSERT_TRUE(capped.AddDomain(&table_, std::move(ti)).ok());
  auto result = capped.AskInDomain("cars", "honda");
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().answers.size(), 3u);
}

TEST_F(EngineTest, PartialDisabledOption) {
  CqadsEngine::Options opts;
  opts.enable_partial = false;
  CqadsEngine no_partial(opts);
  ASSERT_TRUE(no_partial.AddDomain(&table_, qlog::TiMatrix()).ok());
  auto result = no_partial.AskInDomain(
      "cars", "honda accord blue less than 15000 dollars");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().answers.size(), result.value().exact_count);
}

TEST_F(EngineTest, SuperlativeQuestion) {
  auto result = engine_.AskInDomain("cars", "cheapest honda");
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  ASSERT_FALSE(r.answers.empty());
  EXPECT_EQ(r.answers[0].row, 3u);  // civic at 5500
  EXPECT_NE(r.sql.find("ORDER BY Price ASC"), std::string::npos);
}

TEST_F(EngineTest, ContradictionShortCircuits) {
  auto result =
      engine_.AskInDomain("cars", "honda price below 2000 price above 9000");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().contradiction);
  EXPECT_TRUE(result.value().answers.empty());
}

TEST_F(EngineTest, SingleConditionPartialBySimilarity) {
  // One condition and no exact match (minimum price in the fixture is
  // 5500): similarity-only retrieval ranks records by Num_Sim.
  auto result = engine_.AskInDomain("cars", "less than 5000 dollars");
  ASSERT_TRUE(result.ok());
  const auto& r = result.value();
  EXPECT_EQ(r.exact_count, 0u);
  ASSERT_FALSE(r.answers.empty());
  // The cheapest car (civic at 5500) is the closest partial match.
  EXPECT_EQ(r.answers[0].row, 3u);
  EXPECT_EQ(r.answers[0].measure, "Num_Sim on Price");
  for (std::size_t i = 1; i < r.answers.size(); ++i) {
    EXPECT_GE(r.answers[i - 1].rank_sim, r.answers[i].rank_sim);
  }
}

TEST_F(EngineTest, IncompleteQuestionUnionsAttributes) {
  auto result = engine_.AskInDomain("cars", "honda accord 2004");
  ASSERT_TRUE(result.ok());
  // Row 1 (accord year 2004) must be among the exact answers: 2004 is in
  // the year range so year=2004 is one of the unioned candidates.
  bool found = false;
  for (const auto& a : result.value().answers) {
    if (a.row == 1 && a.exact) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(EngineTest, AskRoutesThroughClassifier) {
  auto result = engine_.Ask("blue honda accord");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().domain, "cars");
}

TEST_F(EngineTest, FailedRetrainKeepsTheTrainedClassifier) {
  // Retire every row and compact: the corpus is empty, so a retrain fails.
  for (db::RowId r = 0; r < table_.num_rows(); ++r) {
    ASSERT_TRUE(engine_.RetireAd("cars", r).ok());
  }
  ASSERT_TRUE(engine_.CompactDomain("cars").ok());
  EXPECT_EQ(engine_.TrainClassifier().code(), StatusCode::kInvalidArgument);
  auto before = engine_.Ask("blue honda accord");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before.value().domain, "cars");

  // The next write publishes the classifier that was trained before the
  // failed attempt, not an empty one.
  ASSERT_TRUE(engine_.IngestAd("cars", table_.row(0)).ok());
  auto after = engine_.Ask("blue honda accord");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after.value().domain, "cars");
  EXPECT_FALSE(after.value().answers.empty());
}

TEST_F(EngineTest, RuntimeAccessors) {
  EXPECT_NE(engine_.runtime("cars"), nullptr);
  EXPECT_EQ(engine_.runtime("boats"), nullptr);
  EXPECT_EQ(engine_.Domains(), (std::vector<std::string>{"cars"}));
  EXPECT_EQ(engine_.runtime("cars")->attr_ranges.size(), 10u);
}

TEST_F(EngineTest, StatsAccumulate) {
  auto result =
      engine_.AskInDomain("cars", "honda accord blue less than 15000 dollars");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().stats.index_lookups, 0u);
}

}  // namespace
}  // namespace cqads::core
