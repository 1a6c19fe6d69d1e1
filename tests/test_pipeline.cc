// Ask-path and snapshot tests: the four functions against the engine
// facade, per-stage timings, contradiction short-circuiting,
// snapshot lifecycle (version bumps, runtime sharing across generations),
// and the exact bytes of the canonical answer string.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>

#include "common/rng.h"
#include "core/cqads_engine.h"
#include "core/engine_snapshot.h"
#include "qlog/log_generator.h"
#include "test_fixtures.h"

namespace cqads::core {
namespace {

/// The whole ask path on `snap`, as CqadsEngine::AskInDomain runs it.
Status RunAll(const EngineSnapshot& snap, QueryContext* ctx) {
  CQADS_RETURN_NOT_OK(ClassifyQuestion(snap, ctx));
  auto parsed = ParseQuestion(snap, ctx);
  if (!parsed.ok()) return parsed.status();
  CQADS_RETURN_NOT_OK(PlanQuestion(snap, ctx, &parsed.value()));
  return AnswerQuestion(snap, parsed.value(), ctx);
}

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : table_(cqads::testing::MiniCarTable()) {
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

TEST_F(PipelineTest, FullPipelineMatchesEngineAsk) {
  const char* questions[] = {
      "blue honda accord",
      "honda accord blue less than 15000 dollars",
      "cheapest honda",
      "less than 5000 dollars",
      "honda accord 2004",
  };
  EngineSnapshot::Ptr snap = engine_.snapshot();
  for (const char* q : questions) {
    auto via_engine = engine_.Ask(q);
    ASSERT_TRUE(via_engine.ok()) << q;

    QueryContext ctx(q);
    ASSERT_TRUE(RunAll(*snap, &ctx).ok()) << q;
    EXPECT_EQ(CanonicalAskResultString(ctx.result),
              CanonicalAskResultString(via_engine.value()))
        << q;
  }
}

TEST_F(PipelineTest, TimingsRecordedPerStage) {
  auto result = engine_.AskInDomain("cars", "blue honda accord");
  ASSERT_TRUE(result.ok());
  const auto& timings = result.value().timings;
  ASSERT_EQ(timings.size(), 8u);
  const char* expected[] = {"classify",   "tag",  "conditions", "assemble",
                            "render_sql", "plan", "execute",    "rank"};
  for (std::size_t i = 0; i < timings.size(); ++i) {
    EXPECT_EQ(timings[i].stage, expected[i]);
    EXPECT_GE(timings[i].micros, 0.0);
  }
}

TEST_F(PipelineTest, ContradictionShortCircuits) {
  auto result =
      engine_.AskInDomain("cars", "honda price below 2000 price above 9000");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().contradiction);
  EXPECT_TRUE(result.value().answers.empty());
  // The pipeline stopped at execute: no rank timing was recorded.
  ASSERT_FALSE(result.value().timings.empty());
  EXPECT_EQ(result.value().timings.back().stage, "execute");
}

TEST_F(PipelineTest, ParseAndPlanMatchEngineParse) {
  auto parsed = engine_.Parse("cars", "blue honda accord");
  ASSERT_TRUE(parsed.ok());

  EngineSnapshot::Ptr snap = engine_.snapshot();
  QueryContext ctx("blue honda accord", "cars");
  auto mine = ParseQuestion(*snap, &ctx);
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(PlanQuestion(*snap, &ctx, &mine.value()).ok());
  EXPECT_EQ(mine.value().sql, parsed.value().sql);
  EXPECT_EQ(mine.value().assembled.interpretation,
            parsed.value().assembled.interpretation);
  EXPECT_EQ(mine.value().tags.items.size(), parsed.value().tags.items.size());
  EXPECT_NE(mine.value().plan, nullptr);
  EXPECT_NE(parsed.value().plan, nullptr);
  const char* expected[] = {"tag", "conditions", "assemble", "render_sql",
                            "plan"};
  ASSERT_EQ(ctx.result.timings.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ctx.result.timings[i].stage, expected[i]);
  }
}

TEST_F(PipelineTest, UnknownDomainIsNotFound) {
  QueryContext ctx("blue honda", "boats");
  Status st = RunAll(*engine_.snapshot(), &ctx);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST_F(PipelineTest, SnapshotVersionBumpsOnMutation) {
  EngineSnapshot::Ptr before = engine_.snapshot();
  ASSERT_TRUE(engine_.TrainClassifier().ok());
  EngineSnapshot::Ptr after = engine_.snapshot();
  EXPECT_GT(after->version(), before->version());
  // The old snapshot still answers: in-flight queries are unaffected by
  // the swap.
  QueryContext ctx("blue honda accord", "cars");
  EXPECT_TRUE(RunAll(*before, &ctx).ok());
  EXPECT_FALSE(ctx.result.answers.empty());
}

TEST_F(PipelineTest, SnapshotsShareDomainRuntimes) {
  EngineSnapshot::Ptr before = engine_.snapshot();
  ASSERT_TRUE(engine_.TrainClassifier().ok());
  EngineSnapshot::Ptr after = engine_.snapshot();
  // Retraining must not rebuild tries/lexicons: the per-domain runtime is
  // shared between generations by pointer.
  EXPECT_EQ(before->runtime("cars"), after->runtime("cars"));
}

TEST_F(PipelineTest, BuilderSnapshotAnswersWithoutEngine) {
  // The builder/snapshot layer is usable standalone (no facade).
  db::Table table = cqads::testing::MiniCarTable();
  EngineBuilder builder;
  ASSERT_TRUE(builder.AddDomain(&table, qlog::TiMatrix()).ok());
  ASSERT_TRUE(builder.TrainClassifier().ok());
  EngineSnapshot::Ptr snap = builder.Build();
  ASSERT_TRUE(snap->classifier_trained());

  QueryContext ctx("blue honda accord");
  ASSERT_TRUE(RunAll(*snap, &ctx).ok());
  EXPECT_EQ(ctx.result.domain, "cars");
  EXPECT_FALSE(ctx.result.answers.empty());
}

// The canonical form as std::ostream writes it at precision 17 — the
// reference CanonicalAskResultString must match byte for byte, since the
// parity gates and the serving benchmark's ground truth hash these bytes.
std::string ReferenceCanonical(const AskResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << "domain=" << result.domain << '\n'
     << "sql=" << result.sql << '\n'
     << "interpretation=" << result.interpretation << '\n'
     << "contradiction=" << (result.contradiction ? 1 : 0) << '\n'
     << "exact_count=" << result.exact_count << '\n';
  for (const Answer& a : result.answers) {
    os << "row=" << a.row << " exact=" << (a.exact ? 1 : 0)
       << " rank_sim=" << a.rank_sim << " measure=" << a.measure << '\n';
  }
  return os.str();
}

TEST(CanonicalStringTest, MatchesStreamWriterOnEdgeValuesAndText) {
  using Limits = std::numeric_limits<double>;
  const double doubles[] = {
      0.0,          -0.0,         Limits::infinity(), -Limits::infinity(),
      Limits::quiet_NaN(),        -Limits::quiet_NaN(),
      Limits::denorm_min(),       -Limits::denorm_min(),
      Limits::min(),              Limits::max(),      -Limits::max(),
      0.1,          1.0 / 3.0,    2.0 / 3.0,          1e16,
      1e17,         1e21,         1e-5,               123456.789,
      1.0,          3.0,          0.5,                -2.25};
  AskResult result;
  result.domain = "cars";
  result.sql = "SELECT * FROM cars WHERE make = 'honda' AND note = \"a\\b\"";
  result.interpretation = "line one\nline \"two\"\t\xc3\xa9\xe2\x82\xac";
  result.exact_count = std::numeric_limits<std::size_t>::max();
  const db::RowId rows[] = {0, 1, 9, 10, std::numeric_limits<db::RowId>::max()};
  std::size_t i = 0;
  for (double d : doubles) {
    Answer a;
    a.row = rows[i % 5];
    a.exact = i % 2 == 0;
    a.rank_sim = d;
    a.measure = i % 3 == 0 ? "" : "TI_Sim on Make \"and\"\nModel \xc3\xa9";
    result.answers.push_back(a);
    ++i;
  }
  EXPECT_EQ(CanonicalAskResultString(result), ReferenceCanonical(result));

  result.contradiction = true;
  result.exact_count = 0;
  EXPECT_EQ(CanonicalAskResultString(result), ReferenceCanonical(result));

  AskResult empty;
  EXPECT_EQ(CanonicalAskResultString(empty), ReferenceCanonical(empty));
}

TEST(CanonicalStringTest, MatchesStreamWriterOnRandomBitPatterns) {
  // 1M doubles drawn as raw 64-bit patterns: every exponent, both signs,
  // NaN payloads and denormals, in answers of 4096 rows.
  std::mt19937_64 bits(20260417);
  AskResult result;
  result.domain = "jewellery";
  result.answers.resize(4096);
  for (int batch = 0; batch < 245; ++batch) {
    for (Answer& a : result.answers) {
      const std::uint64_t pattern = bits();
      std::memcpy(&a.rank_sim, &pattern, sizeof(pattern));
      a.row = static_cast<db::RowId>(pattern >> 32);
      a.exact = (pattern & 1) != 0;
    }
    ASSERT_EQ(CanonicalAskResultString(result), ReferenceCanonical(result))
        << "batch " << batch;
  }
}

}  // namespace
}  // namespace cqads::core
