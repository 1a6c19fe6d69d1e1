// The record terms' life in the engine (core/rank_sim.h, RecordTermsCell):
// built on the first rank that scores a base table, never at registration
// or load; shared by the runtime generations of ingest, retire and
// SetOptions; fresh after compaction and after a snapshot reload. Word
// similarity installed after the domain still reaches Feat_Sim, and four
// threads build one cold cell at once. Every answer equals the reference
// oracle's byte for byte (the oracle scores by string and never builds the
// terms).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/cqads_engine.h"
#include "qlog/log_generator.h"
#include "reference/reference_ask.h"
#include "test_fixtures.h"

namespace cqads {
namespace {

class RecordTermsLifecycleTest : public ::testing::Test {
 protected:
  RecordTermsLifecycleTest() : table_(testing::MiniCarTable()) {
    qlog::LogGenSpec spec;
    spec.values = {"honda accord", "toyota camry", "chevy malibu",
                   "ford focus", "bmw m3"};
    spec.cluster_of = {0, 0, 0, 1, 2};
    spec.num_sessions = 400;
    Rng rng(99);
    EXPECT_TRUE(engine_
                    .AddDomain(&table_, qlog::TiMatrix::Build(
                                            qlog::GenerateQueryLog(spec, &rng)))
                    .ok());
    std::vector<std::string> corpus(
        5, "blue navy gold tan paint garage kept excellent condition clean "
           "original owner quality deal trim");
    ws_ = wordsim::WsMatrix::Build(corpus);
  }

  /// Relaxable questions: identity, Type II and numeric units dropped.
  static std::vector<std::string> Questions() {
    return {"blue honda accord under 9000 dollars", "gold honda accord",
            "red toyota camry", "blue ford mustang 2 door",
            "honda accord with gps under 7000 dollars"};
  }

  const core::RecordTermsCell* Cell(const core::CqadsEngine& engine) const {
    return engine.runtime("cars")->record_terms.get();
  }

  /// Asks `question` and checks it against the reference oracle byte for
  /// byte; returns the answer.
  core::AskResult AskChecked(const core::CqadsEngine& engine,
                             const std::string& question) {
    auto r = engine.AskInDomain("cars", question);
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok()) return {};
    auto want =
        reference::ReferenceAskInDomain(*engine.snapshot(), "cars", question);
    EXPECT_TRUE(want.ok()) << want.status();
    if (want.ok()) {
      EXPECT_EQ(core::CanonicalAskResultString(r.value()),
                core::CanonicalAskResultString(want.value()))
          << question;
    }
    return r.value();
  }

  /// Every question once; returns how many partial answers they ranked.
  std::size_t AskAll(const core::CqadsEngine& engine) {
    std::size_t partials = 0;
    for (const std::string& q : Questions()) {
      const core::AskResult r = AskChecked(engine, q);
      partials += r.answers.size() - r.exact_count;
    }
    return partials;
  }

  db::Table table_;
  wordsim::WsMatrix ws_;
  core::CqadsEngine engine_;
};

TEST_F(RecordTermsLifecycleTest, BuiltOnTheFirstRankOnly) {
  const core::RecordTermsCell* cell = Cell(engine_);
  ASSERT_NE(cell, nullptr);
  EXPECT_FALSE(cell->built());
  // An ask whose exact answers suffice ranks nothing.
  core::EngineOptions options;
  options.partial_trigger = 1;
  engine_.SetOptions(options);
  const core::AskResult exact = AskChecked(engine_, "blue honda accord");
  EXPECT_GT(exact.exact_count, 0u);
  EXPECT_EQ(exact.answers.size(), exact.exact_count);
  EXPECT_FALSE(cell->built());

  engine_.SetOptions(core::EngineOptions());
  EXPECT_GT(AskAll(engine_), 0u);
  EXPECT_TRUE(cell->built());
  EXPECT_EQ(Cell(engine_), cell);
}

TEST_F(RecordTermsLifecycleTest, SharedAcrossDeltaAndOptionsFreshAfterCompact) {
  EXPECT_GT(AskAll(engine_), 0u);
  const core::RecordTermsCell* cell = Cell(engine_);
  ASSERT_TRUE(cell->built());
  const core::RecordTerms* terms = &cell->Get();

  // Ingest and retire republish the runtime over the same base table.
  auto row = engine_.IngestAd(
      "cars", testing::MiniCarRecord({"honda", "accord", 2006, 8700, 90000,
                                      "teal", "automatic", "4 door",
                                      "2 wheel drive", "heated seats;gps"}));
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(Cell(engine_), cell);
  ASSERT_TRUE(engine_.RetireAd("cars", 5).ok());
  EXPECT_EQ(Cell(engine_), cell);
  EXPECT_GT(AskAll(engine_), 0u);  // delta rows scored by string
  EXPECT_EQ(&Cell(engine_)->Get(), terms);

  // New options, same base table.
  core::EngineOptions options;
  options.answer_cap = options.partial_trigger = 12;
  options.explain_plans = true;
  engine_.SetOptions(options);
  EXPECT_EQ(Cell(engine_), cell);
  // The Explain rank line reports the scorer's work.
  const core::AskResult explained =
      AskChecked(engine_, "blue honda accord under 9000 dollars");
  EXPECT_GT(explained.stats.rank_rows_scored, 0u);
  EXPECT_GT(explained.stats.rank_sim_evals, 0u);
  EXPECT_NE(explained.explain.find(
                " rows_scored=" +
                std::to_string(explained.stats.rank_rows_scored) +
                " sim_evals=" +
                std::to_string(explained.stats.rank_sim_evals) + " "),
            std::string::npos)
      << explained.explain;

  // Compaction builds a new base table, with a fresh, unbuilt cell.
  ASSERT_TRUE(engine_.CompactDomain("cars").ok());
  const core::RecordTermsCell* compacted = Cell(engine_);
  ASSERT_NE(compacted, nullptr);
  EXPECT_NE(compacted, cell);
  EXPECT_FALSE(compacted->built());
  EXPECT_GT(AskAll(engine_), 0u);
  EXPECT_TRUE(compacted->built());
  EXPECT_EQ(&compacted->Get().table(), engine_.runtime("cars")->table);
}

TEST_F(RecordTermsLifecycleTest, ReloadedSnapshotStartsUnbuilt) {
  engine_.SetWordSimilarity(&ws_);
  EXPECT_GT(AskAll(engine_), 0u);
  const std::string path = ::testing::TempDir() + "cqads_record_terms.snap";
  ASSERT_TRUE(engine_.SaveSnapshot(path).ok());
  auto loaded = core::CqadsEngine::OpenSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const core::CqadsEngine& engine = *loaded.value();
  const core::RecordTermsCell* cell = Cell(engine);
  ASSERT_NE(cell, nullptr);
  EXPECT_NE(cell, Cell(engine_));
  EXPECT_FALSE(cell->built());  // the load builds nothing
  for (const std::string& q : Questions()) {
    const core::AskResult r = AskChecked(engine, q);
    auto want = engine_.AskInDomain("cars", q);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(core::CanonicalAskResultString(r),
              core::CanonicalAskResultString(want.value()))
        << q;
  }
  EXPECT_TRUE(cell->built());
  std::remove(path.c_str());
}

// The terms hold no WS ids: a word matrix installed after the domain, and
// after the terms were built, reaches Feat_Sim on the next snapshot.
TEST_F(RecordTermsLifecycleTest, WordSimilarityAfterAddDomainReachesFeatSim) {
  // "gold honda accord": the pass dropping the color ranks the blue
  // accords by Feat_Sim(gold, blue).
  const std::string q = "gold honda accord";
  auto rank_sims = [&] {
    std::vector<double> out;
    const core::AskResult r = AskChecked(engine_, q);
    for (const core::Answer& a : r.answers) {
      if (!a.exact && a.measure == "Feat_Sim on Color") {
        out.push_back(a.rank_sim);
      }
    }
    return out;
  };
  const std::vector<double> without = rank_sims();
  ASSERT_FALSE(without.empty());
  for (double s : without) EXPECT_EQ(s, 1.0);  // N-1 plus a 0 similarity
  const core::RecordTermsCell* cell = Cell(engine_);
  ASSERT_TRUE(cell->built());

  engine_.SetWordSimilarity(&ws_);
  EXPECT_EQ(Cell(engine_), cell);
  const std::vector<double> with = rank_sims();
  ASSERT_EQ(with.size(), without.size());
  for (double s : with) EXPECT_GT(s, 1.0);
}

// Four threads rank against one runtime whose terms are not built yet: one
// of them builds, every answer is the reference's.
TEST_F(RecordTermsLifecycleTest, FourThreadsBuildOneColdCell) {
  engine_.SetWordSimilarity(&ws_);
  const std::vector<std::string> questions = Questions();
  std::vector<std::string> want;
  for (const std::string& q : questions) {
    auto r = reference::ReferenceAskInDomain(*engine_.snapshot(), "cars", q);
    ASSERT_TRUE(r.ok()) << r.status();
    want.push_back(core::CanonicalAskResultString(r.value()));
  }
  const core::RecordTermsCell* cell = Cell(engine_);
  ASSERT_FALSE(cell->built());

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < questions.size(); ++i) {
          // Each thread starts at a different question.
          const std::size_t q =
              (i + static_cast<std::size_t>(t)) % questions.size();
          auto r = engine_.AskInDomain("cars", questions[q]);
          if (!r.ok() ||
              core::CanonicalAskResultString(r.value()) != want[q]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_TRUE(cell->built());
  EXPECT_EQ(Cell(engine_), cell);
}

}  // namespace
}  // namespace cqads
