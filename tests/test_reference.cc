// The serving path against the reference oracle (reference/reference_ask.h)
// across all eight datagen domains: every generated question is answered
// by the engine and by the oracle on the same snapshot, and the canonical
// answers must be byte-identical — on a clean snapshot, with a live ingest
// delta and tombstones, and after compacting them away. The streams are
// checked to exercise exact answers and N-1 ranking both, so the gate
// cannot pass vacuously.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cqads_engine.h"
#include "datagen/ads_generator.h"
#include "datagen/domain_spec.h"
#include "datagen/question_gen.h"
#include "datagen/world.h"
#include "reference/reference_ask.h"

namespace cqads {
namespace {

std::string Canonical(const Result<core::AskResult>& r) {
  return r.ok() ? core::CanonicalAskResultString(r.value())
                : "ERROR: " + r.status().ToString();
}

class ReferenceParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 20111130;
    options.ads_per_domain = 120;
    options.sessions_per_domain = 200;
    options.corpus_docs_per_domain = 40;
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  /// The domain's question stream: the same 60 generated questions (clean
  /// and noisy shapes) every phase asks.
  static std::vector<datagen::GeneratedQuestion> Questions(
      const std::string& domain) {
    Rng rng(555);
    return datagen::GenerateQuestions(*world_->spec(domain),
                                      *world_->table(domain), 60,
                                      datagen::QuestionGenOptions(), &rng);
  }

  /// Asks every question through the engine and through the oracle on the
  /// engine's current snapshot, requiring byte-identical canonical answers.
  /// Counts the questions that shipped exact and partial answers.
  static void ExpectMatchesReference(
      const std::string& domain,
      const std::vector<datagen::GeneratedQuestion>& questions,
      const char* phase, std::size_t* with_exact, std::size_t* with_partial) {
    const core::CqadsEngine& engine = world_->engine();
    const auto snapshot = engine.snapshot();
    for (std::size_t i = 0; i < questions.size(); ++i) {
      const std::string& text = questions[i].text;
      auto served = engine.AskInDomain(domain, text);
      EXPECT_EQ(Canonical(served),
                Canonical(reference::ReferenceAskInDomain(*snapshot, domain,
                                                          text)))
          << phase << " " << domain << " q" << i << ": " << text;
      if (!served.ok()) continue;
      const auto& answers = served.value().answers;
      *with_exact += served.value().exact_count > 0;
      *with_partial += served.value().exact_count < answers.size();
    }
  }

  static datagen::World* world_;
};

datagen::World* ReferenceParityTest::world_ = nullptr;

TEST_P(ReferenceParityTest, CleanSnapshotMatchesReference) {
  const std::string& domain = GetParam();
  ASSERT_EQ(world_->engine().runtime(domain)->live_delta(), nullptr);
  std::size_t with_exact = 0, with_partial = 0;
  ExpectMatchesReference(domain, Questions(domain), "clean", &with_exact,
                         &with_partial);
  EXPECT_GT(with_exact, 0u) << domain;
  EXPECT_GT(with_partial, 0u) << domain;

  // Classification included: ReferenceAsk routes through the same §3
  // classifier, so the whole Ask agrees too.
  const auto snapshot = world_->engine().snapshot();
  const auto questions = Questions(domain);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(Canonical(world_->engine().Ask(questions[i].text)),
              Canonical(reference::ReferenceAsk(*snapshot, questions[i].text)))
        << domain << " q" << i << ": " << questions[i].text;
  }
}

// 40 freshly generated ads ride in the delta, 12 base rows and 7 of the new
// ads are retired, and every answer still matches the oracle, which runs
// the seed executor through the same delta union; then the same after
// compaction folds them into a rebuilt base table.
TEST_P(ReferenceParityTest, LiveDeltaAndTombstonesMatchReference) {
  const std::string& domain = GetParam();
  core::CqadsEngine& engine = world_->mutable_engine();
  const std::size_t base_rows = engine.runtime(domain)->table->num_rows();

  Rng rng(556);
  auto ads = datagen::GenerateAds(*world_->spec(domain), 40, &rng);
  ASSERT_TRUE(ads.ok()) << ads.status();
  std::vector<db::RowId> ingested;
  for (db::RowId r = 0; r < ads.value().num_rows(); ++r) {
    auto id = engine.IngestAd(domain, ads.value().row(r));
    ASSERT_TRUE(id.ok()) << id.status();
    ingested.push_back(id.value());
  }
  for (std::size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(engine.RetireAd(domain, 5 + i * (base_rows / 12)).ok());
  }
  for (std::size_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(engine.RetireAd(domain, ingested[i * 6]).ok());
  }
  ASSERT_NE(engine.runtime(domain)->live_delta(), nullptr);

  const auto questions = Questions(domain);
  std::size_t with_exact = 0, with_partial = 0;
  ExpectMatchesReference(domain, questions, "delta", &with_exact,
                         &with_partial);
  EXPECT_GT(with_exact, 0u) << domain;
  EXPECT_GT(with_partial, 0u) << domain;
  std::size_t delta_answers = 0;
  for (const auto& q : questions) {
    auto r = engine.AskInDomain(domain, q.text);
    if (!r.ok()) continue;
    for (const core::Answer& a : r.value().answers) {
      delta_answers += a.row >= base_rows;
    }
  }
  EXPECT_GT(delta_answers, 0u) << domain;

  ASSERT_TRUE(engine.CompactDomain(domain).ok());
  ASSERT_EQ(engine.runtime(domain)->live_delta(), nullptr);
  ExpectMatchesReference(domain, questions, "compacted", &with_exact,
                         &with_partial);
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, ReferenceParityTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& spec : datagen::AllDomainSpecs()) {
        names.push_back(spec.schema.domain());
      }
      return names;
    }()));

}  // namespace
}  // namespace cqads
