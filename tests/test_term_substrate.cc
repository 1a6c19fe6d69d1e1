// The interned-term substrate: TermDict semantics, id-vs-string equivalence
// of the WS and TI similarity matrices, and SimScorer against the
// reference's string-keyed Eq. 5 scorer across all eight datagen domains.
// Whole-ask parity of the substrate path with the seed string paths is
// test_reference's job.
#include <gtest/gtest.h>

#include <random>

#include "common/rng.h"
#include "core/pipeline.h"
#include "core/rank_sim.h"
#include "datagen/domain_spec.h"
#include "datagen/question_gen.h"
#include "datagen/world.h"
#include "qlog/ti_matrix.h"
#include "reference/string_rank_sim.h"
#include "text/porter_stemmer.h"
#include "text/shorthand.h"
#include "text/stopwords.h"
#include "text/term_dict.h"
#include "wordsim/ws_matrix.h"

namespace cqads {
namespace {

// ---- TermDict -------------------------------------------------------------

TEST(TermDictTest, InternAndFind) {
  text::TermDict dict;
  const text::TermId a = dict.Intern("running");
  const text::TermId b = dict.Intern("cars");
  EXPECT_EQ(dict.Intern("running"), a);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Find("running"), a);
  EXPECT_EQ(dict.Find("cars"), b);
  EXPECT_EQ(dict.Find("absent"), text::kInvalidTerm);
  EXPECT_EQ(dict.term(a), "running");
}

TEST(TermDictTest, CachedDerivedForms) {
  text::TermDict dict;
  const text::TermId run = dict.Intern("running");
  const text::TermId the = dict.Intern("the");
  const text::TermId doors = dict.Intern("4-Doors");
  EXPECT_EQ(dict.stem(run), text::PorterStem("running"));
  EXPECT_TRUE(dict.is_stopword(the));
  EXPECT_FALSE(dict.is_stopword(run));
  EXPECT_EQ(dict.shorthand_norm(doors), text::NormalizeForShorthand("4-Doors"));
  EXPECT_EQ(dict.shorthand_norm(doors), "4door");
}

TEST(TermDictTest, FreezeResolvesStemLinks) {
  text::TermDict dict;
  const text::TermId run_stem = dict.Intern("run");
  const text::TermId running = dict.Intern("running");
  const text::TermId orphan = dict.Intern("happily");  // stem not interned
  dict.Freeze();
  EXPECT_TRUE(dict.frozen());
  EXPECT_EQ(dict.stem_id(running), run_stem);
  EXPECT_EQ(dict.stem_id(orphan), text::kInvalidTerm);
  // FindStemOf: interned word fast path and raw-word slow path agree.
  EXPECT_EQ(dict.FindStemOf("running"), run_stem);
  EXPECT_EQ(dict.FindStemOf("runs"), run_stem);  // never interned
  EXPECT_EQ(dict.FindStemOf("xylophone"), text::kInvalidTerm);
}

TEST(TermDictTest, SortedInterningYieldsLexicographicIds) {
  text::TermDict dict;
  std::vector<std::string> sorted = {"alpha", "beta", "gamma", "zeta"};
  for (const auto& s : sorted) dict.Intern(s);
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    EXPECT_LT(dict.Find(sorted[i]), dict.Find(sorted[i + 1]));
  }
}

// ---- matrices: id path == string path ------------------------------------

class SubstrateWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 424242;
    options.ads_per_domain = 150;
    options.sessions_per_domain = 300;
    options.corpus_docs_per_domain = 60;
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static datagen::World* world_;
};

datagen::World* SubstrateWorldTest::world_ = nullptr;

TEST_F(SubstrateWorldTest, SnapshotPublishesTermDicts) {
  const auto snapshot = world_->engine().snapshot();
  // Shared-corpus instance: the WS matrix's stem vocabulary.
  ASSERT_NE(snapshot->shared_terms(), nullptr);
  EXPECT_EQ(snapshot->shared_terms(), &world_->ws_matrix().term_dict());
  EXPECT_TRUE(snapshot->shared_terms()->frozen());
  // Per-domain instances alias the lexicon's dict (no copy) and survive
  // runtime generations that share the lexicon.
  for (const auto& domain : world_->domains()) {
    const auto* rt = snapshot->runtime(domain);
    ASSERT_NE(rt, nullptr);
    ASSERT_NE(rt->terms, nullptr) << domain;
    EXPECT_EQ(rt->terms.get(), &rt->lexicon->terms()) << domain;
    EXPECT_TRUE(rt->terms->frozen()) << domain;
    // Every trie keyword is interned with its cached derived forms.
    const auto& flat = rt->lexicon->flat_trie();
    for (const auto& [kw, handle] :
         flat.Completions(flat.Root(), "", 1u << 20)) {
      (void)handle;
      ASSERT_NE(rt->terms->Find(kw), text::kInvalidTerm) << kw;
    }
  }
}

TEST_F(SubstrateWorldTest, WsIdLookupsMatchStringLookups) {
  const wordsim::WsMatrix& ws = world_->ws_matrix();
  ASSERT_GT(ws.vocabulary_size(), 0u);
  ASSERT_GT(ws.pair_count(), 0u);
  const text::TermDict& dict = *world_->engine().snapshot()->shared_terms();
  ASSERT_TRUE(dict.frozen());

  std::mt19937 rng(99);
  auto rand_id = [&] {
    return static_cast<text::TermId>(rng() % dict.size());
  };
  for (int i = 0; i < 2000; ++i) {
    const text::TermId a = rand_id();
    const text::TermId b = rng() % 7 == 0 ? a : rand_id();
    const std::string& sa = dict.term(a);
    const std::string& sb = dict.term(b);
    // Vocabulary entries are already stems; the string path re-stems them,
    // so compare through SimStemmed (the hoisted legacy entry point).
    EXPECT_DOUBLE_EQ(ws.SimById(a, b), ws.SimStemmed(sa, sb)) << sa << "/" << sb;
    EXPECT_DOUBLE_EQ(ws.SimById(a, b), ws.SimById(b, a));  // symmetric
  }
  // Unknown words: invalid ids on either side yield 0, equal raw strings 1.
  EXPECT_EQ(ws.Resolve("zzzzqqq"), text::kInvalidTerm);
  EXPECT_DOUBLE_EQ(ws.Sim("zzzzqqq", "zzzzqqq"), 1.0);
  EXPECT_DOUBLE_EQ(ws.SimById(text::kInvalidTerm, 0), 0.0);
  EXPECT_DOUBLE_EQ(ws.SimById(0, text::kInvalidTerm), 0.0);

  // MostSimilar: the string form re-stems its input (seed semantics), so it
  // equals the id form exactly when the vocabulary stem is a stemming fixed
  // point; in general it equals the id form of the re-resolved input.
  for (int i = 0; i < 50; ++i) {
    const text::TermId a = rand_id();
    auto by_id = ws.MostSimilarById(a, 10);
    const std::string& term = dict.term(a);
    if (text::PorterStem(term) == term) {
      EXPECT_EQ(by_id, ws.MostSimilar(term, 10));
    }
    EXPECT_EQ(ws.MostSimilar(term, 10),
              ws.MostSimilarById(ws.Resolve(term), 10));
    EXPECT_LE(by_id.size(), std::min<std::size_t>(10, ws.RowDegree(a)));
  }
}

TEST_F(SubstrateWorldTest, TiIdLookupsMatchStringLookups) {
  for (const auto& domain : world_->domains()) {
    const auto* rt = world_->engine().runtime(domain);
    ASSERT_NE(rt, nullptr);
    const qlog::TiMatrix& ti = *rt->ti_matrix;
    if (ti.pair_count() == 0) continue;
    const text::TermDict& dict = ti.term_dict();

    std::mt19937 rng(7 + dict.size());
    auto rand_id = [&] {
      return static_cast<text::TermId>(rng() % dict.size());
    };
    for (int i = 0; i < 1000; ++i) {
      const text::TermId a = rand_id();
      const text::TermId b = rng() % 7 == 0 ? a : rand_id();
      EXPECT_DOUBLE_EQ(ti.SimById(a, b), ti.Sim(dict.term(a), dict.term(b)));
      EXPECT_DOUBLE_EQ(ti.SimById(a, b), ti.SimById(b, a));
    }
    // A == B and unknown values score 0 through both paths.
    const std::string& v0 = dict.term(0);
    EXPECT_DOUBLE_EQ(ti.Sim(v0, v0), 0.0);
    EXPECT_DOUBLE_EQ(ti.SimById(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(ti.Sim("no such value", v0), 0.0);

    for (int i = 0; i < 25; ++i) {
      const text::TermId a = rand_id();
      EXPECT_EQ(ti.MostSimilarById(a, 5), ti.MostSimilar(dict.term(a), 5));
    }

    // AllPairs enumerates the lexicographic upper triangle.
    auto pairs = ti.AllPairs();
    EXPECT_EQ(pairs.size(), ti.pair_count());
    for (std::size_t i = 1; i < pairs.size(); ++i) {
      EXPECT_LE(std::make_pair(std::get<0>(pairs[i - 1]),
                               std::get<1>(pairs[i - 1])),
                std::make_pair(std::get<0>(pairs[i]), std::get<1>(pairs[i])));
    }
    for (const auto& [a, b, sim] : pairs) {
      EXPECT_LT(a, b);
      EXPECT_DOUBLE_EQ(ti.Sim(a, b), sim);
    }
  }
}

// ---- scoring parity: SimScorer vs the seed free functions ----------------

class SubstrateParityTest : public ::testing::TestWithParam<std::string> {
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
  static datagen::World* world_;
};

datagen::World* SubstrateParityTest::world_ = nullptr;

TEST_P(SubstrateParityTest, SimScorerMatchesSeedScoring) {
  const std::string& domain = GetParam();
  const auto snapshot = world_->engine().snapshot();
  const auto* rt = snapshot->runtime(domain);
  ASSERT_NE(rt, nullptr);
  const auto* spec = world_->spec(domain);

  Rng rng(777);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table(domain), 40, datagen::QuestionGenOptions(), &rng);

  const core::SimilarityContext sim = snapshot->MakeSimilarityContext(*rt);
  for (const auto& q : questions) {
    auto parsed = world_->engine().Parse(domain, q.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const auto& units = parsed.value().assembled.units;
    if (units.empty()) continue;

    core::SimScorer scorer(rt->table->schema(), units, sim);
    for (db::RowId row = 0; row < rt->table->num_rows(); row += 7) {
      for (std::size_t dropped = 0; dropped < units.size(); ++dropped) {
        const core::PartialScore seed = reference::ScorePartialMatch(
            *rt->table, row, units, dropped, sim);
        core::PartialScore ids = scorer.Score(*rt->table, row, dropped);
        // Bit-equal, not within a few ULPs: the canonical answer strings
        // compare rank_sim at 17 significant digits.
        ASSERT_EQ(seed.rank_sim, ids.rank_sim)
            << domain << " '" << q.text << "' row " << row;
        ASSERT_EQ(seed.unit_sim, ids.unit_sim)
            << domain << " '" << q.text << "' row " << row;
        ASSERT_EQ(seed.measure, ids.measure);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, SubstrateParityTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& spec : datagen::AllDomainSpecs()) {
        names.push_back(spec.schema.domain());
      }
      return names;
    }()));

}  // namespace
}  // namespace cqads
