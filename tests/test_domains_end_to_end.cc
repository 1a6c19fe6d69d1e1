// Per-domain end-to-end checks, parameterized over all eight domains: clean
// generated questions must retrieve exactly the oracle's rows, and every
// domain's lexicon, ranges, and partial matching must behave.
#include <gtest/gtest.h>

#include "datagen/ads_generator.h"
#include "datagen/question_gen.h"
#include "db/executor.h"
#include "eval/experiments.h"

namespace cqads {
namespace {

class DomainEndToEndTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 777;
    options.ads_per_domain = 220;
    options.sessions_per_domain = 400;
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

datagen::World* DomainEndToEndTest::world_ = nullptr;

TEST_P(DomainEndToEndTest, LexiconCoversAllCategoricalValues) {
  const std::string& domain = GetParam();
  const auto* rt = world_->engine().runtime(domain);
  ASSERT_NE(rt, nullptr);
  const auto* table = world_->table(domain);
  const db::Schema& schema = table->schema();
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const db::HashIndex* idx = table->hash_index(a);
    if (idx == nullptr) continue;
    for (const auto& value : idx->Keys()) {
      EXPECT_TRUE(rt->lexicon->flat_trie().Contains(value))
          << domain << ": missing " << value;
    }
  }
}

TEST_P(DomainEndToEndTest, AttrRangesPositiveForNumerics) {
  const std::string& domain = GetParam();
  const auto* rt = world_->engine().runtime(domain);
  ASSERT_NE(rt, nullptr);
  for (std::size_t a : world_->table(domain)->schema().NumericAttrs()) {
    EXPECT_GT(rt->attr_ranges[a], 0.0) << domain << " attr " << a;
  }
}

TEST_P(DomainEndToEndTest, CleanQuestionsRetrieveOracleRows) {
  const std::string& domain = GetParam();
  const auto* spec = world_->spec(domain);
  const auto* table = world_->table(domain);
  // Clean questions: no perturbations, no Boolean, no incompleteness.
  datagen::QuestionGenOptions opts;
  opts.p_misspell = 0;
  opts.p_missing_space = 0;
  opts.p_shorthand = 0;
  opts.p_incomplete = 0;
  opts.p_boolean = 0;
  opts.p_superlative = 0;
  Rng rng(1234);
  auto questions = datagen::GenerateQuestions(*spec, *table, 30, opts, &rng);

  db::Executor exec(table);
  std::size_t checked = 0;
  for (const auto& q : questions) {
    if (q.is_incomplete) continue;  // equality bounds render as bare numbers
    db::Query oracle = q.oracle;
    oracle.limit = table->num_rows();
    auto truth = exec.Execute(oracle);
    ASSERT_TRUE(truth.ok());
    if (truth.value().rows.empty()) continue;

    auto asked = world_->engine().AskInDomain(domain, q.text);
    ASSERT_TRUE(asked.ok()) << q.text;
    std::vector<db::RowId> retrieved;
    for (const auto& a : asked.value().answers) {
      if (a.exact) retrieved.push_back(a.row);
    }
    std::sort(retrieved.begin(), retrieved.end());
    std::vector<db::RowId> expected = truth.value().rows;
    if (expected.size() > 30) expected.resize(30);
    // Exact answers must be a subset of the oracle rows, and when the
    // oracle set is small, equal to it.
    for (db::RowId r : retrieved) {
      EXPECT_TRUE(std::binary_search(truth.value().rows.begin(),
                                     truth.value().rows.end(), r))
          << domain << ": " << q.text;
    }
    if (truth.value().rows.size() <= 30) {
      EXPECT_EQ(retrieved, truth.value().rows) << domain << ": " << q.text;
    }
    ++checked;
  }
  EXPECT_GE(checked, 10u) << domain;
}

TEST_P(DomainEndToEndTest, PartialMatchingKicksInWhenExactScarce) {
  const std::string& domain = GetParam();
  const auto* spec = world_->spec(domain);
  const auto* table = world_->table(domain);
  datagen::QuestionGenOptions opts;
  opts.p_misspell = 0;
  opts.p_missing_space = 0;
  opts.p_shorthand = 0;
  opts.p_incomplete = 0;
  opts.p_boolean = 0;
  opts.p_superlative = 0;
  opts.max_type_ii = 2;
  Rng rng(4321);
  auto questions = datagen::GenerateQuestions(*spec, *table, 40, opts, &rng);

  std::size_t with_partials = 0;
  for (const auto& q : questions) {
    auto asked = world_->engine().AskInDomain(domain, q.text);
    if (!asked.ok()) continue;
    const auto& r = asked.value();
    if (r.contradiction) continue;
    if (r.exact_count < 30 && r.answers.size() > r.exact_count) {
      ++with_partials;
      // Partials are ordered by non-increasing Rank_Sim.
      for (std::size_t i = r.exact_count + 1; i < r.answers.size(); ++i) {
        EXPECT_GE(r.answers[i - 1].rank_sim, r.answers[i].rank_sim);
      }
    }
  }
  EXPECT_GT(with_partials, 0u) << domain;
}

TEST_P(DomainEndToEndTest, SqlAlwaysWellFormed) {
  const std::string& domain = GetParam();
  const auto* spec = world_->spec(domain);
  const auto* table = world_->table(domain);
  datagen::QuestionGenOptions opts;
  Rng rng(999);
  auto questions = datagen::GenerateQuestions(*spec, *table, 25, opts, &rng);
  for (const auto& q : questions) {
    auto parsed = world_->engine().Parse(domain, q.text);
    ASSERT_TRUE(parsed.ok()) << q.text;
    const std::string& sql = parsed.value().sql;
    EXPECT_EQ(sql.find("SELECT * FROM "), 0u) << q.text;
    EXPECT_NE(sql.find("LIMIT 30"), std::string::npos) << q.text;
    // Balanced parentheses.
    int depth = 0;
    for (char c : sql) {
      if (c == '(') ++depth;
      if (c == ')') --depth;
      ASSERT_GE(depth, 0) << sql;
    }
    EXPECT_EQ(depth, 0) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, DomainEndToEndTest,
    ::testing::Values("cars", "motorcycles", "clothing", "cs_jobs",
                      "furniture", "food_coupons", "instruments",
                      "jewellery"));

}  // namespace
}  // namespace cqads
