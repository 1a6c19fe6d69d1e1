#include <gtest/gtest.h>

#include "baselines/aimq_ranker.h"
#include "baselines/cosine_ranker.h"
#include "baselines/cqads_ranker.h"
#include "baselines/faqfinder_ranker.h"
#include "baselines/random_ranker.h"
#include "common/rng.h"
#include "qlog/log_generator.h"
#include "test_fixtures.h"

namespace cqads::baselines {
namespace {

core::MatchUnit IdentityUnit(const char* make, const char* model) {
  core::MatchUnit u;
  u.kind = core::MatchUnit::Kind::kIdentity;
  u.value = std::string(make) + " " + model;
  core::Condition c1;
  c1.kind = core::Condition::Kind::kTypeI;
  c1.attr = 0;
  c1.value = make;
  core::Condition c2 = c1;
  c2.attr = 1;
  c2.value = model;
  u.conds = {c1, c2};
  u.attr = 1;
  db::Predicate p1;
  p1.attr = 0;
  p1.value = db::Value::Text(make);
  db::Predicate p2;
  p2.attr = 1;
  p2.value = db::Value::Text(model);
  u.expr = db::Expr::MakeAnd(
      {db::Expr::MakePredicate(p1), db::Expr::MakePredicate(p2)});
  return u;
}

core::MatchUnit ColorUnit(const char* color) {
  core::MatchUnit u;
  u.kind = core::MatchUnit::Kind::kTypeII;
  u.attr = 5;
  u.value = color;
  core::Condition c;
  c.kind = core::Condition::Kind::kTypeII;
  c.attr = 5;
  c.value = color;
  u.conds = {c};
  db::Predicate p;
  p.attr = 5;
  p.value = db::Value::Text(color);
  u.expr = db::Expr::MakePredicate(p);
  return u;
}

core::MatchUnit PriceUnit(double lo) {
  core::MatchUnit u;
  u.kind = core::MatchUnit::Kind::kTypeIII;
  u.attr = 3;
  core::Condition c;
  c.kind = core::Condition::Kind::kTypeIIIBound;
  c.attr = 3;
  c.op = db::CompareOp::kLt;
  c.lo = lo;
  u.conds = {c};
  db::Predicate p;
  p.attr = 3;
  p.op = db::CompareOp::kLt;
  p.value = db::Value::Real(lo);
  u.expr = db::Expr::MakePredicate(p);
  return u;
}

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : table_(cqads::testing::MiniCarTable()) {
    input_.table = &table_;
    input_.question_text = "honda accord blue less than 15000 dollars";
    input_.units = {IdentityUnit("honda", "accord"), ColorUnit("blue"),
                    PriceUnit(15000)};
    for (db::RowId r = 0; r < table_.num_rows(); ++r) {
      if (r != 0) input_.candidates.push_back(r);  // row 0 is the exact match
    }
  }

  db::Table table_;
  RankInput input_;
};

TEST_F(BaselinesTest, SatisfiedUnitsCounts) {
  // Row 1: honda accord blue at 16536: fails only the price unit.
  EXPECT_EQ(SatisfiedUnits(input_, 1), 2u);
  // Row 5: toyota camry blue 8561: fails only identity.
  EXPECT_EQ(SatisfiedUnits(input_, 5), 2u);
  // Row 9: bmw black 42000: fails all three.
  EXPECT_EQ(SatisfiedUnits(input_, 9), 0u);
}

TEST_F(BaselinesTest, RandomRankerIsPermutationPrefix) {
  RandomRanker ranker(7);
  auto top = ranker.Rank(input_, 5);
  EXPECT_EQ(top.size(), 5u);
  std::set<db::RowId> uniq(top.begin(), top.end());
  EXPECT_EQ(uniq.size(), 5u);
  for (db::RowId r : top) {
    EXPECT_NE(std::find(input_.candidates.begin(), input_.candidates.end(), r),
              input_.candidates.end());
  }
}

TEST_F(BaselinesTest, RandomRankerDeterministicPerSeed) {
  RandomRanker a(7), b(7);
  EXPECT_EQ(a.Rank(input_, 5), b.Rank(input_, 5));
}

TEST_F(BaselinesTest, CosineScoreMonotoneInSatisfaction) {
  double two_of_three = CosineRanker::Score(input_, 1);
  double zero = CosineRanker::Score(input_, 9);
  EXPECT_GT(two_of_three, zero);
  EXPECT_DOUBLE_EQ(zero, 0.0);
  // sqrt(2/3) for 2 satisfied of 3.
  EXPECT_NEAR(two_of_three, std::sqrt(2.0 / 3.0), 1e-12);
}

TEST_F(BaselinesTest, CosineRanksHighSatisfactionFirst) {
  CosineRanker ranker;
  auto top = ranker.Rank(input_, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(SatisfiedUnits(input_, top[0]), SatisfiedUnits(input_, top[2]));
}

TEST_F(BaselinesTest, AimqVSimSelfIsOne) {
  AimqRanker ranker(&table_);
  EXPECT_DOUBLE_EQ(ranker.VSim(0, "honda", "honda"), 1.0);
}

TEST_F(BaselinesTest, AimqVSimSharedContextPositive) {
  AimqRanker ranker(&table_);
  // honda and toyota co-occur with overlapping colors/transmissions.
  double related = ranker.VSim(0, "honda", "toyota");
  EXPECT_GT(related, 0.0);
  EXPECT_LT(related, 1.0);
}

TEST_F(BaselinesTest, AimqVSimUnknownValueZero) {
  AimqRanker ranker(&table_);
  EXPECT_DOUBLE_EQ(ranker.VSim(0, "honda", "nonexistent"), 0.0);
}

TEST_F(BaselinesTest, AimqScoreFavoursNearMisses) {
  AimqRanker ranker(&table_);
  // Row 1 (honda accord blue, price off) vs row 9 (bmw, black, far price).
  EXPECT_GT(ranker.Score(input_, 1), ranker.Score(input_, 9));
}

TEST_F(BaselinesTest, FaqFinderScoresTokenOverlap) {
  FaqFinderRanker ranker(&table_);
  // Row 1 shares "honda accord blue" with the question text.
  EXPECT_GT(ranker.Score(input_.question_text, 1),
            ranker.Score(input_.question_text, 11));
}

TEST_F(BaselinesTest, FaqFinderIgnoresNumericCloseness) {
  FaqFinderRanker ranker(&table_);
  // The paper's criticism: FAQFinder does not compare numeric attributes.
  // A record differing only in price text scores no better for a closer
  // price. Rows 4 and 5 are both blue automatic 4-door non-hondas.
  double s4 = ranker.Score("blue sedan 5899", 4);
  double s5 = ranker.Score("blue sedan 5899", 5);
  // Row 4 has price 5899 which appears verbatim: token equality, not
  // numeric reasoning, drives the score.
  EXPECT_GE(s4, s5);
}

TEST_F(BaselinesTest, CqadsRankerUsesUnitSimilarity) {
  qlog::LogGenSpec spec;
  spec.values = {"honda accord", "toyota camry", "bmw m3"};
  spec.cluster_of = {0, 0, 1};
  spec.num_sessions = 400;
  Rng rng(5);
  qlog::TiMatrix ti = qlog::TiMatrix::Build(qlog::GenerateQueryLog(spec, &rng));
  const std::vector<double> ranges = core::ComputeAttrRanges(table_);
  const auto terms = core::RecordTerms::Build(table_, &ti);
  core::SimilarityContext ctx;
  ctx.ti = &ti;
  ctx.attr_ranges = &ranges;
  ctx.terms = terms.get();

  CqadsRanker ranker(&ctx);
  // Row 5 (camry blue 8561, same segment) should outrank row 9 (bmw).
  EXPECT_GT(ranker.Score(input_, 5), ranker.Score(input_, 9));
  auto top = ranker.Rank(input_, 5);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top.size(), 5u);
}

TEST_F(BaselinesTest, AllRankersRespectK) {
  const std::vector<double> ranges = core::ComputeAttrRanges(table_);
  const auto terms = core::RecordTerms::Build(table_, nullptr);
  core::SimilarityContext ctx;
  ctx.attr_ranges = &ranges;
  ctx.terms = terms.get();
  CqadsRanker cqads(&ctx);
  AimqRanker aimq(&table_);
  CosineRanker cosine;
  FaqFinderRanker faq(&table_);
  RandomRanker random(1);
  for (Ranker* r : std::vector<Ranker*>{&cqads, &aimq, &cosine, &faq,
                                        &random}) {
    EXPECT_LE(r->Rank(input_, 2).size(), 2u) << r->name();
    EXPECT_LE(r->Rank(input_, 100).size(), input_.candidates.size())
        << r->name();
  }
}

TEST_F(BaselinesTest, RankerNames) {
  core::SimilarityContext ctx;
  EXPECT_EQ(CqadsRanker(&ctx).name(), "CQAds");
  EXPECT_EQ(AimqRanker(&table_).name(), "AIMQ");
  EXPECT_EQ(CosineRanker().name(), "Cosine");
  EXPECT_EQ(FaqFinderRanker(&table_).name(), "FAQFinder");
  EXPECT_EQ(RandomRanker(1).name(), "Random");
}

}  // namespace
}  // namespace cqads::baselines
