#include <gtest/gtest.h>

#include "core/domain_lexicon.h"
#include "core/question_tagger.h"
#include "test_fixtures.h"
#include "text/tokenizer.h"

namespace cqads::core {
namespace {

class LexiconTest : public ::testing::Test {
 protected:
  LexiconTest() : table_(cqads::testing::MiniCarTable()) {
    auto lex = DomainLexicon::Build(&table_);
    EXPECT_TRUE(lex.ok()) << lex.status();
    lexicon_ = std::make_unique<DomainLexicon>(std::move(lex).value());
  }
  db::Table table_;
  std::unique_ptr<DomainLexicon> lexicon_;
};

TEST_F(LexiconTest, BuildRequiresIndexes) {
  db::Table fresh(cqads::testing::MiniCarSchema());
  EXPECT_FALSE(DomainLexicon::Build(&fresh).ok());
  EXPECT_FALSE(DomainLexicon::Build(nullptr).ok());
}

TEST_F(LexiconTest, ValuesInsertedWithTypes) {
  const auto handles = lexicon_->flat_trie().Find("honda");
  ASSERT_FALSE(handles.empty());
  const TaggedItem& item = lexicon_->entry(handles[0]);
  EXPECT_EQ(item.kind, TagKind::kTypeIValue);
  EXPECT_EQ(item.attr, 0u);
  EXPECT_EQ(item.value, "honda");

  const auto blue = lexicon_->flat_trie().Find("blue");
  ASSERT_FALSE(blue.empty());
  EXPECT_EQ(lexicon_->entry(blue[0]).kind, TagKind::kTypeIIValue);
}

TEST_F(LexiconTest, OperatorPhrasesInserted) {
  EXPECT_TRUE(lexicon_->flat_trie().Contains("less than"));
  EXPECT_TRUE(lexicon_->flat_trie().Contains("between"));
  EXPECT_TRUE(lexicon_->flat_trie().Contains("cheapest"));
  EXPECT_TRUE(lexicon_->flat_trie().Contains("not"));
}

TEST_F(LexiconTest, AttributeAliasesAndUnitsInserted) {
  const auto price = lexicon_->flat_trie().Find("price");
  ASSERT_FALSE(price.empty());
  EXPECT_EQ(lexicon_->entry(price[0]).kind, TagKind::kTypeIIIAttr);

  const auto miles = lexicon_->flat_trie().Find("miles");
  ASSERT_FALSE(miles.empty());
  const TaggedItem& item = lexicon_->entry(miles[0]);
  EXPECT_EQ(item.kind, TagKind::kUnit);
  EXPECT_EQ(item.attr, 4u);  // mileage
}

TEST_F(LexiconTest, RulesForAbsentAliasesSkipped) {
  // The car schema has no "salary": the salary superlative must be absent.
  EXPECT_FALSE(lexicon_->flat_trie().Contains("highest paying"));
  // But price/year superlatives are present.
  EXPECT_TRUE(lexicon_->flat_trie().Contains("newest"));
}

TEST_F(LexiconTest, PhraseMatchLongest) {
  auto tokens = text::Tokenize("4 wheel drive please");
  auto match = lexicon_->LongestPhraseMatch(tokens, 0);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->token_count, 3u);
  EXPECT_EQ(lexicon_->entry(match->handles[0]).value, "4 wheel drive");
}

TEST_F(LexiconTest, PhraseMatchSingleToken) {
  auto tokens = text::Tokenize("accord");
  auto match = lexicon_->LongestPhraseMatch(tokens, 0);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->token_count, 1u);
}

TEST_F(LexiconTest, PhraseMatchMissReturnsNullopt) {
  auto tokens = text::Tokenize("zebra stripes");
  EXPECT_FALSE(lexicon_->LongestPhraseMatch(tokens, 0).has_value());
  EXPECT_FALSE(lexicon_->LongestPhraseMatch(tokens, 5).has_value());
}

TEST_F(LexiconTest, FindShorthandResolvesValue) {
  auto item = lexicon_->FindShorthand("2dr");
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->value, "2 door");
  EXPECT_EQ(item->kind, TagKind::kTypeIIValue);
}

TEST_F(LexiconTest, FindShorthandRejectsLongerToken) {
  // "hondaaccord" is longer than any single value: missing-space case.
  EXPECT_FALSE(lexicon_->FindShorthand("hondaaccord").has_value());
}

TEST_F(LexiconTest, ValuesOfReturnsPool) {
  auto makes = lexicon_->ValuesOf(0);
  EXPECT_NE(std::find(makes.begin(), makes.end(), "honda"), makes.end());
  EXPECT_NE(std::find(makes.begin(), makes.end(), "bmw"), makes.end());
}

// -------------------------------------------------------------- tagging

class TaggerTest : public LexiconTest {
 protected:
  TaggerTest() : tagger_(lexicon_.get()) {}

  std::vector<TagKind> Kinds(const std::string& question) {
    std::vector<TagKind> out;
    for (const auto& item : tagger_.Tag(question).items) {
      out.push_back(item.kind);
    }
    return out;
  }

  QuestionTagger tagger_;
};

TEST_F(TaggerTest, PaperQ1Tagging) {
  // "2 door"/TII "red"/TII "BMW"/TI  (Example 2)
  auto result = tagger_.Tag("Do you have a 2 door red BMW?");
  ASSERT_EQ(result.items.size(), 3u);
  EXPECT_EQ(result.items[0].kind, TagKind::kTypeIIValue);
  EXPECT_EQ(result.items[0].value, "2 door");
  EXPECT_EQ(result.items[1].value, "red");
  EXPECT_EQ(result.items[2].kind, TagKind::kTypeIValue);
  EXPECT_EQ(result.items[2].value, "bmw");
}

TEST_F(TaggerTest, PaperQ2Tagging) {
  // "Cheapest"/TIII-CS "2dr"/TII "mazda"/TI "automatic"/TII
  auto result = tagger_.Tag("Cheapest 2dr mazda with automatic transmission");
  ASSERT_GE(result.items.size(), 4u);
  EXPECT_EQ(result.items[0].kind, TagKind::kSuperComplete);
  EXPECT_TRUE(result.items[0].ascending);
  EXPECT_EQ(result.items[1].kind, TagKind::kTypeIIValue);
  EXPECT_EQ(result.items[1].value, "2 door");  // shorthand resolved
  EXPECT_EQ(result.items[2].value, "mazda");
  EXPECT_EQ(result.items[3].value, "automatic");
  ASSERT_EQ(result.shorthands.size(), 1u);
}

TEST_F(TaggerTest, PaperQ3Tagging) {
  // "4 wheel drive"/TII "less than"/op "20k mi"/number+unit
  auto result = tagger_.Tag("I want a 4 wheel drive with less than 20k miles");
  ASSERT_EQ(result.items.size(), 4u);
  EXPECT_EQ(result.items[0].value, "4 wheel drive");
  EXPECT_EQ(result.items[1].kind, TagKind::kOpLess);
  EXPECT_EQ(result.items[2].kind, TagKind::kNumber);
  EXPECT_DOUBLE_EQ(result.items[2].number, 20000.0);
  EXPECT_EQ(result.items[3].kind, TagKind::kUnit);
  EXPECT_EQ(result.items[3].attr, 4u);
}

TEST_F(TaggerTest, MoneyFlagCarried) {
  auto result = tagger_.Tag("accord under $5,000");
  ASSERT_EQ(result.items.size(), 3u);
  EXPECT_EQ(result.items[1].kind, TagKind::kOpLess);
  EXPECT_TRUE(result.items[2].is_money);
  EXPECT_DOUBLE_EQ(result.items[2].number, 5000.0);
}

TEST_F(TaggerTest, MissingSpaceRepaired) {
  auto result = tagger_.Tag("hondaaccord less than 2000");
  ASSERT_EQ(result.segmentations.size(), 1u);
  ASSERT_GE(result.items.size(), 2u);
  EXPECT_EQ(result.items[0].value, "honda");
  EXPECT_EQ(result.items[1].value, "accord");
}

TEST_F(TaggerTest, MisspellingCorrected) {
  auto result = tagger_.Tag("honda accorr less than 2000");
  ASSERT_EQ(result.corrections.size(), 1u);
  EXPECT_EQ(result.items[1].value, "accord");
}

TEST_F(TaggerTest, NegationTagged) {
  auto kinds = Kinds("any car except a blue one");
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], TagKind::kNegation);
  EXPECT_EQ(kinds[1], TagKind::kTypeIIValue);
}

TEST_F(TaggerTest, NoMoreThanBeatsNegationPrefix) {
  // "no more than" is one phrase, not negation + "more than".
  auto result = tagger_.Tag("accord no more than 9000 dollars");
  ASSERT_GE(result.items.size(), 3u);
  EXPECT_EQ(result.items[1].kind, TagKind::kOpLess);
  EXPECT_EQ(result.items[1].op, db::CompareOp::kLe);
}

TEST_F(TaggerTest, BooleanOperatorsTagged) {
  auto kinds = Kinds("blue or red accord and automatic");
  EXPECT_EQ(kinds,
            (std::vector<TagKind>{TagKind::kTypeIIValue, TagKind::kOr,
                                  TagKind::kTypeIIValue, TagKind::kTypeIValue,
                                  TagKind::kAnd, TagKind::kTypeIIValue}));
}

TEST_F(TaggerTest, UnknownWordsDropped) {
  auto result = tagger_.Tag("gorgeous zippy accord");
  EXPECT_EQ(result.items.size(), 1u);
  EXPECT_GE(result.dropped.size(), 1u);
}

TEST_F(TaggerTest, EmptyQuestion) {
  auto result = tagger_.Tag("");
  EXPECT_TRUE(result.items.empty());
}

TEST_F(TaggerTest, PartialSuperlativeWithAttr) {
  auto result = tagger_.Tag("lowest mileage accord");
  // "lowest" (partial) + "mileage" (attr) combine later in the builder; the
  // tagger emits both items.
  ASSERT_GE(result.items.size(), 3u);
  EXPECT_EQ(result.items[0].kind, TagKind::kSuperPartial);
  EXPECT_TRUE(result.items[0].ascending);
  EXPECT_EQ(result.items[1].kind, TagKind::kTypeIIIAttr);
}

}  // namespace
}  // namespace cqads::core
