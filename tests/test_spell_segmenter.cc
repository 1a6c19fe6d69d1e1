#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trie/flat_trie.h"
#include "trie/segmenter.h"
#include "trie/spell_corrector.h"

namespace cqads::trie {
namespace {

/// A trie over `keywords`, handle i for the i-th.
FlatTrie TrieOf(const std::vector<std::string>& keywords) {
  std::vector<std::pair<std::string, std::int32_t>> pairs;
  for (const std::string& kw : keywords) {
    pairs.emplace_back(kw, static_cast<std::int32_t>(pairs.size()));
  }
  return FlatTrie::Build(std::move(pairs));
}

FlatTrie MakeTrie() {
  return TrieOf({"honda", "accord", "civic", "camry", "corolla", "toyota",
                 "mazda", "blue", "red", "automatic", "manual", "door",
                 "less than"});
}

// ---------------------------------------------------------------- spelling

TEST(SpellCorrectorTest, CorrectsTransposition) {
  auto t = MakeTrie();
  SpellCorrector corrector(&t);
  auto c = corrector.Correct("accrod");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->keyword, "accord");
}

TEST(SpellCorrectorTest, CorrectsMissingLetter) {
  auto t = MakeTrie();
  SpellCorrector corrector(&t);
  auto c = corrector.Correct("hnda");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->keyword, "honda");
}

TEST(SpellCorrectorTest, CorrectsTrailingTypo) {
  auto t = MakeTrie();
  SpellCorrector corrector(&t);
  auto c = corrector.Correct("accorr");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->keyword, "accord");
  EXPECT_GT(c->percent, 80.0);
}

TEST(SpellCorrectorTest, KnownKeywordNeedsNoCorrection) {
  auto t = MakeTrie();
  SpellCorrector corrector(&t);
  EXPECT_FALSE(corrector.Correct("honda").has_value());
}

TEST(SpellCorrectorTest, GarbageRejected) {
  auto t = MakeTrie();
  SpellCorrector corrector(&t);
  EXPECT_FALSE(corrector.Correct("zzzqqq").has_value());
  EXPECT_FALSE(corrector.Correct("").has_value());
}

TEST(SpellCorrectorTest, ThresholdRespected) {
  auto t = MakeTrie();
  SpellCorrector strict(&t, SpellCorrector::Options{99.0, 512});
  EXPECT_FALSE(strict.Correct("accrod").has_value());
}

TEST(SpellCorrectorTest, FirstLetterFallback) {
  // "cmary" shares only 'c' as a prefix; the fallback still finds "camry".
  auto t = MakeTrie();
  SpellCorrector corrector(&t);
  auto c = corrector.Correct("cmary");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->keyword, "camry");
}

TEST(SpellCorrectorTest, DeterministicTieBreak) {
  FlatTrie t = TrieOf({"aab", "aac"});
  // "aaz" scores 67% against both; lower the bar to observe tie-breaking.
  SpellCorrector corrector(&t, SpellCorrector::Options{60.0, 512});
  auto c1 = corrector.Correct("aaz");
  auto c2 = corrector.Correct("aaz");
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->keyword, c2->keyword);
  EXPECT_EQ(c1->keyword, "aab");  // lexicographically first on ties
}

// -------------------------------------------------------------- segmenting

TEST(SegmenterTest, SplitsTwoKeywords) {
  auto t = MakeTrie();
  EXPECT_EQ(SegmentWord(t, "hondaaccord"),
            (std::vector<std::string>{"honda", "accord"}));
}

TEST(SegmenterTest, SplitsKeywordAndDigits) {
  auto t = MakeTrie();
  EXPECT_EQ(SegmentWord(t, "honda2004"),
            (std::vector<std::string>{"honda", "2004"}));
  EXPECT_EQ(SegmentWord(t, "2004accord"),
            (std::vector<std::string>{"2004", "accord"}));
}

TEST(SegmenterTest, ThreeWaySplit) {
  auto t = MakeTrie();
  EXPECT_EQ(SegmentWord(t, "bluehondaaccord"),
            (std::vector<std::string>{"blue", "honda", "accord"}));
}

TEST(SegmenterTest, SingleKeywordNotSplit) {
  auto t = MakeTrie();
  EXPECT_TRUE(SegmentWord(t, "honda").empty());
}

TEST(SegmenterTest, UnknownSuffixFails) {
  auto t = MakeTrie();
  EXPECT_TRUE(SegmentWord(t, "hondaxyz").empty());
}

TEST(SegmenterTest, ShortInputsFail) {
  auto t = MakeTrie();
  EXPECT_TRUE(SegmentWord(t, "").empty());
  EXPECT_TRUE(SegmentWord(t, "h").empty());
}

TEST(SegmenterTest, BacktracksFromGreedyDeadEnd) {
  FlatTrie t = TrieOf({"carpet", "car", "pets", "pet"});
  // Greedy "carpet" leaves "s" unparseable; backtracking finds car+pets.
  EXPECT_EQ(SegmentWord(t, "carpets"),
            (std::vector<std::string>{"car", "pets"}));
}

TEST(SegmenterTest, PureDigitsNotASegmentation) {
  auto t = MakeTrie();
  // A lone digit run is one segment, and one segment is "no repair".
  EXPECT_TRUE(SegmentWord(t, "2004").empty());
}

}  // namespace
}  // namespace cqads::trie
