#include "reference/keyword_trie.h"

#include <gtest/gtest.h>

namespace cqads::reference {
namespace {

KeywordTrie MakeCarTrie() {
  KeywordTrie t;
  t.Insert("honda", 1);
  t.Insert("honda shadow", 2);  // shares the "honda" prefix
  t.Insert("accord", 3);
  t.Insert("less than", 4);
  t.Insert("blue", 5);
  t.Insert("2 door", 6);
  return t;
}

TEST(KeywordTrieTest, ContainsAndFind) {
  auto t = MakeCarTrie();
  EXPECT_TRUE(t.Contains("honda"));
  EXPECT_TRUE(t.Contains("less than"));
  EXPECT_FALSE(t.Contains("hond"));
  EXPECT_FALSE(t.Contains("hondas"));
  ASSERT_NE(t.Find("accord"), nullptr);
  EXPECT_EQ((*t.Find("accord"))[0], 3);
  EXPECT_EQ(t.Find("missing"), nullptr);
}

TEST(KeywordTrieTest, SizeCountsDistinctKeywords) {
  auto t = MakeCarTrie();
  EXPECT_EQ(t.size(), 6u);
  t.Insert("honda", 99);  // same keyword, new handle
  EXPECT_EQ(t.size(), 6u);
  ASSERT_NE(t.Find("honda"), nullptr);
  EXPECT_EQ(t.Find("honda")->size(), 2u);
}

TEST(KeywordTrieTest, DuplicateHandleIgnored) {
  KeywordTrie t;
  t.Insert("x", 1);
  t.Insert("x", 1);
  EXPECT_EQ(t.Find("x")->size(), 1u);
}

TEST(KeywordTrieTest, EmptyKeywordIgnored) {
  KeywordTrie t;
  t.Insert("", 1);
  EXPECT_EQ(t.size(), 0u);
}

TEST(KeywordTrieTest, CursorWalk) {
  auto t = MakeCarTrie();
  auto c = t.Walk(t.Root(), "honda");
  ASSERT_TRUE(c.valid());
  EXPECT_TRUE(t.IsTerminal(c));
  EXPECT_TRUE(t.HasChildren(c));  // "honda shadow" continues
  auto c2 = t.Step(c, ' ');
  ASSERT_TRUE(c2.valid());
  EXPECT_FALSE(t.IsTerminal(c2));
  auto c3 = t.Walk(c2, "shadow");
  ASSERT_TRUE(c3.valid());
  EXPECT_TRUE(t.IsTerminal(c3));
  EXPECT_EQ(t.Handles(c3)[0], 2);
}

TEST(KeywordTrieTest, InvalidCursorStaysInvalid) {
  auto t = MakeCarTrie();
  auto c = t.Step(t.Root(), 'z');
  EXPECT_FALSE(c.valid());
  EXPECT_FALSE(t.Step(c, 'a').valid());
  EXPECT_FALSE(t.IsTerminal(c));
  EXPECT_TRUE(t.Handles(c).empty());
}

TEST(KeywordTrieTest, CompletionsFromPrefix) {
  auto t = MakeCarTrie();
  auto c = t.Walk(t.Root(), "hon");
  auto completions = t.Completions(c, "hon", 10);
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].first, "honda");
  EXPECT_EQ(completions[1].first, "honda shadow");
}

TEST(KeywordTrieTest, CompletionsRespectLimit) {
  auto t = MakeCarTrie();
  auto completions = t.Completions(t.Root(), "", 3);
  EXPECT_EQ(completions.size(), 3u);
}

TEST(KeywordTrieTest, CompletionsLexicographic) {
  KeywordTrie t;
  t.Insert("bb", 1);
  t.Insert("ba", 2);
  t.Insert("a", 3);
  auto completions = t.Completions(t.Root(), "", 10);
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0].first, "a");
  EXPECT_EQ(completions[1].first, "ba");
  EXPECT_EQ(completions[2].first, "bb");
}

TEST(KeywordTrieTest, LongestMatchLength) {
  auto t = MakeCarTrie();
  EXPECT_EQ(t.LongestMatchLength("hondaaccord", 0), 5u);
  EXPECT_EQ(t.LongestMatchLength("hondaaccord", 5), 6u);
  EXPECT_EQ(t.LongestMatchLength("xhonda", 0), 0u);
  EXPECT_EQ(t.LongestMatchLength("honda shadow", 0), 12u);  // longest wins
}

TEST(KeywordTrieTest, AllMatchLengthsAscending) {
  auto t = MakeCarTrie();
  auto lengths = t.AllMatchLengths("honda shadow", 0);
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_EQ(lengths[0], 5u);
  EXPECT_EQ(lengths[1], 12u);
}

TEST(KeywordTrieTest, NodeCountGrowsWithSharedPrefixes) {
  KeywordTrie t;
  EXPECT_EQ(t.node_count(), 1u);  // root
  t.Insert("ab", 1);
  EXPECT_EQ(t.node_count(), 3u);
  t.Insert("ac", 2);  // shares 'a'
  EXPECT_EQ(t.node_count(), 4u);
}

TEST(KeywordTrieTest, LookupCostIsLengthBounded) {
  // §4.1.3: O(m) lookups. Indirectly verified: walking m chars visits m
  // cursor steps regardless of trie size.
  KeywordTrie t;
  for (int i = 0; i < 1000; ++i) t.Insert("key" + std::to_string(i), i);
  auto c = t.Root();
  std::string needle = "key999";
  for (char ch : needle) {
    c = t.Step(c, ch);
    ASSERT_TRUE(c.valid());
  }
  EXPECT_TRUE(t.IsTerminal(c));
}

TEST(KeywordTrieTest, MoveSemantics) {
  auto t = MakeCarTrie();
  KeywordTrie moved = std::move(t);
  EXPECT_TRUE(moved.Contains("honda"));
}

}  // namespace
}  // namespace cqads::reference
