// FlatTrie against the reference pointer KeywordTrie: FlatTrie::Build must
// answer every walk exactly as the insert-at-a-time oracle does. Unit cases
// first, then the byte order Build must keep for non-ASCII keywords, then a
// randomized differential over the lexicon tries of all eight datagen
// domains (Step/Walk/IsTerminal/Handles/Completions order/LongestMatch/
// AllMatchLengths: everything the segmenter and spell corrector read).
#include "trie/flat_trie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/domain_lexicon.h"
#include "datagen/domain_spec.h"
#include "datagen/world.h"
#include "reference/keyword_trie.h"
#include "snapshot/serde.h"
#include "test_fixtures.h"

namespace cqads::trie {
namespace {

using Pairs = std::vector<std::pair<std::string, std::int32_t>>;
using reference::KeywordTrie;

const Pairs& CarPairs() {
  static const Pairs pairs = {
      {"honda", 1}, {"honda shadow", 2}, {"accord", 3}, {"less than", 4},
      {"blue", 5},  {"2 door", 6},       {"gold", 7},
      {"gold", 8},  // second handle, input order must survive
  };
  return pairs;
}

/// The oracle: the same pairs inserted one at a time.
KeywordTrie OracleOf(const Pairs& pairs) {
  KeywordTrie t;
  for (const auto& [keyword, handle] : pairs) t.Insert(keyword, handle);
  return t;
}

TEST(FlatTrieTest, DefaultConstructedIsSafeNoMatch) {
  FlatTrie never_compiled;
  EXPECT_FALSE(never_compiled.Root().valid());
  EXPECT_FALSE(never_compiled.Contains("x"));
  EXPECT_TRUE(never_compiled.Find("x").empty());
  EXPECT_FALSE(never_compiled.Step(never_compiled.Root(), 'a').valid());
  EXPECT_EQ(never_compiled.LongestMatchLength("abc", 0), 0u);
  EXPECT_TRUE(never_compiled.AllMatchLengths("abc", 0).empty());
  EXPECT_TRUE(
      never_compiled.Completions(never_compiled.Root(), "", 5).empty());
}

TEST(FlatTrieTest, EmptyTrie) {
  FlatTrie flat = FlatTrie::Build({});
  EXPECT_TRUE(flat.empty());
  EXPECT_EQ(flat.size(), 0u);
  EXPECT_EQ(flat.node_count(), 1u);  // root
  EXPECT_FALSE(flat.Contains("anything"));
  EXPECT_FALSE(flat.IsTerminal(flat.Root()));
  EXPECT_FALSE(flat.HasChildren(flat.Root()));
  EXPECT_TRUE(flat.Completions(flat.Root(), "", 10).empty());
}

TEST(FlatTrieTest, BasicLookupsMatchSource) {
  KeywordTrie t = OracleOf(CarPairs());
  FlatTrie flat = FlatTrie::Build(CarPairs());
  EXPECT_EQ(flat.size(), t.size());
  EXPECT_EQ(flat.node_count(), t.node_count());
  EXPECT_TRUE(flat.Contains("honda"));
  EXPECT_TRUE(flat.Contains("less than"));
  EXPECT_FALSE(flat.Contains("hond"));
  EXPECT_FALSE(flat.Contains("hondas"));
  auto handles = flat.Find("gold");
  ASSERT_EQ(handles.size(), 2u);
  EXPECT_EQ(handles[0], 7);  // input order preserved
  EXPECT_EQ(handles[1], 8);
  EXPECT_TRUE(flat.Find("missing").empty());
}

TEST(FlatTrieTest, CursorWalkMatchesSource) {
  KeywordTrie t = OracleOf(CarPairs());
  FlatTrie flat = FlatTrie::Build(CarPairs());
  auto c = flat.Walk(flat.Root(), "honda");
  ASSERT_TRUE(c.valid());
  EXPECT_TRUE(flat.IsTerminal(c));
  EXPECT_TRUE(flat.HasChildren(c));  // "honda shadow" continues
  auto c2 = flat.Step(c, ' ');
  ASSERT_TRUE(c2.valid());
  EXPECT_FALSE(flat.IsTerminal(c2));
  EXPECT_FALSE(flat.Step(c, 'x').valid());
  EXPECT_FALSE(flat.Walk(flat.Root(), "zzz").valid());
  // Stepping an invalid cursor stays invalid.
  EXPECT_FALSE(flat.Step(FlatTrie::Cursor(), 'a').valid());
}

TEST(FlatTrieTest, CompletionsOrderAndLimit) {
  KeywordTrie t = OracleOf(CarPairs());
  FlatTrie flat = FlatTrie::Build(CarPairs());
  auto full = t.Completions(t.Root(), "", 100);
  auto flat_full = flat.Completions(flat.Root(), "", 100);
  ASSERT_EQ(full, flat_full);
  for (std::size_t limit = 0; limit <= full.size() + 1; ++limit) {
    EXPECT_EQ(t.Completions(t.Root(), "", limit),
              flat.Completions(flat.Root(), "", limit))
        << "limit " << limit;
  }
  // Anchored completions under a prefix.
  auto anchor = t.Walk(t.Root(), "ho");
  auto flat_anchor = flat.Walk(flat.Root(), "ho");
  EXPECT_EQ(t.Completions(anchor, "ho", 10),
            flat.Completions(flat_anchor, "ho", 10));
}

TEST(FlatTrieTest, MatchLengths) {
  KeywordTrie t = OracleOf(CarPairs());
  FlatTrie flat = FlatTrie::Build(CarPairs());
  const std::string s = "honda shadow rider";
  for (std::size_t from = 0; from <= s.size(); ++from) {
    EXPECT_EQ(t.LongestMatchLength(s, from), flat.LongestMatchLength(s, from));
    EXPECT_EQ(t.AllMatchLengths(s, from), flat.AllMatchLengths(s, from));
  }
}

// ---- byte order ------------------------------------------------------------

/// Every keyword of `pairs` is found with the oracle's handles, and the full
/// enumeration equals the oracle's.
void ExpectMatchesOracle(const FlatTrie& flat, const KeywordTrie& oracle,
                         const Pairs& pairs, const std::string& label) {
  for (const auto& [keyword, handle] : pairs) {
    (void)handle;
    EXPECT_TRUE(flat.Contains(keyword)) << label << " " << keyword;
    const auto found = flat.Find(keyword);
    const std::vector<std::int32_t>* want = oracle.Find(keyword);
    ASSERT_NE(want, nullptr) << keyword;
    EXPECT_EQ(std::vector<std::int32_t>(found.begin(), found.end()), *want)
        << label << " " << keyword;
  }
  EXPECT_EQ(oracle.Completions(oracle.Root(), "", 1000),
            flat.Completions(flat.Root(), "", 1000))
      << label;
}

TEST(FlatTrieTest, NonAsciiKeywordsFollowStepByteOrder) {
  // Step binary-searches edge labels as `char`. "citroen" and "citroën"
  // (0xC3 0xAB) part at one node, and a byte >= 0x80 sorts before 'e' as
  // a signed char but after it as unsigned (std::string::operator<);
  // "\xC3\xA9lan" does the same at the root.
  Pairs pairs = {{"citroen", 0},  {"citro\xC3\xABn", 1}, {"citrus", 2},
                 {"\xC3\xA9lan", 3}, {"zeta", 4},          {"citroen", 5},
                 {"c", 6}};
  std::mt19937 rng(20111130);
  for (int round = 0; round < 8; ++round) {
    std::shuffle(pairs.begin(), pairs.end(), rng);
    const std::string label = "round " + std::to_string(round);
    const KeywordTrie oracle = OracleOf(pairs);
    const FlatTrie flat = FlatTrie::Build(pairs);
    ExpectMatchesOracle(flat, oracle, pairs, label);

    // The same arrays after a snapshot round trip.
    snapshot::ByteWriter w;
    snapshot::SerdeAccess::WriteFlatTrie(flat, &w);
    snapshot::ByteReader r(w.buffer().data(), w.size(), "flattrie");
    FlatTrie loaded;
    ASSERT_TRUE(
        snapshot::SerdeAccess::ReadFlatTrie(&r, nullptr, &loaded).ok());
    ExpectMatchesOracle(loaded, oracle, pairs, label + " reloaded");
  }
}

TEST(FlatTrieTest, LexiconKeepsNonAsciiValues) {
  // A make column holding both spellings, as a compaction after ingesting
  // a "citroën" ad would leave it.
  const db::Table mini = cqads::testing::MiniCarTable();
  db::Table table(mini.schema());
  for (db::RowId row = 0; row < mini.num_rows(); ++row) {
    ASSERT_TRUE(table.Insert(mini.row(row)).ok());
  }
  for (const char* make : {"citroen", "citro\xC3\xABn"}) {
    db::Record record = mini.row(0);
    record[0] = db::Value::Text(make);
    ASSERT_TRUE(table.Insert(std::move(record)).ok());
  }
  table.BuildIndexes();
  auto lexicon = core::DomainLexicon::Build(&table);
  ASSERT_TRUE(lexicon.ok()) << lexicon.status();
  const FlatTrie& flat = lexicon.value().flat_trie();
  for (const std::string make : {"citroen", "citro\xC3\xABn", "honda"}) {
    EXPECT_TRUE(flat.Contains(make)) << make;
    const auto handles = flat.Find(make);
    ASSERT_EQ(handles.size(), 1u) << make;
    EXPECT_EQ(lexicon.value().entry(handles[0]).value, make);
  }
}

// ---- randomized differential over the eight datagen domains --------------

class FlatTrieDomainTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 20260727;
    options.ads_per_domain = 150;
    options.sessions_per_domain = 100;
    options.corpus_docs_per_domain = 30;
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

datagen::World* FlatTrieDomainTest::world_ = nullptr;

/// All keywords of a trie (differential corpus seed).
std::vector<std::string> Keywords(const KeywordTrie& t) {
  std::vector<std::string> out;
  for (auto& [kw, handle] : t.Completions(t.Root(), "", 1u << 20)) {
    (void)handle;
    if (out.empty() || out.back() != kw) out.push_back(kw);
  }
  return out;
}

TEST_P(FlatTrieDomainTest, RandomizedDifferential) {
  const auto* rt = world_->engine().runtime(GetParam());
  ASSERT_NE(rt, nullptr);
  const core::DomainLexicon& lexicon = *rt->lexicon;
  const FlatTrie& flat = lexicon.flat_trie();
  // The oracle comes from the lexicon's entries, not from the trie under
  // test: every handle h was inserted under keyword entry(h).value.
  KeywordTrie oracle;
  for (std::size_t h = 0; h < lexicon.entry_count(); ++h) {
    const auto handle = static_cast<std::int32_t>(h);
    oracle.Insert(lexicon.entry(handle).value, handle);
  }

  EXPECT_EQ(flat.size(), oracle.size());
  EXPECT_EQ(flat.node_count(), oracle.node_count());
  ASSERT_GT(flat.size(), 0u);

  // Full keyword enumeration must agree, handles included.
  EXPECT_EQ(oracle.Completions(oracle.Root(), "", 1u << 20),
            flat.Completions(flat.Root(), "", 1u << 20));

  const std::vector<std::string> keywords = Keywords(oracle);
  std::mt19937 rng(1234 + keywords.size());
  auto rand_index = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };

  // Probe corpus: real keywords, mutations, truncations, concatenations,
  // and garbage.
  std::vector<std::string> probes;
  for (int i = 0; i < 400; ++i) {
    std::string s = keywords[rand_index(keywords.size())];
    switch (rng() % 5) {
      case 0:
        break;  // exact keyword
      case 1:  // point mutation
        if (!s.empty()) s[rand_index(s.size())] = static_cast<char>('a' + rng() % 26);
        break;
      case 2:  // truncation
        s = s.substr(0, rand_index(s.size() + 1));
        break;
      case 3:  // concatenation (missing-space shape)
        s += keywords[rand_index(keywords.size())];
        break;
      default:  // keyword with noise suffix
        s += static_cast<char>('a' + rng() % 26);
        break;
    }
    probes.push_back(std::move(s));
  }

  for (const std::string& p : probes) {
    EXPECT_EQ(oracle.Contains(p), flat.Contains(p)) << p;

    // Walk char-by-char, comparing cursor state at every step.
    auto oc = oracle.Root();
    auto fc = flat.Root();
    for (char c : p) {
      oc = oracle.Step(oc, c);
      fc = flat.Step(fc, c);
      ASSERT_EQ(oc.valid(), fc.valid()) << p;
      if (!oc.valid()) break;
      ASSERT_EQ(oracle.IsTerminal(oc), flat.IsTerminal(fc)) << p;
      ASSERT_EQ(oracle.HasChildren(oc), flat.HasChildren(fc)) << p;
      const auto& oh = oracle.Handles(oc);
      const auto fh = flat.Handles(fc);
      ASSERT_EQ(std::vector<std::int32_t>(oh.begin(), oh.end()),
                std::vector<std::int32_t>(fh.begin(), fh.end()))
          << p;
    }

    for (std::size_t from = 0; from < p.size(); from += 1 + rng() % 3) {
      EXPECT_EQ(oracle.LongestMatchLength(p, from),
                flat.LongestMatchLength(p, from))
          << p << " @" << from;
      EXPECT_EQ(oracle.AllMatchLengths(p, from), flat.AllMatchLengths(p, from))
          << p << " @" << from;
    }

    // Completions under the probe's deepest valid prefix, random limit.
    std::size_t depth = 0;
    auto a = oracle.Root();
    while (depth < p.size()) {
      auto next = oracle.Step(a, p[depth]);
      if (!next.valid()) break;
      a = next;
      ++depth;
    }
    const std::string prefix = p.substr(0, depth);
    const std::size_t limit = 1 + rng() % 64;
    EXPECT_EQ(
        oracle.Completions(oracle.Walk(oracle.Root(), prefix), prefix, limit),
        flat.Completions(flat.Walk(flat.Root(), prefix), prefix, limit))
        << prefix;
  }

  // The flat arrays should be materially smaller than the pointer tree.
  EXPECT_LT(flat.MemoryBytes(), oracle.ApproxMemoryBytes());
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, FlatTrieDomainTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& spec : datagen::AllDomainSpecs()) {
        names.push_back(spec.schema.domain());
      }
      return names;
    }()));

}  // namespace
}  // namespace cqads::trie
