// Ablation A1 (§4.1.3's data-structure claim): keyword lookup cost of the
// trie vs a binary search tree (std::map / sorted vector) vs a hash table.
// The paper argues O(m) trie lookups beat O(m log n) tree searches and are
// competitive with hashing for small static keyword sets. The trie measured
// is the paper's pointer trie (the reference KeywordTrie), built from the
// keywords of the cars lexicon.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/domain_lexicon.h"
#include "datagen/ads_generator.h"
#include "datagen/domain_spec.h"
#include "reference/keyword_trie.h"

namespace {

using namespace cqads;

struct LexiconFixture {
  std::vector<std::string> keywords;
  std::vector<std::string> probes;  // half hits, half misses
  reference::KeywordTrie trie;
  std::map<std::string, int> tree;
  std::unordered_set<std::string> hash;
  std::vector<std::string> sorted;

  LexiconFixture() {
    Rng rng(17);
    auto table =
        datagen::GenerateAds(*datagen::FindDomainSpec("cars"), 500, &rng);
    auto lexicon = core::DomainLexicon::Build(&table.value());
    const trie::FlatTrie& flat = lexicon.value().flat_trie();
    auto completions = flat.Completions(flat.Root(), "", 100000);
    for (auto& [kw, handle] : completions) keywords.push_back(kw);
    std::sort(keywords.begin(), keywords.end());
    keywords.erase(std::unique(keywords.begin(), keywords.end()),
                   keywords.end());
    int i = 0;
    for (const auto& kw : keywords) {
      trie.Insert(kw, i);
      tree.emplace(kw, i);
      hash.insert(kw);
      ++i;
    }
    sorted = keywords;
    for (std::size_t p = 0; p < keywords.size(); ++p) {
      probes.push_back(p % 2 == 0 ? keywords[p]
                                  : keywords[p] + "zz");  // miss
    }
  }
};

LexiconFixture& Fixture() {
  static auto* f = new LexiconFixture();
  return *f;
}

void BM_TrieLookup(benchmark::State& state) {
  auto& f = Fixture();
  std::size_t i = 0, hits = 0;
  for (auto _ : state) {
    hits += f.trie.Contains(f.probes[i++ % f.probes.size()]) ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
  state.SetLabel(std::to_string(f.keywords.size()) + " keywords");
}
BENCHMARK(BM_TrieLookup);

void BM_TreeLookup(benchmark::State& state) {
  auto& f = Fixture();
  std::size_t i = 0, hits = 0;
  for (auto _ : state) {
    hits += f.tree.count(f.probes[i++ % f.probes.size()]);
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_TreeLookup);

void BM_SortedVectorBinarySearch(benchmark::State& state) {
  auto& f = Fixture();
  std::size_t i = 0, hits = 0;
  for (auto _ : state) {
    hits += std::binary_search(f.sorted.begin(), f.sorted.end(),
                               f.probes[i++ % f.probes.size()])
                ? 1
                : 0;
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_SortedVectorBinarySearch);

void BM_HashLookup(benchmark::State& state) {
  auto& f = Fixture();
  std::size_t i = 0, hits = 0;
  for (auto _ : state) {
    hits += f.hash.count(f.probes[i++ % f.probes.size()]);
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_HashLookup);

// Longest-prefix scanning (the tagger's workload): only the trie supports
// it natively; the tree alternative must probe every prefix length.
void BM_TrieLongestMatch(benchmark::State& state) {
  auto& f = Fixture();
  const std::string haystack = "hondaaccord less than 20000";
  std::size_t total = 0;
  for (auto _ : state) {
    total += f.trie.LongestMatchLength(haystack, 0);
  }
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_TrieLongestMatch);

void BM_TreeLongestMatchByPrefixProbes(benchmark::State& state) {
  auto& f = Fixture();
  const std::string haystack = "hondaaccord less than 20000";
  std::size_t total = 0;
  for (auto _ : state) {
    std::size_t best = 0;
    for (std::size_t len = 1; len <= haystack.size(); ++len) {
      if (f.tree.count(haystack.substr(0, len)) > 0) best = len;
    }
    total += best;
  }
  benchmark::DoNotOptimize(total);
}
BENCHMARK(BM_TreeLongestMatchByPrefixProbes);

}  // namespace

BENCHMARK_MAIN();
