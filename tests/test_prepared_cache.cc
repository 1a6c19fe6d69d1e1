// Prepared-query cache unit tests: normalization, hit/miss accounting,
// LRU eviction order, snapshot-version staleness, and concurrent access.
#include "serve/prepared_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

namespace cqads::serve {
namespace {

PreparedQueryCache::ParsedPtr MakeParsed(const std::string& sql) {
  auto parsed = std::make_shared<core::ParsedQuestion>();
  parsed->sql = sql;
  return parsed;
}

TEST(NormalizeQuestionTest, LowercasesAndCollapsesWhitespace) {
  EXPECT_EQ(PreparedQueryCache::NormalizeQuestion("  Red  HONDA \t Accord\n"),
            "red honda accord");
  EXPECT_EQ(PreparedQueryCache::NormalizeQuestion("red honda accord"),
            "red honda accord");
  EXPECT_EQ(PreparedQueryCache::NormalizeQuestion(""), "");
  EXPECT_EQ(PreparedQueryCache::NormalizeQuestion("   "), "");
}

TEST(PreparedQueryCacheTest, MissThenHit) {
  PreparedQueryCache cache;
  EXPECT_EQ(cache.Get("cars", "red honda", 1), nullptr);
  cache.Put("cars", "red honda", 1, MakeParsed("SELECT 1"));
  auto hit = cache.Get("cars", "red honda", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->sql, "SELECT 1");

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(PreparedQueryCacheTest, DomainsAreDistinctKeys) {
  PreparedQueryCache cache;
  cache.Put("cars", "red", 1, MakeParsed("cars-sql"));
  cache.Put("boats", "red", 1, MakeParsed("boats-sql"));
  EXPECT_EQ(cache.Get("cars", "red", 1)->sql, "cars-sql");
  EXPECT_EQ(cache.Get("boats", "red", 1)->sql, "boats-sql");
}

TEST(PreparedQueryCacheTest, StaleSnapshotVersionMisses) {
  PreparedQueryCache cache;
  cache.Put("cars", "red honda", 1, MakeParsed("v1"));
  EXPECT_EQ(cache.Get("cars", "red honda", 2), nullptr);
  // Refreshing with the new version replaces the stale entry in place.
  cache.Put("cars", "red honda", 2, MakeParsed("v2"));
  ASSERT_NE(cache.Get("cars", "red honda", 2), nullptr);
  EXPECT_EQ(cache.Get("cars", "red honda", 2)->sql, "v2");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(PreparedQueryCacheTest, StalePutDoesNotDowngradeFresherEntry) {
  PreparedQueryCache cache;
  cache.Put("cars", "q", 2, MakeParsed("v2"));
  // A straggler request pinned on the old snapshot finishes late; its Put
  // must not stamp the entry back to v1 and cause v2 miss churn.
  cache.Put("cars", "q", 1, MakeParsed("v1-straggler"));
  auto hit = cache.Get("cars", "q", 2);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->sql, "v2");
  EXPECT_EQ(cache.Get("cars", "q", 1), nullptr);
}

TEST(PreparedQueryCacheTest, EvictsLeastRecentlyUsed) {
  PreparedQueryCache::Options options;
  options.capacity = 2;
  options.num_shards = 1;  // single shard: deterministic LRU order
  PreparedQueryCache cache(options);

  cache.Put("cars", "a", 1, MakeParsed("a"));
  cache.Put("cars", "b", 1, MakeParsed("b"));
  ASSERT_NE(cache.Get("cars", "a", 1), nullptr);  // a is now MRU
  cache.Put("cars", "c", 1, MakeParsed("c"));     // evicts b

  EXPECT_NE(cache.Get("cars", "a", 1), nullptr);
  EXPECT_EQ(cache.Get("cars", "b", 1), nullptr);
  EXPECT_NE(cache.Get("cars", "c", 1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(PreparedQueryCacheTest, CapacitySplitsAcrossShards) {
  PreparedQueryCache::Options options;
  options.capacity = 8;
  options.num_shards = 4;
  PreparedQueryCache cache(options);
  for (int i = 0; i < 1000; ++i) {
    cache.Put("cars", "q" + std::to_string(i), 1, MakeParsed("x"));
  }
  // Each shard holds at most capacity/num_shards entries.
  EXPECT_LE(cache.stats().entries, 8u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(PreparedQueryCacheTest, ConcurrentMixedTrafficIsSafe) {
  PreparedQueryCache::Options options;
  options.capacity = 128;
  options.num_shards = 8;
  PreparedQueryCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string q = "q" + std::to_string((t * 31 + i) % 200);
        if (auto hit = cache.Get("cars", q, 1)) {
          EXPECT_EQ(hit->sql, q);
        } else {
          cache.Put("cars", q, 1, MakeParsed(q));
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(stats.entries, 128u);
}

}  // namespace
}  // namespace cqads::serve
