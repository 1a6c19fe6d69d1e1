// Prepared-query cache unit tests: normalization, hit/miss accounting,
// LRU eviction order, parse- and classifier-generation staleness over
// snapshots of a small EngineBuilder, and concurrent access.
#include "serve/prepared_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/engine_snapshot.h"
#include "qlog/ti_matrix.h"
#include "test_fixtures.h"

namespace cqads::serve {
namespace {

PreparedQueryCache::ParsedPtr MakeParsed(const std::string& sql) {
  auto parsed = std::make_shared<core::ParsedQuestion>();
  parsed->sql = sql;
  return parsed;
}

/// The MiniCar rows under a second domain name.
db::Table TrucksTable(const db::Table& cars) {
  db::Table trucks(db::Schema("trucks", cars.schema().attributes()));
  for (db::RowId r = 0; r < cars.num_rows(); ++r) {
    EXPECT_TRUE(trucks.Insert(cars.row(r)).ok());
  }
  trucks.BuildIndexes();
  return trucks;
}

/// Two domains and a trained classifier; each test takes snapshots of the
/// builder before and after the mutation it is about.
class PreparedQueryCacheTest : public ::testing::Test {
 protected:
  PreparedQueryCacheTest()
      : cars_(cqads::testing::MiniCarTable()), trucks_(TrucksTable(cars_)) {
    EXPECT_TRUE(builder_.AddDomain(&cars_, qlog::TiMatrix()).ok());
    EXPECT_TRUE(builder_.AddDomain(&trucks_, qlog::TiMatrix()).ok());
    EXPECT_TRUE(builder_.TrainClassifier().ok());
  }

  db::Table cars_;
  db::Table trucks_;
  core::EngineBuilder builder_;
};

TEST(NormalizeQuestionTest, LowercasesAndCollapsesWhitespace) {
  EXPECT_EQ(PreparedQueryCache::NormalizeQuestion("  Red  HONDA \t Accord\n"),
            "red honda accord");
  EXPECT_EQ(PreparedQueryCache::NormalizeQuestion("red honda accord"),
            "red honda accord");
  EXPECT_EQ(PreparedQueryCache::NormalizeQuestion(""), "");
  EXPECT_EQ(PreparedQueryCache::NormalizeQuestion("   "), "");
}

TEST_F(PreparedQueryCacheTest, MissThenHit) {
  PreparedQueryCache cache;
  auto snap = builder_.Build();
  EXPECT_EQ(cache.Get(*snap, "", "red honda").parsed, nullptr);
  cache.Put(*snap, "", "red honda", "cars", MakeParsed("SELECT 1"));
  // A later snapshot with the same generations hits too.
  auto hit = cache.Get(*builder_.Build(), "", "red honda");
  ASSERT_NE(hit.parsed, nullptr);
  EXPECT_EQ(hit.parsed->sql, "SELECT 1");
  EXPECT_EQ(hit.domain, "cars");

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(PreparedQueryCacheTest, ScopesAreDistinctKeys) {
  PreparedQueryCache cache;
  auto snap = builder_.Build();
  cache.Put(*snap, "cars", "red", "cars", MakeParsed("cars-sql"));
  cache.Put(*snap, "trucks", "red", "trucks", MakeParsed("trucks-sql"));
  cache.Put(*snap, "", "red", "trucks", MakeParsed("ask-sql"));
  EXPECT_EQ(cache.Get(*snap, "cars", "red").parsed->sql, "cars-sql");
  EXPECT_EQ(cache.Get(*snap, "trucks", "red").parsed->sql, "trucks-sql");
  EXPECT_EQ(cache.Get(*snap, "", "red").parsed->sql, "ask-sql");
  EXPECT_EQ(cache.Get(*snap, "", "red").domain, "trucks");
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST_F(PreparedQueryCacheTest, StaleParseGenerationMisses) {
  PreparedQueryCache cache;
  auto v1 = builder_.Build();
  cache.Put(*v1, "cars", "red honda", "cars", MakeParsed("g1"));
  cache.Put(*v1, "trucks", "red honda", "trucks", MakeParsed("trucks"));

  // Ingest and retire keep the parse generation: still a hit.
  auto row = builder_.IngestAd("cars", cars_.row(0));
  ASSERT_TRUE(row.ok()) << row.status();
  ASSERT_TRUE(builder_.RetireAd("cars", 1).ok());
  auto v2 = builder_.Build();
  ASSERT_NE(v2->version(), v1->version());
  EXPECT_NE(cache.Get(*v2, "cars", "red honda").parsed, nullptr);

  // Compaction rebuilds what a parse reads: a miss in that domain only.
  ASSERT_TRUE(builder_.CompactDomain("cars").ok());
  auto v3 = builder_.Build();
  EXPECT_EQ(cache.Get(*v3, "cars", "red honda").parsed, nullptr);
  EXPECT_NE(cache.Get(*v3, "trucks", "red honda").parsed, nullptr);
  // Refreshing under the new generation replaces the stale entry in place.
  cache.Put(*v3, "cars", "red honda", "cars", MakeParsed("g2"));
  ASSERT_NE(cache.Get(*v3, "cars", "red honda").parsed, nullptr);
  EXPECT_EQ(cache.Get(*v3, "cars", "red honda").parsed->sql, "g2");
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST_F(PreparedQueryCacheTest, StalePutDoesNotDowngradeFresherEntry) {
  PreparedQueryCache cache;
  auto old_snap = builder_.Build();
  ASSERT_TRUE(builder_.IngestAd("cars", cars_.row(0)).ok());
  ASSERT_TRUE(builder_.CompactDomain("cars").ok());
  auto new_snap = builder_.Build();
  cache.Put(*new_snap, "cars", "q", "cars", MakeParsed("fresh"));
  // A straggler request pinned on the old snapshot finishes late; its Put
  // must not stamp the entry back to the old generation and cause miss
  // churn on the new one.
  cache.Put(*old_snap, "cars", "q", "cars", MakeParsed("straggler"));
  auto hit = cache.Get(*new_snap, "cars", "q");
  ASSERT_NE(hit.parsed, nullptr);
  EXPECT_EQ(hit.parsed->sql, "fresh");
  EXPECT_EQ(cache.Get(*old_snap, "cars", "q").parsed, nullptr);
}

TEST_F(PreparedQueryCacheTest, RetrainMissesOnlyAskEntries) {
  PreparedQueryCache cache;
  auto before = builder_.Build();
  cache.Put(*before, "", "red honda", "cars", MakeParsed("ask"));
  cache.Put(*before, "cars", "red honda", "cars", MakeParsed("in-domain"));
  ASSERT_TRUE(builder_.TrainClassifier().ok());
  auto after = builder_.Build();
  EXPECT_NE(after->classifier_generation(), before->classifier_generation());
  EXPECT_EQ(cache.Get(*after, "", "red honda").parsed, nullptr);
  EXPECT_NE(cache.Get(*after, "cars", "red honda").parsed, nullptr);
}

TEST_F(PreparedQueryCacheTest, NewOptionsMissEveryEntry) {
  PreparedQueryCache cache;
  auto before = builder_.Build();
  cache.Put(*before, "", "red honda", "cars", MakeParsed("ask"));
  cache.Put(*before, "trucks", "red honda", "trucks", MakeParsed("trucks"));
  core::EngineOptions options = builder_.options();
  options.answer_cap = 5;
  builder_.set_options(options);
  auto after = builder_.Build();
  EXPECT_EQ(cache.Get(*after, "", "red honda").parsed, nullptr);
  EXPECT_EQ(cache.Get(*after, "trucks", "red honda").parsed, nullptr);
}

TEST_F(PreparedQueryCacheTest, EvictsLeastRecentlyUsed) {
  PreparedQueryCache::Options options;
  options.capacity = 2;
  options.num_shards = 1;  // single shard: deterministic LRU order
  PreparedQueryCache cache(options);
  auto snap = builder_.Build();

  cache.Put(*snap, "cars", "a", "cars", MakeParsed("a"));
  cache.Put(*snap, "cars", "b", "cars", MakeParsed("b"));
  ASSERT_NE(cache.Get(*snap, "cars", "a").parsed, nullptr);  // a is now MRU
  cache.Put(*snap, "cars", "c", "cars", MakeParsed("c"));    // evicts b

  EXPECT_NE(cache.Get(*snap, "cars", "a").parsed, nullptr);
  EXPECT_EQ(cache.Get(*snap, "cars", "b").parsed, nullptr);
  EXPECT_NE(cache.Get(*snap, "cars", "c").parsed, nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST_F(PreparedQueryCacheTest, CapacitySplitsAcrossShards) {
  PreparedQueryCache::Options options;
  options.capacity = 8;
  options.num_shards = 4;
  PreparedQueryCache cache(options);
  auto snap = builder_.Build();
  for (int i = 0; i < 1000; ++i) {
    cache.Put(*snap, "cars", "q" + std::to_string(i), "cars",
              MakeParsed("x"));
  }
  // Each shard holds at most capacity/num_shards entries.
  EXPECT_LE(cache.stats().entries, 8u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST_F(PreparedQueryCacheTest, ConcurrentMixedTrafficIsSafe) {
  PreparedQueryCache::Options options;
  options.capacity = 128;
  options.num_shards = 8;
  PreparedQueryCache cache(options);
  auto snap = builder_.Build();

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &snap, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string q = "q" + std::to_string((t * 31 + i) % 200);
        const std::string scope = i % 2 == 0 ? "" : "cars";
        if (auto hit = cache.Get(*snap, scope, q); hit.parsed != nullptr) {
          EXPECT_EQ(hit.parsed->sql, q);
          EXPECT_EQ(hit.domain, "cars");
        } else {
          cache.Put(*snap, scope, q, "cars", MakeParsed(q));
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
