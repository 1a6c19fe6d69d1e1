// Concurrent-serving smoke tests: AskBatch over a ≥4-thread worker pool
// must return byte-identical results to sequential CqadsEngine::Ask, the
// prepared-query cache must not change answers, and snapshot swaps
// (retrain / AddDomain) must be safe while queries are in flight.
#include "serve/concurrent_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/ask_types.h"
#include "eval/experiments.h"
#include "qlog/ti_matrix.h"
#include "serve/worker_pool.h"

namespace cqads::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 31337;
    options.ads_per_domain = 120;
    options.sessions_per_domain = 300;
    options.corpus_docs_per_domain = 40;
    options.domains = {"cars", "jewellery"};
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();

    auto generated = eval::GenerateSurveyQuestions(*world_, 25, 25, 555);
    for (const auto& [domain, qs] : generated) {
      for (const auto& q : qs) questions_->push_back(q.text);
    }
    // Repeats exercise the prepared-query cache within a batch.
    const std::size_t unique_count = questions_->size();
    for (std::size_t i = 0; i < unique_count; i += 3) {
      questions_->push_back((*questions_)[i]);
    }
    ASSERT_GE(questions_->size(), 50u);
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
    questions_->clear();
  }

  static datagen::World* world_;
  static std::vector<std::string>* questions_;
};

datagen::World* ServeTest::world_ = nullptr;
std::vector<std::string>* ServeTest::questions_ = new std::vector<std::string>;

TEST_F(ServeTest, WorkerPoolRunsEverySubmittedTask) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST_F(ServeTest, AskBatchMatchesSequentialAskByteForByte) {
  const core::CqadsEngine& engine = world_->engine();

  // Sequential ground truth through the engine facade.
  std::vector<std::string> expected;
  std::size_t expected_failures = 0;
  for (const auto& q : *questions_) {
    auto r = engine.Ask(q);
    if (r.ok()) {
      expected.push_back(core::CanonicalAskResultString(r.value()));
    } else {
      expected.push_back("ERROR:" + r.status().ToString());
      ++expected_failures;
    }
  }

  ConcurrentServer::Options options;
  options.num_workers = 4;
  ConcurrentServer server(&engine, options);
  auto results = server.AskBatch(*questions_);
  ASSERT_EQ(results.size(), questions_->size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string got = results[i].ok()
        ? core::CanonicalAskResultString(results[i].value())
        : "ERROR:" + results[i].status().ToString();
    EXPECT_EQ(got, expected[i]) << "question: " << (*questions_)[i];
  }
  // The batch contained repeats, so the cache must have hits.
  auto stats = server.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST_F(ServeTest, CacheDoesNotChangeAnswers) {
  const core::CqadsEngine& engine = world_->engine();
  ConcurrentServer::Options cached_options;
  cached_options.num_workers = 2;
  ConcurrentServer cached(&engine, cached_options);
  ConcurrentServer::Options uncached_options;
  uncached_options.num_workers = 2;
  uncached_options.enable_cache = false;
  ConcurrentServer uncached(&engine, uncached_options);

  for (const auto& q : *questions_) {
    auto a = cached.Ask(q);
    auto b = uncached.Ask(q);
    ASSERT_EQ(a.ok(), b.ok()) << q;
    if (!a.ok()) continue;
    EXPECT_EQ(core::CanonicalAskResultString(a.value()),
              core::CanonicalAskResultString(b.value()))
        << q;
  }
  // Ask each question twice: second pass is all hits.
  auto before = cached.cache_stats();
  for (const auto& q : *questions_) cached.Ask(q);
  auto after = cached.cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(uncached.cache_stats().hits + uncached.cache_stats().misses, 0u);
}

TEST_F(ServeTest, ServerTimingsIncludeClassification) {
  // A miss classifies; the cost shows up in the "classify" timing entry.
  ConcurrentServer server(&world_->engine());
  auto r = server.Ask((*questions_)[0]);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.value().timings.empty());
  EXPECT_EQ(r.value().timings.front().stage, "classify");
  EXPECT_GT(r.value().timings.front().micros, 0.0);
}

// A miss runs every stage once; a hit takes the domain its entry memoized
// and runs only the execution stages over the memoized parse.
TEST_F(ServeTest, CacheHitRunsOnlyExecuteRank) {
  std::string question;
  for (const auto& q : *questions_) {
    auto r = world_->engine().Ask(q);
    if (r.ok() && !r.value().contradiction) {
      question = q;
      break;
    }
  }
  ASSERT_FALSE(question.empty());
  auto stages = [](const core::AskResult& r) {
    std::vector<std::string> names;
    for (const auto& t : r.timings) names.push_back(t.stage);
    return names;
  };

  ConcurrentServer server(&world_->engine());
  auto miss = server.Ask(question);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_EQ(stages(miss.value()),
            (std::vector<std::string>{"classify", "tag", "conditions",
                                      "assemble", "render_sql", "plan",
                                      "execute", "rank"}));
  auto hit = server.Ask(question);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_EQ(stages(hit.value()),
            (std::vector<std::string>{"execute", "rank"}));
  EXPECT_EQ(hit.value().domain, miss.value().domain);
  EXPECT_EQ(server.cache_stats().hits, 1u);
  EXPECT_EQ(server.cache_stats().misses, 1u);
  EXPECT_EQ(core::CanonicalAskResultString(hit.value()),
            core::CanonicalAskResultString(miss.value()));
}

// A cache entry lives as long as what its parse read: ingest and retire
// keep it, compacting its domain, retraining (for an ask entry) and new
// options retire it. Every answer, hit or miss, equals a fresh Ask.
TEST_F(ServeTest, CacheEntriesOutliveIngestAndRetire) {
  core::CqadsEngine engine;
  for (const auto& domain : world_->domains()) {
    qlog::TiMatrix ti = qlog::TiMatrix::Build(*world_->query_log(domain));
    ASSERT_TRUE(engine.AddDomain(world_->table(domain), std::move(ti)).ok());
  }
  engine.SetWordSimilarity(&world_->ws_matrix());
  ASSERT_TRUE(engine.TrainClassifier().ok());
  const std::size_t cap = engine.snapshot()->options().answer_cap;

  // A cars question with at least two exact answers and room under the
  // cap, so a copy of an exact row is answered and a retired one is gone.
  std::string question;
  core::AskResult original;
  for (const auto& q : *questions_) {
    auto r = engine.Ask(q);
    if (r.ok() && r.value().domain == "cars" && r.value().exact_count >= 2 &&
        r.value().answers.size() < cap) {
      question = q;
      original = r.value();
      break;
    }
  }
  ASSERT_FALSE(question.empty());

  ConcurrentServer server(&engine);
  // Asks through `server` and checks the answer against a fresh engine Ask
  // and the cache counters against `want_hit`.
  auto ask = [&](const std::string& domain, bool want_hit) {
    const auto before = server.cache_stats();
    auto got = domain.empty() ? server.Ask(question)
                              : server.AskInDomain(domain, question);
    EXPECT_TRUE(got.ok()) << got.status();
    auto fresh = domain.empty() ? engine.Ask(question)
                                : engine.AskInDomain(domain, question);
    EXPECT_TRUE(fresh.ok()) << fresh.status();
    if (!got.ok() || !fresh.ok()) return core::AskResult();
    const auto after = server.cache_stats();
    EXPECT_EQ(after.hits - before.hits, want_hit ? 1u : 0u)
        << "domain '" << domain << "'";
    EXPECT_EQ(after.misses - before.misses, want_hit ? 0u : 1u)
        << "domain '" << domain << "'";
    EXPECT_EQ(core::CanonicalAskResultString(got.value()),
              core::CanonicalAskResultString(fresh.value()));
    EXPECT_EQ(got.value().domain, "cars");
    return got.value();
  };
  auto has_row = [](const core::AskResult& r, db::RowId row) {
    for (const auto& a : r.answers) {
      if (a.row == row) return true;
    }
    return false;
  };

  ask("", /*want_hit=*/false);
  ask("cars", /*want_hit=*/false);

  const db::RowId copied = original.answers[0].row;
  const db::RowId retired = original.answers[1].row;
  auto added = engine.IngestAd("cars", world_->table("cars")->row(copied));
  ASSERT_TRUE(added.ok()) << added.status();
  ASSERT_TRUE(engine.RetireAd("cars", retired).ok());
  core::AskResult after_writes = ask("", /*want_hit=*/true);
  EXPECT_TRUE(has_row(after_writes, added.value()));
  EXPECT_FALSE(has_row(after_writes, retired));
  ask("cars", /*want_hit=*/true);

  // Compacting another domain leaves the entries alone; compacting cars
  // retires them.
  ASSERT_TRUE(
      engine.IngestAd("jewellery", world_->table("jewellery")->row(0)).ok());
  ASSERT_TRUE(engine.CompactDomain("jewellery").ok());
  ask("", /*want_hit=*/true);
  ask("cars", /*want_hit=*/true);
  ASSERT_TRUE(engine.CompactDomain("cars").ok());
  ask("", /*want_hit=*/false);
  ask("cars", /*want_hit=*/false);

  // A retrain retires the ask entry, whose domain the classifier chose,
  // but not the ask_in_domain one.
  ASSERT_TRUE(engine.TrainClassifier().ok());
  ask("", /*want_hit=*/false);
  ask("cars", /*want_hit=*/true);

  // The answer cap is part of every parse.
  core::EngineOptions options = engine.snapshot()->options();
  options.answer_cap = cap - 1;
  engine.SetOptions(options);
  ask("", /*want_hit=*/false);
  ask("cars", /*want_hit=*/false);
  ask("", /*want_hit=*/true);
  ask("cars", /*want_hit=*/true);
}

TEST_F(ServeTest, AskInDomainSkipsClassification) {
  const core::CqadsEngine& engine = world_->engine();
  ConcurrentServer server(&engine);
  auto direct = server.AskInDomain("cars", "red car");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.value().domain, "cars");
  EXPECT_EQ(server.AskInDomain("boats", "red").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServeTest, SnapshotSwapDuringInFlightQueries) {
  // A private engine (the world's is shared with other tests) that a
  // writer thread keeps retraining — swapping snapshots — while reader
  // threads hammer the server. In-flight queries pin their snapshot, so
  // every result must stay valid and non-racy (this test is the TSan
  // target in CI).
  core::CqadsEngine engine;
  for (const auto& domain : world_->domains()) {
    qlog::TiMatrix ti = qlog::TiMatrix::Build(*world_->query_log(domain));
    ASSERT_TRUE(engine.AddDomain(world_->table(domain), std::move(ti)).ok());
  }
  engine.SetWordSimilarity(&world_->ws_matrix());
  ASSERT_TRUE(engine.TrainClassifier().ok());

  ConcurrentServer::Options options;
  options.num_workers = 4;
  ConcurrentServer server(&engine, options);

  const std::uint64_t version_before = engine.snapshot()->version();
  std::atomic<bool> stop{false};
  std::atomic<int> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::size_t i = 0;
      while (!stop.load()) {
        const std::string& q = (*questions_)[i++ % questions_->size()];
        auto r = server.Ask(q);
        if (r.ok()) {
          EXPECT_FALSE(r.value().domain.empty());
          answered.fetch_add(1);
        }
      }
    });
  }

  for (int swap = 0; swap < 5; ++swap) {
    ASSERT_TRUE(engine.TrainClassifier().ok());
  }
  // Let the readers serve across the swapped snapshots a little longer —
  // bounded by a deadline so an Ask regression fails loudly instead of
  // hanging CI.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (answered.load() < 200 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GE(answered.load(), 200)
      << "readers failed to answer while snapshots were swapping";

  EXPECT_GE(engine.snapshot()->version(), version_before + 5);
  EXPECT_GT(answered.load(), 0);
}

TEST_F(ServeTest, AddDomainDuringServingBecomesVisible) {
  core::CqadsEngine engine;
  qlog::TiMatrix cars_ti = qlog::TiMatrix::Build(*world_->query_log("cars"));
  ASSERT_TRUE(
      engine.AddDomain(world_->table("cars"), std::move(cars_ti)).ok());
  engine.SetWordSimilarity(&world_->ws_matrix());
  ASSERT_TRUE(engine.TrainClassifier().ok());

  ConcurrentServer server(&engine);
  ASSERT_TRUE(server.AskInDomain("cars", "red car").ok());
  EXPECT_EQ(server.AskInDomain("jewellery", "gold ring").status().code(),
            StatusCode::kNotFound);

  qlog::TiMatrix jewel_ti =
      qlog::TiMatrix::Build(*world_->query_log("jewellery"));
  ASSERT_TRUE(
      engine.AddDomain(world_->table("jewellery"), std::move(jewel_ti)).ok());
  ASSERT_TRUE(engine.TrainClassifier().ok());

  auto r = server.AskInDomain("jewellery", "gold ring");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().domain, "jewellery");
}

}  // namespace
}  // namespace cqads::serve
