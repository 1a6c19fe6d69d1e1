// Incremental ingestion: DeltaStore semantics (insert, tombstones, global
// id stability), hybrid base∪delta execution parity, retire-then-reinsert,
// single-row deltas, and the compaction invariant — after CompactDomain the
// engine answers byte-identically to an engine rebuilt from scratch on the
// merged rows. Also the compaction-racing-a-snapshot-swap test the TSan CI
// job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/answer_table.h"
#include "core/cqads_engine.h"
#include "db/exec/delta_exec.h"
#include "db/exec/planner.h"
#include "db/executor.h"
#include "db/storage/delta_store.h"
#include "test_fixtures.h"

namespace cqads {
namespace {

db::Record CarRecord(const char* make, const char* model, double year,
                     double price, double mileage, const char* color,
                     const char* transmission, const char* doors,
                     const char* drivetrain, const char* features) {
  db::Record r;
  r.push_back(db::Value::Text(make));
  r.push_back(db::Value::Text(model));
  r.push_back(db::Value::Real(year));
  r.push_back(db::Value::Real(price));
  r.push_back(db::Value::Real(mileage));
  r.push_back(db::Value::Text(color));
  r.push_back(db::Value::Text(transmission));
  r.push_back(db::Value::Text(doors));
  r.push_back(db::Value::Text(drivetrain));
  r.push_back(db::Value::Text(features));
  return r;
}

db::Predicate TextPred(std::size_t attr, const char* v,
                       db::CompareOp op = db::CompareOp::kEq) {
  db::Predicate p;
  p.attr = attr;
  p.op = op;
  p.value = db::Value::Text(v);
  return p;
}

// --------------------------------------------------------- DeltaStore

TEST(DeltaStoreTest, GlobalIdsAndTombstones) {
  db::Table base = testing::MiniCarTable();  // 13 rows
  db::DeltaStore delta(base.schema(), base.num_rows());
  EXPECT_TRUE(delta.empty());

  auto id = delta.Insert(CarRecord("honda", "fit", 2011, 9500, 40000, "blue",
                                   "automatic", "4 door", "2 wheel drive",
                                   "cd player"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 13u);  // base_rows + 0
  EXPECT_EQ(delta.total_rows(), 14u);
  EXPECT_FALSE(delta.empty());

  // Tombstone a base row, then a delta row.
  EXPECT_TRUE(delta.Retire(2).ok());
  EXPECT_EQ(delta.Retire(2).code(), StatusCode::kNotFound);  // double retire
  EXPECT_TRUE(delta.Retire(13).ok());
  EXPECT_EQ(delta.live_delta_rows(), 0u);
  EXPECT_FALSE(delta.empty());  // tombstones still mask the base

  EXPECT_EQ(delta.Retire(99).code(), StatusCode::kOutOfRange);

  // Arity/kind validation mirrors Table::Insert.
  EXPECT_FALSE(delta.Insert(db::Record{}).ok());
}

TEST(DeltaStoreTest, MergedRecordsOrder) {
  db::Table base = testing::MiniCarTable();
  db::DeltaStore delta(base.schema(), base.num_rows());
  auto a = delta.Insert(CarRecord("kia", "soul", 2012, 11000, 25000, "green",
                                  "manual", "4 door", "2 wheel drive", "usb"));
  auto b = delta.Insert(CarRecord("fiat", "500", 2013, 12000, 20000, "white",
                                  "manual", "2 door", "2 wheel drive",
                                  "bluetooth"));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(delta.Retire(0).ok());          // drop base row 0
  ASSERT_TRUE(delta.Retire(a.value()).ok());  // drop the kia again

  auto merged = delta.MergedRecords(base);
  // 13 - 1 base survivors + 1 delta survivor.
  ASSERT_EQ(merged.size(), 13u);
  EXPECT_EQ(merged.front(), base.row(1));           // base row 0 gone
  EXPECT_EQ(merged.back()[0], db::Value::Text("fiat"));
}

// ------------------------------------------------- hybrid execution

/// ExecuteHybrid over base∪delta, through each query's compiled plan, must
/// return, record-for-record, what the same query returns against a single
/// table built from the merged rows.
TEST(HybridExecTest, MatchesMergedTableRecordForRecord) {
  db::Table base = testing::MiniCarTable();
  db::DeltaStore delta(base.schema(), base.num_rows());
  ASSERT_TRUE(delta
                  .Insert(CarRecord("honda", "fit", 2011, 9500, 40000, "blue",
                                    "automatic", "4 door", "2 wheel drive",
                                    "cd player;bluetooth"))
                  .ok());
  ASSERT_TRUE(delta
                  .Insert(CarRecord("toyota", "prius", 2012, 13500, 35000,
                                    "silver", "automatic", "4 door",
                                    "2 wheel drive", "gps"))
                  .ok());
  ASSERT_TRUE(delta.Retire(0).ok());  // a blue honda accord leaves the pool
  ASSERT_TRUE(delta.Retire(5).ok());  // and the blue toyota camry

  db::Table merged(base.schema());
  for (auto& rec : delta.MergedRecords(base)) {
    ASSERT_TRUE(merged.Insert(std::move(rec)).ok());
  }
  merged.BuildIndexes();

  std::vector<db::Query> queries;
  {
    db::Query q;
    q.where = db::Expr::MakePredicate(TextPred(0, "honda"));
    q.limit = 30;
    queries.push_back(q);
  }
  {
    db::Query q;  // superlative across base and delta rows
    q.where = db::Expr::MakePredicate(TextPred(5, "blue"));
    q.superlative = db::Superlative{3, true};
    q.limit = 3;
    queries.push_back(q);
  }
  {
    db::Query q;  // negation must see tombstones and delta rows
    q.where = db::Expr::MakeNot(db::Expr::MakePredicate(TextPred(0, "honda")));
    q.limit = 30;
    queries.push_back(q);
  }
  {
    db::Query q;  // match-all
    q.limit = 100;
    queries.push_back(q);
  }

  const db::exec::Planner planner(&base);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    auto plan = planner.Compile(queries[qi]);
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto hybrid =
        db::exec::ExecuteHybrid(base, delta, queries[qi], *plan.value());
    auto expected = db::ExecuteQuery(merged, queries[qi]);
    ASSERT_TRUE(hybrid.ok() && expected.ok()) << "query " << qi;
    // Global hybrid ids and merged ids differ; compare materialized
    // records pairwise (both orders are deterministic).
    ASSERT_EQ(hybrid.value().rows.size(), expected.value().rows.size())
        << "query " << qi;
    for (std::size_t i = 0; i < hybrid.value().rows.size(); ++i) {
      const db::RowId h = hybrid.value().rows[i];
      db::Record got = h < base.num_rows()
                           ? base.row(h)
                           : delta.record(h - base.num_rows());
      EXPECT_EQ(got, merged.row(expected.value().rows[i]))
          << "query " << qi << " answer " << i;
    }
  }
}

// ------------------------------------------------- engine integration

class IngestEngineTest : public ::testing::Test {
 protected:
  IngestEngineTest() : table_(testing::MiniCarTable()) {
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
    EXPECT_TRUE(engine_.TrainClassifier().ok());
  }

  std::string CanonicalAsk(core::CqadsEngine& e, const std::string& q) {
    auto r = e.AskInDomain("cars", q);
    return r.ok() ? core::CanonicalAskResultString(r.value()) : "ERROR";
  }

  db::Table table_;
  core::CqadsEngine engine_;
};

TEST_F(IngestEngineTest, SingleRowDeltaIsVisibleImmediately) {
  auto before = engine_.AskInDomain("cars", "gold honda");
  ASSERT_TRUE(before.ok());
  const std::size_t before_exact = before.value().exact_count;

  auto id = engine_.IngestAd(
      "cars", CarRecord("honda", "accord", 2009, 12000, 50000, "gold",
                        "automatic", "4 door", "2 wheel drive", "cd player"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), 13u);

  auto after = engine_.AskInDomain("cars", "gold honda");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().exact_count, before_exact + 1);
  bool found = false;
  for (const auto& a : after.value().answers) {
    if (a.row == id.value()) found = a.exact;
  }
  EXPECT_TRUE(found) << "delta row missing from exact answers";

  // Retire it again: the answer set returns to the pre-ingest state.
  ASSERT_TRUE(engine_.RetireAd("cars", id.value()).ok());
  auto retired = engine_.AskInDomain("cars", "gold honda");
  ASSERT_TRUE(retired.ok());
  EXPECT_EQ(core::CanonicalAskResultString(retired.value()),
            core::CanonicalAskResultString(before.value()));
}

TEST_F(IngestEngineTest, AnswerTableRendersDeltaRowValues) {
  ASSERT_TRUE(engine_
                  .IngestAd("cars", CarRecord("honda", "fit", 2011, 9500,
                                              40000, "gold", "automatic",
                                              "4 door", "2 wheel drive",
                                              "cd player"))
                  .ok());
  auto r = engine_.AskInDomain("cars", "gold honda");
  ASSERT_TRUE(r.ok());
  const core::DomainRuntime* rt = engine_.runtime("cars");
  ASSERT_NE(rt, nullptr);
  std::string with_delta = core::FormatAnswersText(
      *rt->table, r.value(), core::AnswerTableOptions(), rt->delta.get());
  EXPECT_NE(with_delta.find("fit"), std::string::npos) << with_delta;
  EXPECT_EQ(with_delta.find("(delta row)"), std::string::npos) << with_delta;
  // Without the delta the renderer falls back to the placeholder rather
  // than reading past the base table.
  std::string without =
      core::FormatAnswersText(*rt->table, r.value());
  EXPECT_NE(without.find("(delta row)"), std::string::npos) << without;
}

TEST_F(IngestEngineTest, RetireBaseRowMasksItEverywhere) {
  // Row 2 is the 2002 gold accord.
  ASSERT_TRUE(engine_.RetireAd("cars", 2).ok());
  auto r = engine_.AskInDomain("cars", "gold honda");
  ASSERT_TRUE(r.ok());
  for (const auto& a : r.value().answers) EXPECT_NE(a.row, 2u);
}

TEST_F(IngestEngineTest, RetireThenReinsertSameAd) {
  // Retire base row 0 (2007 blue accord), then reinsert the identical
  // record through the delta: queries must see exactly one copy, under the
  // new global id.
  const db::Record original = table_.row(0);
  ASSERT_TRUE(engine_.RetireAd("cars", 0).ok());
  auto re = engine_.IngestAd("cars", original);
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re.value(), 13u);

  auto r = engine_.AskInDomain("cars", "blue honda accord");
  ASSERT_TRUE(r.ok());
  std::size_t copies = 0;
  for (const auto& a : r.value().answers) {
    if (a.row == 0u) ADD_FAILURE() << "retired row still answered";
    if (a.row == re.value()) ++copies;
  }
  EXPECT_EQ(copies, 1u);

  // Compact: the reinserted copy survives, the tombstoned original stays
  // gone, and the table shrinks back to 13 rows.
  ASSERT_TRUE(engine_.CompactDomain("cars").ok());
  const core::DomainRuntime* rt = engine_.runtime("cars");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->table->num_rows(), 13u);
  EXPECT_EQ(rt->delta, nullptr);
  auto post = engine_.AskInDomain("cars", "blue honda accord");
  ASSERT_TRUE(post.ok());
  std::size_t post_copies = 0;
  for (const auto& a : post.value().answers) {
    if (rt->table->row(a.row) == original) ++post_copies;
  }
  EXPECT_EQ(post_copies, 1u);
}

/// The PR's acceptance invariant: ingest + retire + compact ==
/// from-scratch rebuild on the merged rows, byte-identical answers.
TEST_F(IngestEngineTest, CompactionMatchesFromScratchRebuild) {
  ASSERT_TRUE(engine_
                  .IngestAd("cars", CarRecord("honda", "fit", 2011, 9500,
                                              40000, "blue", "automatic",
                                              "4 door", "2 wheel drive",
                                              "cd player;bluetooth"))
                  .ok());
  ASSERT_TRUE(engine_
                  .IngestAd("cars", CarRecord("toyota", "prius", 2012, 13500,
                                              35000, "silver", "automatic",
                                              "4 door", "2 wheel drive",
                                              "gps"))
                  .ok());
  ASSERT_TRUE(engine_.RetireAd("cars", 4).ok());   // chevy malibu
  ASSERT_TRUE(engine_.RetireAd("cars", 14).ok());  // the prius again
  ASSERT_TRUE(engine_.CompactDomain("cars").ok());
  // Compaction keeps the stale classifier; retrain so the full Ask path is
  // comparable too.
  ASSERT_TRUE(engine_.TrainClassifier().ok());

  // The from-scratch twin: a fresh table holding the same merged rows.
  const core::DomainRuntime* rt = engine_.runtime("cars");
  ASSERT_NE(rt, nullptr);
  db::Table rebuilt(table_.schema());
  for (db::RowId r = 0; r < rt->table->num_rows(); ++r) {
    ASSERT_TRUE(rebuilt.Insert(rt->table->row(r)).ok());
  }
  rebuilt.BuildIndexes();
  core::CqadsEngine twin;
  ASSERT_TRUE(twin.AddDomain(&rebuilt, qlog::TiMatrix()).ok());
  ASSERT_TRUE(twin.TrainClassifier().ok());

  const std::vector<std::string> questions = {
      "blue honda",
      "honda fit with bluetooth",
      "cheapest toyota",
      "silver car",
      "automatic under 10000 dollars",
      "manual red car with cd player",
      "chevy malibu",
  };
  for (const auto& q : questions) {
    EXPECT_EQ(CanonicalAsk(engine_, q), CanonicalAsk(twin, q)) << q;
  }
}

TEST_F(IngestEngineTest, IngestValidatesDomainAndRecord) {
  EXPECT_FALSE(engine_.IngestAd("boats", CarRecord("a", "b", 1, 1, 1, "c",
                                                   "d", "e", "f", "g"))
                   .ok());
  EXPECT_FALSE(engine_.IngestAd("cars", db::Record{}).ok());
  EXPECT_FALSE(engine_.RetireAd("cars", 9999).ok());
}

/// Compaction racing queries and option-driven snapshot swaps: the TSan CI
/// job runs this. Queries must never block, crash, or read torn state.
TEST_F(IngestEngineTest, CompactionRacesSnapshotSwap) {
  std::atomic<bool> stop{false};
  std::atomic<int> asked{0};

  std::thread asker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = engine_.AskInDomain("cars", "blue honda accord");
      ASSERT_TRUE(r.ok());
      asked.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread swapper([&] {
    for (int i = 0; i < 5; ++i) {
      core::EngineOptions o;
      o.explain_plans = i % 2 == 0;
      engine_.SetOptions(o);
    }
  });

  for (int round = 0; round < 4; ++round) {
    auto id = engine_.IngestAd(
        "cars", CarRecord("honda", "accord", 2010 + round, 9000 + round * 10,
                          45000, "blue", "automatic", "4 door",
                          "2 wheel drive", "cd player"));
    ASSERT_TRUE(id.ok());
    // Each round starts a fresh delta (the previous compaction cleared it),
    // so row 0 of the current base is always retirable.
    if (round % 2 == 1) {
      ASSERT_TRUE(engine_.RetireAd("cars", 0).ok());
    }
    ASSERT_TRUE(engine_.CompactDomain("cars").ok());
  }

  swapper.join();
  stop.store(true);
  asker.join();
  EXPECT_GT(asked.load(), 0);

  // Steady state after the storm: 13 base rows + 4 ingested - retires.
  const core::DomainRuntime* rt = engine_.runtime("cars");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->delta, nullptr);
  auto final_ask = engine_.AskInDomain("cars", "blue honda accord");
  EXPECT_TRUE(final_ask.ok());
}

}  // namespace
}  // namespace cqads
