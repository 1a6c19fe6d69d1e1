// Unit tests for the robustness substrate: Deadline semantics and the
// delta scan's deadline check, the failpoint registry (arming,
// skip/every/limit schedules, the env spec parser, disarmed-cost
// invariants), and the WorkerPool shutdown contract the async serving path
// relies on (destruction DRAINS: queued unstarted tasks run).
#include "common/deadline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/failpoint.h"
#include "db/exec/delta_exec.h"
#include "db/exec/planner.h"
#include "serve/worker_pool.h"
#include "test_fixtures.h"

namespace cqads {
namespace {

using std::chrono::hours;
using std::chrono::microseconds;
using std::chrono::milliseconds;

// --------------------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultConstructedIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), Deadline::Clock::duration::max());
  EXPECT_EQ(d.time_point(), Deadline::Clock::time_point::max());
  EXPECT_TRUE(Deadline::Infinite().is_infinite());
}

TEST(DeadlineTest, ZeroOrNegativeBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::After(microseconds(0)).expired());
  EXPECT_TRUE(Deadline::After(milliseconds(-5)).expired());
  EXPECT_EQ(Deadline::After(milliseconds(-5)).remaining(),
            Deadline::Clock::duration::zero());
}

TEST(DeadlineTest, GenerousBudgetIsNotExpired) {
  Deadline d = Deadline::After(hours(1));
  EXPECT_FALSE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), milliseconds(0));
}

TEST(DeadlineTest, AtExpiresOncePassed) {
  const auto now = Deadline::Clock::now();
  EXPECT_TRUE(Deadline::At(now - milliseconds(1)).expired());
  EXPECT_FALSE(Deadline::At(now + hours(1)).expired());
}

TEST(DeadlineTest, EarlierPicksTheSoonerAndHandlesInfinite) {
  Deadline inf = Deadline::Infinite();
  Deadline soon = Deadline::After(milliseconds(1));
  Deadline late = Deadline::After(hours(1));
  EXPECT_EQ(Deadline::Earlier(soon, late).time_point(), soon.time_point());
  EXPECT_EQ(Deadline::Earlier(late, soon).time_point(), soon.time_point());
  EXPECT_EQ(Deadline::Earlier(inf, soon).time_point(), soon.time_point());
  EXPECT_EQ(Deadline::Earlier(soon, inf).time_point(), soon.time_point());
  EXPECT_TRUE(Deadline::Earlier(inf, inf).is_infinite());
}

// ----------------------------------------------- delta-scan deadline

/// ExecuteHybrid over MiniCar with one ingested row, through the query's
/// compiled plan, under `deadline`.
Result<db::QueryResult> RunDeltaUnion(const Deadline& deadline) {
  const db::Table table = testing::MiniCarTable();
  db::DeltaStore delta(table.schema(), table.num_rows());
  EXPECT_TRUE(delta.Insert(table.row(0)).ok());
  db::Query query;
  query.limit = table.num_rows() + 1;
  auto plan = db::exec::Planner(&table).Compile(query);
  if (!plan.ok()) return plan.status();
  return db::exec::ExecuteHybrid(table, delta, query, *plan.value(),
                                 deadline);
}

TEST(DeltaScanDeadlineTest, DefaultDeadlineRunsToCompletion) {
  auto r = RunDeltaUnion(Deadline());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().rows.size(), testing::MiniCarTable().num_rows() + 1);
}

TEST(DeltaScanDeadlineTest, ExpiredDeadlineStopsTheScan) {
  auto r = RunDeltaUnion(Deadline::After(microseconds(0)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

// -------------------------------------------------------------- FailPoints

class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::DisarmAll(); }
  void TearDown() override { FailPoints::DisarmAll(); }
};

TEST_F(FailPointTest, DisarmedSiteIsInvisible) {
  EXPECT_FALSE(FailPoints::AnyArmed());
  EXPECT_TRUE(CQADS_FAILPOINT("test.nowhere").ok());
  EXPECT_EQ(FailPoints::Hits("test.nowhere"), 0u);
}

TEST_F(FailPointTest, ErrorInjectionAndHitCounting) {
  FailPoints::Config config;
  config.error = StatusCode::kInternal;
  FailPoints::Arm("test.err", config);
  EXPECT_TRUE(FailPoints::AnyArmed());

  Status st = CQADS_FAILPOINT("test.err");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  // Other sites stay clean while this one is armed.
  EXPECT_TRUE(CQADS_FAILPOINT("test.other").ok());
  EXPECT_EQ(FailPoints::Hits("test.err"), 1u);

  FailPoints::Disarm("test.err");
  EXPECT_FALSE(FailPoints::AnyArmed());
  EXPECT_TRUE(CQADS_FAILPOINT("test.err").ok());
}

TEST_F(FailPointTest, SkipEveryNAndLimitSchedule) {
  FailPoints::Config config;
  config.error = StatusCode::kInternal;
  config.skip = 2;     // hits 1-2 pass
  config.every_n = 2;  // then the 1st eligible hit and every 2nd after
  config.limit = 2;    // and after 2 triggers the site goes quiet
  FailPoints::Arm("test.sched", config);

  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) {
    fired.push_back(!CQADS_FAILPOINT("test.sched").ok());
  }
  // skip eats hits 1-2; hits 3 and 5 trigger (every 2nd eligible, starting
  // with the first); the limit keeps hit 7 onward quiet.
  const std::vector<bool> expected = {false, false, true,  false, true,
                                      false, false, false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(FailPoints::Hits("test.sched"), 10u);  // counted even when quiet
}

TEST_F(FailPointTest, OneShot) {
  FailPoints::Config config;
  config.error = StatusCode::kInternal;
  config.limit = 1;
  FailPoints::Arm("test.oneshot", config);
  EXPECT_FALSE(CQADS_FAILPOINT("test.oneshot").ok());
  EXPECT_TRUE(CQADS_FAILPOINT("test.oneshot").ok());
  EXPECT_TRUE(CQADS_FAILPOINT("test.oneshot").ok());
}

TEST_F(FailPointTest, DelayInjection) {
  FailPoints::Config config;
  config.delay = milliseconds(20);
  FailPoints::Arm("test.slow", config);
  const auto start = std::chrono::steady_clock::now();
  CQADS_FAILPOINT_HIT("test.slow");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, milliseconds(20));
  // The void-site macro swallows injected errors (delay-only semantics).
  FailPoints::Config err;
  err.error = StatusCode::kInternal;
  FailPoints::Arm("test.swallowed", err);
  CQADS_FAILPOINT_HIT("test.swallowed");  // must not blow up
  EXPECT_EQ(FailPoints::Hits("test.swallowed"), 1u);
}

TEST_F(FailPointTest, RearmResetsCounters) {
  FailPoints::Config config;
  config.error = StatusCode::kInternal;
  config.limit = 1;
  FailPoints::Arm("test.rearm", config);
  EXPECT_FALSE(CQADS_FAILPOINT("test.rearm").ok());
  EXPECT_TRUE(CQADS_FAILPOINT("test.rearm").ok());  // limit reached
  FailPoints::Arm("test.rearm", config);            // re-arm: fresh counters
  EXPECT_EQ(FailPoints::Hits("test.rearm"), 0u);
  EXPECT_FALSE(CQADS_FAILPOINT("test.rearm").ok());
}

TEST_F(FailPointTest, ArmFromSpecParsesSitesAndIgnoresGarbage) {
  FailPoints::ArmFromSpec(
      "test.a=error:INTERNAL,limit:1;"
      "test.b=delay_us:1,every:2;"
      "garbage;=;test.c=error:NO_SUCH_CODE,bogus_key:7");
  EXPECT_TRUE(FailPoints::AnyArmed());
  EXPECT_EQ(CQADS_FAILPOINT("test.a").code(), StatusCode::kInternal);
  EXPECT_TRUE(CQADS_FAILPOINT("test.a").ok());  // one-shot spent
  // test.b is delay-only, so its Status is OK whether or not it triggers.
  EXPECT_TRUE(CQADS_FAILPOINT("test.b").ok());
  EXPECT_TRUE(CQADS_FAILPOINT("test.b").ok());
  EXPECT_EQ(FailPoints::Hits("test.b"), 2u);
  // Unknown error name parses as kOk: the site arms but injects nothing —
  // chaos arming must never break the process under test.
  EXPECT_TRUE(CQADS_FAILPOINT("test.c").ok());
}

TEST_F(FailPointTest, ErrorNamesAreCaseInsensitive) {
  FailPoints::ArmFromSpec("test.lower=error:not_found");
  EXPECT_EQ(CQADS_FAILPOINT("test.lower").code(), StatusCode::kNotFound);
  FailPoints::ArmFromSpec("test.dl=error:deadline_exceeded");
  EXPECT_EQ(CQADS_FAILPOINT("test.dl").code(),
            StatusCode::kDeadlineExceeded);
}

// -------------------------------------------- WorkerPool shutdown contract

using serve::WorkerPool;

TEST(WorkerPoolShutdownTest, DestructorRunsQueuedTasks) {
  // The documented contract: destruction DRAINS. Tasks still sitting in the
  // queue when the destructor starts must run, not be dropped — async
  // serving relies on every accepted request's callback firing.
  std::atomic<int> ran{0};
  {
    WorkerPool pool(2);
    // A slow head-of-queue task piles the rest up behind it.
    pool.Submit([&] {
      std::this_thread::sleep_for(milliseconds(30));
      ran.fetch_add(1);
    });
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
    // Destructor fires here with most tasks still queued.
  }
  EXPECT_EQ(ran.load(), 51);
}

TEST(WorkerPoolShutdownTest, DrainWaitsForEverything) {
  WorkerPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      std::this_thread::sleep_for(milliseconds(1));
      ran.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace cqads
