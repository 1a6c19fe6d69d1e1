// The rank stage's fragment memo (db/exec/fragment_memo.h): exact
// structural keys, the byte bound and its eviction order, which tables
// get a memo, the memo's life across ingest, retire, SetOptions,
// compaction and a snapshot reload (answers byte-identical to the
// reference oracle, hit and eval counters as expected), and four threads
// filling one cold memo at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cqads_engine.h"
#include "db/exec/fragment_memo.h"
#include "db/exec/rank_bounds.h"
#include "db/sql_writer.h"
#include "reference/reference_ask.h"
#include "test_fixtures.h"

namespace cqads {
namespace {

using db::CompareOp;
using db::Expr;
using db::ExprPtr;
using db::Predicate;
using db::Value;
using db::exec::FragmentKey;
using db::exec::FragmentMemo;

// ------------------------------------------------------------------ keys

ExprPtr Pred(std::size_t attr, CompareOp op, Value value,
             Value value_hi = Value(), bool allow_shorthand = true) {
  Predicate p;
  p.attr = attr;
  p.op = op;
  p.value = std::move(value);
  p.value_hi = std::move(value_hi);
  p.allow_shorthand = allow_shorthand;
  return Expr::MakePredicate(std::move(p));
}

std::string Key(const ExprPtr& e) { return FragmentKey(e.get()); }

TEST(FragmentKeyTest, SameTreeBuiltTwiceSharesOneKey) {
  auto build = [] {
    return Expr::MakeAnd(
        {Pred(0, CompareOp::kEq, Value::Text("honda")),
         Expr::MakeOr({Pred(3, CompareOp::kBetween, Value::Real(1000.5),
                            Value::Real(2000.25)),
                       Expr::MakeNot(Pred(5, CompareOp::kEq,
                                          Value::Text("red")))})});
  };
  EXPECT_EQ(Key(build()), Key(build()));
  EXPECT_EQ(FragmentKey(nullptr), FragmentKey(nullptr));
}

TEST(FragmentKeyTest, EveryFieldSeparatesKeys) {
  const ExprPtr base = Pred(0, CompareOp::kEq, Value::Text("honda"));
  const std::vector<ExprPtr> variants = {
      // allow_shorthand only: WriteSql renders these two identically.
      Pred(0, CompareOp::kEq, Value::Text("honda"), Value(),
           /*allow_shorthand=*/false),
      Pred(1, CompareOp::kEq, Value::Text("honda")),         // attribute
      Pred(0, CompareOp::kNe, Value::Text("honda")),         // operator
      Pred(0, CompareOp::kContains, Value::Text("honda")),   // operator
      Pred(0, CompareOp::kEq, Value::Text("hond")),          // operand bytes
      Pred(0, CompareOp::kEq, Value::Text("honda"),
           Value::Text("honda")),                            // value_hi
      Expr::MakeNot(base),                                   // node kind
  };
  std::vector<std::string> keys = {Key(base), FragmentKey(nullptr)};
  for (const ExprPtr& v : variants) keys.push_back(Key(v));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    }
  }

  // The reason WriteSql text cannot be the key.
  const db::Schema schema = testing::MiniCarSchema();
  db::Query a, b;
  a.where = base;
  b.where = variants[0];
  EXPECT_EQ(db::WriteSql(schema, a), db::WriteSql(schema, b));
}

TEST(FragmentKeyTest, OperandTypeAndValueHiSeparateKeys) {
  const std::vector<ExprPtr> operands = {
      Pred(3, CompareOp::kBetween, Value::Int(5), Value::Int(9)),
      Pred(3, CompareOp::kBetween, Value::Real(5.0), Value::Int(9)),
      Pred(3, CompareOp::kBetween, Value::Text("5"), Value::Int(9)),
      Pred(3, CompareOp::kBetween, Value::Null(), Value::Int(9)),
      Pred(3, CompareOp::kBetween, Value::Int(5), Value::Int(10)),
      Pred(3, CompareOp::kBetween, Value::Int(5), Value::Real(9.0)),
      Pred(3, CompareOp::kBetween, Value::Int(5), Value()),
      // int64s past 2^53 that the same double would hold.
      Pred(3, CompareOp::kEq, Value::Int(9007199254740993)),
      Pred(3, CompareOp::kEq, Value::Int(9007199254740992)),
  };
  for (std::size_t i = 0; i < operands.size(); ++i) {
    for (std::size_t j = i + 1; j < operands.size(); ++j) {
      EXPECT_NE(Key(operands[i]), Key(operands[j])) << i << " vs " << j;
    }
  }
}

TEST(FragmentKeyTest, ChildOrderAndNestingSeparateKeys) {
  const ExprPtr a = Pred(0, CompareOp::kEq, Value::Text("honda"));
  const ExprPtr b = Pred(1, CompareOp::kEq, Value::Text("accord"));
  const ExprPtr c = Pred(5, CompareOp::kEq, Value::Text("red"));
  const std::vector<ExprPtr> trees = {
      Expr::MakeAnd({a, b}),
      Expr::MakeAnd({b, a}),
      Expr::MakeOr({a, b}),
      Expr::MakeAnd({a, b, c}),
      Expr::MakeAnd({Expr::MakeAnd({a, b}), c}),
      Expr::MakeAnd({a, Expr::MakeAnd({b, c})}),
      Expr::MakeNot(Expr::MakeAnd({a, b})),
  };
  for (std::size_t i = 0; i < trees.size(); ++i) {
    for (std::size_t j = i + 1; j < trees.size(); ++j) {
      EXPECT_NE(Key(trees[i]), Key(trees[j])) << i << " vs " << j;
    }
  }
}

// ----------------------------------------------------------- byte bound

/// 4096 rows: 64 words per bitmap, a 32 KiB budget.
constexpr std::size_t kRows = 4096;
constexpr std::size_t kWords = kRows / 64;

FragmentMemo::Words FullBitmap(std::uint64_t fill) {
  return std::make_shared<const std::vector<std::uint64_t>>(kWords, fill);
}

std::string SlotKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "f%03d", i);
  return buf;
}

TEST(FragmentMemoTest, BudgetIsSixtyFourTableWideBitmaps) {
  EXPECT_EQ(FragmentMemo(kRows).budget_bytes(), 64 * kWords * 8);
  EXPECT_EQ(FragmentMemo(150000).budget_bytes(), 64u * 2344 * 8);
  EXPECT_EQ(FragmentMemo::ForTable(db::exec::kRankBlockRows), nullptr);
  EXPECT_NE(FragmentMemo::ForTable(db::exec::kRankBlockRows + 1), nullptr);
}

TEST(FragmentMemoTest, ResidentBytesStayWithinTheBudget) {
  FragmentMemo memo(kRows);
  const std::size_t entry = kWords * 8 + 4 + FragmentMemo::kEntryOverheadBytes;
  const std::size_t fit = memo.budget_bytes() / entry;
  ASSERT_GT(fit, 8u);
  for (int i = 0; i < static_cast<int>(3 * fit); ++i) {
    // Every third entry is an empty fragment: no words.
    memo.Insert(SlotKey(i),
                i % 3 == 2
                    ? std::make_shared<const std::vector<std::uint64_t>>()
                    : FullBitmap(static_cast<std::uint64_t>(i)));
    if (i % 5 == 0) (void)memo.Find(SlotKey(i / 2));
    ASSERT_LE(memo.resident_bytes(), memo.budget_bytes()) << i;
  }
  EXPECT_GT(memo.resident_bytes(), memo.budget_bytes() - entry);

  // An entry larger than the whole budget is not kept.
  memo.Insert(std::string(memo.budget_bytes(), 'k'), FullBitmap(1));
  EXPECT_EQ(memo.Find(std::string(memo.budget_bytes(), 'k')), nullptr);
  EXPECT_LE(memo.resident_bytes(), memo.budget_bytes());
}

TEST(FragmentMemoTest, LeastRecentlyUsedLeavesFirst) {
  FragmentMemo memo(kRows);
  const std::size_t entry = kWords * 8 + 4 + FragmentMemo::kEntryOverheadBytes;
  const int fit = static_cast<int>(memo.budget_bytes() / entry);
  for (int i = 0; i < fit; ++i) {
    memo.Insert(SlotKey(i), FullBitmap(static_cast<std::uint64_t>(i)));
  }
  ASSERT_EQ(memo.size(), static_cast<std::size_t>(fit));

  // No hits: the oldest entry leaves first.
  memo.Insert(SlotKey(fit), FullBitmap(0));
  EXPECT_EQ(memo.size(), static_cast<std::size_t>(fit));
  EXPECT_EQ(memo.Find(SlotKey(0)), nullptr);

  // f001 and f002 are now the oldest; a hit on f001 makes f002 the least
  // recently used, so f002 leaves and f001 stays.
  ASSERT_NE(memo.Find(SlotKey(1)), nullptr);
  memo.Insert(SlotKey(fit + 1), FullBitmap(0));
  EXPECT_EQ(memo.Find(SlotKey(2)), nullptr);
  EXPECT_NE(memo.Find(SlotKey(1)), nullptr);
  EXPECT_NE(memo.Find(SlotKey(fit + 1)), nullptr);
}

TEST(FragmentMemoTest, SecondInsertOfAKeyIsDropped) {
  FragmentMemo memo(kRows);
  const FragmentMemo::Words first = FullBitmap(1);
  memo.Insert("k", first);
  const std::size_t bytes = memo.resident_bytes();
  memo.Insert("k", FullBitmap(2));
  EXPECT_EQ(memo.Find("k"), first);
  EXPECT_EQ(memo.resident_bytes(), bytes);
}

// ------------------------------------------------------------- lifecycle

/// 1037 toyota camrys, then 9000 honda accords, prices ascending in
/// half-dollar steps from a quarter-dollar offset: 10,037 rows, ten rank
/// blocks, so the runtime keeps a fragment memo.
class MemoLifecycleTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kCamrys = 1037;
  static constexpr std::size_t kAccords = 9000;

  MemoLifecycleTest() : table_(testing::MiniCarSchema()) {
    static constexpr const char* kColors[] = {"blue", "red", "white"};
    for (std::size_t i = 0; i < kCamrys + kAccords; ++i) {
      const bool accord = i >= kCamrys;
      const double step = static_cast<double>(accord ? i - kCamrys : i);
      EXPECT_TRUE(table_
                      .Insert(testing::MiniCarRecord(
                          {accord ? "honda" : "toyota",
                           accord ? "accord" : "camry", 2005,
                           (accord ? 10000.25 : 20000.25) + 0.5 * step, 60000,
                           kColors[i % 3], "automatic", "4 door",
                           "2 wheel drive", "cd player"}))
                      .ok());
    }
    table_.BuildIndexes();
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
  }

  /// Relaxable questions (>= 2 units, few exact answers), fixed fragments
  /// and empty units included.
  static std::vector<std::string> Questions() {
    return {"red honda accord 14497.25 dollars",
            "honda accord not red 14497.25 dollars",
            "honda accord 14497 dollars",
            "blue honda accord 14497 dollars",
            "honda accord not red under 9000 dollars",
            "toyota camry 20300 dollars",
            "blue honda camry under 9000 dollars"};
  }

  const db::exec::FragmentMemo* Memo() const {
    return engine_.runtime("cars")->fragment_memo.get();
  }

  /// Fragments the rank stage resolves for `question`: its units plus the
  /// fixed slot.
  std::size_t Fragments(const std::string& question) const {
    auto parsed = engine_.Parse("cars", question);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    return parsed.ok() ? parsed.value().assembled.units.size() + 1 : 0;
  }

  static std::size_t PlanWork(const db::ExecStats& st) {
    return st.index_lookups + st.rows_verified + st.rows_visited +
           st.blocks_visited;
  }

  /// Asks `question`, checks it against the reference oracle byte for
  /// byte, and returns its stats.
  db::ExecStats AskChecked(const std::string& question) {
    auto r = engine_.AskInDomain("cars", question);
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok()) return {};
    auto want =
        reference::ReferenceAskInDomain(*engine_.snapshot(), "cars", question);
    EXPECT_TRUE(want.ok()) << want.status();
    if (want.ok()) {
      EXPECT_EQ(core::CanonicalAskResultString(r.value()),
                core::CanonicalAskResultString(want.value()))
          << question;
    }
    return r.value().stats;
  }

  /// Every question once: each resolves all its fragments from the memo.
  void ExpectAllHits(const char* step) {
    for (const std::string& q : Questions()) {
      const db::ExecStats st = AskChecked(q);
      EXPECT_EQ(st.fragment_hits, Fragments(q)) << step << ": " << q;
      EXPECT_EQ(st.fragment_evals, 0u) << step << ": " << q;
    }
  }

  /// Every question twice on a cold memo: the first ask resolves each
  /// fragment once, evaluating at least the first question's fragments;
  /// the second ask is all hits.
  void ExpectColdThenHits(const char* step) {
    std::size_t evals = 0;
    for (const std::string& q : Questions()) {
      const db::ExecStats first = AskChecked(q);
      EXPECT_EQ(first.fragment_hits + first.fragment_evals, Fragments(q))
          << step << ": " << q;
      if (evals == 0) {
        EXPECT_EQ(first.fragment_evals, Fragments(q)) << step << ": " << q;
      }
      evals += first.fragment_evals;
      const db::ExecStats second = AskChecked(q);
      EXPECT_EQ(second.fragment_hits, Fragments(q)) << step << ": " << q;
      EXPECT_EQ(second.fragment_evals, 0u) << step << ": " << q;
      // A hit runs no plan, so the second ask does no more plan work.
      EXPECT_LE(PlanWork(second), PlanWork(first)) << step << ": " << q;
    }
    EXPECT_EQ(Memo()->size(), evals) << step;
  }

  db::Table table_;
  core::CqadsEngine engine_;
};

TEST_F(MemoLifecycleTest, OnlyTablesLargerThanOneBlockKeepAMemo) {
  ASSERT_NE(Memo(), nullptr);
  auto parsed = engine_.Parse("cars", Questions()[0]);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().fragment_keys.size(),
            parsed.value().assembled.units.size() + 1);

  const db::Table small = testing::MiniCarTable();
  core::CqadsEngine engine;
  ASSERT_TRUE(engine.AddDomain(&small, qlog::TiMatrix()).ok());
  EXPECT_EQ(engine.runtime("cars")->fragment_memo, nullptr);
  auto small_parsed = engine.Parse("cars", "blue honda accord 9000 dollars");
  ASSERT_TRUE(small_parsed.ok()) << small_parsed.status();
  EXPECT_FALSE(small_parsed.value().unit_plans.empty());
  EXPECT_TRUE(small_parsed.value().fragment_keys.empty());
  auto r = engine.AskInDomain("cars", "blue honda accord 9000 dollars");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().stats.fragment_hits, 0u);
  EXPECT_EQ(r.value().stats.fragment_evals,
            small_parsed.value().assembled.units.size() + 1);
}

TEST_F(MemoLifecycleTest, MemoFollowsTheBaseTable) {
  ExpectColdThenHits("cold");
  const db::exec::FragmentMemo* memo = Memo();
  const std::size_t resident = memo->resident_bytes();
  EXPECT_GT(resident, 0u);
  EXPECT_LE(resident, memo->budget_bytes());

  // Ingest and retire share the memo; the delta path copies its entries.
  ASSERT_TRUE(engine_
                  .IngestAd("cars", testing::MiniCarRecord(
                                        {"honda", "accord", 2005, 14497.5,
                                         60000, "red", "automatic", "4 door",
                                         "2 wheel drive", "cd player"}))
                  .ok());
  ASSERT_TRUE(engine_.RetireAd("cars", 10030).ok());
  EXPECT_EQ(Memo(), memo);
  ExpectAllHits("delta");
  EXPECT_EQ(memo->resident_bytes(), resident);

  // New options, same base table: the parses are recompiled, the memo kept.
  core::EngineOptions options;
  options.answer_cap = options.partial_trigger = 12;
  options.explain_plans = true;
  engine_.SetOptions(options);
  EXPECT_EQ(Memo(), memo);
  ExpectAllHits("options");
  // The Explain rank line reports the memo's work.
  const std::string q = Questions()[0];
  auto explained = engine_.AskInDomain("cars", q);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained.value().explain.find(
                " fragment_hits=" + std::to_string(Fragments(q)) +
                " fragment_evals=0\n"),
            std::string::npos)
      << explained.value().explain;

  // Compaction builds a new base table and a new, cold memo.
  ASSERT_TRUE(engine_.CompactDomain("cars").ok());
  ASSERT_NE(Memo(), nullptr);
  EXPECT_NE(Memo(), memo);
  ExpectColdThenHits("compacted");
}

TEST_F(MemoLifecycleTest, ReloadedSnapshotKeepsAColdMemo) {
  ExpectColdThenHits("cold");
  const std::string path = ::testing::TempDir() + "cqads_fragment_memo.snap";
  ASSERT_TRUE(engine_.SaveSnapshot(path).ok());
  auto loaded = core::CqadsEngine::OpenSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const core::CqadsEngine& engine = *loaded.value();
  const db::exec::FragmentMemo* memo =
      engine.runtime("cars")->fragment_memo.get();
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(memo->size(), 0u);
  for (const std::string& q : Questions()) {
    auto r = engine.AskInDomain("cars", q);
    ASSERT_TRUE(r.ok()) << r.status();
    auto want = engine_.AskInDomain("cars", q);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(core::CanonicalAskResultString(r.value()),
              core::CanonicalAskResultString(want.value()))
        << q;
    EXPECT_EQ(r.value().stats.fragment_hits + r.value().stats.fragment_evals,
              Fragments(q))
        << q;
  }
  EXPECT_GT(memo->size(), 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ race

// Four threads ask the same relaxable questions against a cold memo: both
// sides of a miss evaluate and one insert is dropped, every answer stays
// the reference's, and the memo ends with one entry per distinct fragment.
TEST_F(MemoLifecycleTest, FourThreadsFillOneColdMemo) {
  const std::vector<std::string> questions = Questions();
  std::vector<std::string> want;
  for (const std::string& q : questions) {
    auto r =
        reference::ReferenceAskInDomain(*engine_.snapshot(), "cars", q);
    ASSERT_TRUE(r.ok()) << r.status();
    want.push_back(core::CanonicalAskResultString(r.value()));
  }
  ASSERT_EQ(Memo()->size(), 0u);

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < questions.size(); ++i) {
          // Each thread starts at a different question.
          const std::size_t q = (i + static_cast<std::size_t>(t)) %
                                questions.size();
          auto r = engine_.AskInDomain("cars", questions[q]);
          if (!r.ok() ||
              core::CanonicalAskResultString(r.value()) != want[q]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }

  // One entry per distinct key across the questions.
  std::vector<std::string> keys;
  for (const std::string& q : questions) {
    auto parsed = engine_.Parse("cars", q);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    for (const std::string& k : parsed.value().fragment_keys) {
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
  }
  EXPECT_EQ(Memo()->size(), keys.size());
  ExpectAllHits("after race");
}

}  // namespace
}  // namespace cqads
