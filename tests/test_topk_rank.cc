// The bounded top-k rank path: TopK heap semantics (exact (score desc, row
// asc) order, tie-safe threshold, k = 0 degenerate, push-order
// independence, the sift-down push against the pop-and-push heap, the
// block cut against the full sort), RankBounds block metadata,
// engine-level byte-parity of the pruned best-first ranking against the
// reference oracle (reference/) on tie-heavy, clustered, shared-word and
// 9000-row fleets, the blocks a best-first pass visits, score-tie
// boundaries at answer_cap, delta rows + tombstones across a compaction,
// deadline-degraded sweeps, rank and fragment-memo counters through
// ExecStats and ConcurrentServer::StatsJson, and the TSan leg racing
// concurrent server workers' ranking against ingest/retire/compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/cqads_engine.h"
#include "core/pipeline.h"
#include "datagen/domain_spec.h"
#include "datagen/question_gen.h"
#include "datagen/world.h"
#include "db/exec/rank_bounds.h"
#include "db/exec/topk.h"
#include "reference/reference_ask.h"
#include "serve/concurrent_server.h"
#include "test_fixtures.h"

namespace cqads {
namespace {

using db::RowId;
using db::exec::TopK;
using db::exec::TopKEntry;

/// The reference oracle's canonical answer on the engine's current
/// snapshot.
std::string ReferenceCanonical(const core::CqadsEngine& engine,
                               const std::string& domain,
                               const std::string& text) {
  auto r = reference::ReferenceAskInDomain(*engine.snapshot(), domain, text);
  return r.ok() ? core::CanonicalAskResultString(r.value())
                : "ERROR: " + r.status().ToString();
}

/// Asks every question under `options` and requires canonical byte-
/// identity with the reference oracle on the same snapshot, then restores
/// the default options.
void ExpectReferenceParity(
    core::CqadsEngine& engine, const std::string& domain,
    const std::vector<datagen::GeneratedQuestion>& questions,
    const core::EngineOptions& options, const char* label) {
  engine.SetOptions(options);
  for (std::size_t i = 0; i < questions.size(); ++i) {
    auto r = engine.AskInDomain(domain, questions[i].text);
    EXPECT_EQ(r.ok() ? core::CanonicalAskResultString(r.value())
                     : "ERROR: " + r.status().ToString(),
              ReferenceCanonical(engine, domain, questions[i].text))
        << label << " " << domain << " q" << i << ": " << questions[i].text;
  }
  engine.SetOptions(core::EngineOptions());
}

// ------------------------------------------------------------- TopK unit

TEST(TopKTest, KeepsExactlyTheFullSortPrefix) {
  // Random scores with deliberate duplicates: the heap's survivors must be
  // byte-for-byte the first k entries of the full (score desc, row asc)
  // sort.
  Rng rng(42);
  for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{30}}) {
    std::vector<TopKEntry> all;
    TopK topk(k);
    for (RowId row = 0; row < 500; ++row) {
      const double score =
          static_cast<double>(rng.UniformInt(0, 24)) / 10.0;
      all.push_back(TopKEntry{score, row, 0});
      topk.Push(score, row, 0);
    }
    std::sort(all.begin(), all.end(), db::exec::TopKBetter);
    all.resize(std::min(k, all.size()));
    const std::vector<TopKEntry> got = topk.Take();
    ASSERT_EQ(got.size(), all.size()) << "k=" << k;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].score, all[i].score) << "k=" << k << " i=" << i;
      EXPECT_EQ(got[i].row, all[i].row) << "k=" << k << " i=" << i;
    }
  }
}

TEST(TopKTest, TieAtThresholdAdmitsSmallerRowOnly) {
  TopK topk(2);
  EXPECT_FALSE(topk.full());
  topk.Push(1.0, 10, 0);
  topk.Push(1.0, 20, 0);
  ASSERT_TRUE(topk.full());
  EXPECT_EQ(topk.threshold(), 1.0);
  // Equal score: admitted iff the row id is smaller than the current k-th's
  // — the reason block pruning must use bound < threshold STRICTLY.
  EXPECT_TRUE(topk.WouldAccept(1.0, 5));
  EXPECT_FALSE(topk.WouldAccept(1.0, 20));
  EXPECT_FALSE(topk.WouldAccept(1.0, 25));
  EXPECT_FALSE(topk.WouldAccept(0.999, 0));
  ASSERT_TRUE(topk.Push(1.0, 5, 0));
  const auto got = topk.Take();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].row, 5u);
  EXPECT_EQ(got[1].row, 10u);
}

TEST(TopKTest, ZeroCapacityAcceptsNothingAndPrunesEverything) {
  TopK topk(0);
  EXPECT_FALSE(topk.WouldAccept(100.0, 0));
  EXPECT_FALSE(topk.Push(100.0, 0, 0));
  EXPECT_EQ(topk.threshold(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(topk.Take().empty());
}

TEST(TopKTest, PushOrderNeverChangesTheResult) {
  // The rank stage pushes candidates in best-bound block order, not row
  // order; whatever the order, the kept entries must equal the
  // row-order accumulator's.
  Rng rng(7);
  std::vector<TopKEntry> all;
  for (RowId row = 0; row < 300; ++row) {
    all.push_back(
        TopKEntry{static_cast<double>(rng.UniformInt(0, 11)) / 4.0, row, 0});
  }
  constexpr std::size_t kK = 10;
  TopK in_order(kK);
  for (const auto& e : all) in_order.Push(e.score, e.row, e.tag);
  const auto want = in_order.Take();

  for (std::uint64_t salt = 0; salt < 8; ++salt) {
    Rng shuffle(1000 + salt);
    std::vector<TopKEntry> order = all;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(shuffle.UniformInt(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    TopK topk(kK);
    for (const auto& e : order) topk.Push(e.score, e.row, e.tag);
    const auto got = topk.Take();
    ASSERT_EQ(got.size(), want.size()) << salt;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].score, want[i].score) << salt;
      EXPECT_EQ(got[i].row, want[i].row) << salt;
    }
  }
}

/// TopK's push before the sift-down: pop the worst entry, append the new
/// one, push it back into the heap.
class PopPushHeap {
 public:
  explicit PopPushHeap(std::size_t k) : k_(k) {}
  void Push(const TopKEntry& e) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), db::exec::TopKBetter);
      return;
    }
    if (!db::exec::TopKBetter(e, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), db::exec::TopKBetter);
    heap_.back() = e;
    std::push_heap(heap_.begin(), heap_.end(), db::exec::TopKBetter);
  }
  double threshold() const {
    return heap_.size() < k_ ? -std::numeric_limits<double>::infinity()
                             : heap_.front().score;
  }
  std::vector<TopKEntry> Take() {
    std::sort(heap_.begin(), heap_.end(), db::exec::TopKBetter);
    return heap_;
  }

 private:
  std::size_t k_;
  std::vector<TopKEntry> heap_;
};

void ExpectSameEntries(const std::vector<TopKEntry>& got,
                       const std::vector<TopKEntry>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].score, want[i].score) << label << " i=" << i;
    EXPECT_EQ(got[i].row, want[i].row) << label << " i=" << i;
    EXPECT_EQ(got[i].tag, want[i].tag) << label << " i=" << i;
  }
}

TEST(TopKTest, SiftDownPushKeepsThePopPushHeapEntries) {
  // Random streams over few distinct scores (ties everywhere) and shuffled
  // rows: after every push the threshold agrees, and so do the entries
  // kept at the end.
  Rng rng(2024);
  for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{30}, std::size_t{64}}) {
    for (int stream = 0; stream < 20; ++stream) {
      std::vector<RowId> rows(400);
      for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;
      for (std::size_t i = rows.size(); i > 1; --i) {
        std::swap(rows[i - 1], rows[static_cast<std::size_t>(rng.UniformInt(
                                   0, static_cast<std::int64_t>(i) - 1))]);
      }
      TopK topk(k);
      PopPushHeap old(k);
      for (RowId row : rows) {
        const TopKEntry e{static_cast<double>(rng.UniformInt(0, 5)) / 2.0,
                          row, static_cast<std::uint32_t>(row % 3)};
        topk.Push(e.score, e.row, e.tag);
        old.Push(e);
        ASSERT_EQ(topk.threshold(), old.threshold())
            << "k=" << k << " stream=" << stream;
      }
      ExpectSameEntries(topk.Take(), old.Take(),
                        "k=" + std::to_string(k) +
                            " stream=" + std::to_string(stream));
    }
  }
}

/// Pushes each block through the block cut, as a pruned rank pass does:
/// only entries at or above the block's k-th best score.
std::vector<TopKEntry> TakeWithBlockCut(
    std::size_t k, const std::vector<std::vector<TopKEntry>>& blocks) {
  TopK topk(k);
  std::vector<double> scores;
  for (const auto& block : blocks) {
    scores.clear();
    for (const TopKEntry& e : block) scores.push_back(e.score);
    const double cut =
        db::exec::KthBestScore(scores.data(), scores.size(), k);
    for (const TopKEntry& e : block) {
      if (e.score >= cut) topk.Push(e.score, e.row, e.tag);
    }
  }
  return topk.Take();
}

/// The first k entries of the full (score desc, row asc) sort.
std::vector<TopKEntry> FullSortPrefix(
    std::size_t k, const std::vector<std::vector<TopKEntry>>& blocks) {
  std::vector<TopKEntry> all;
  for (const auto& block : blocks) {
    all.insert(all.end(), block.begin(), block.end());
  }
  std::sort(all.begin(), all.end(), db::exec::TopKBetter);
  all.resize(std::min(k, all.size()));
  return all;
}

TEST(TopKTest, KthBestScoreCutsBelowTheKthScore) {
  std::vector<double> scores = {0.5, 2.0, 1.0, 2.0, 1.0, 3.0};
  EXPECT_EQ(db::exec::KthBestScore(scores.data(), scores.size(), 1), 3.0);
  EXPECT_EQ(db::exec::KthBestScore(scores.data(), scores.size(), 3), 2.0);
  EXPECT_EQ(db::exec::KthBestScore(scores.data(), scores.size(), 4), 1.0);
  // No more candidates than k: nothing to cut. k = 0: nothing enters.
  EXPECT_EQ(db::exec::KthBestScore(scores.data(), scores.size(), 6),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(db::exec::KthBestScore(scores.data(), scores.size(), 0),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(db::exec::KthBestScore(scores.data(), 0, 30),
            -std::numeric_limits<double>::infinity());
}

TEST(TopKTest, BlockCutKeepsTheFullSortPrefix) {
  Rng rng(77);
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{30}}) {
    for (int stream = 0; stream < 40; ++stream) {
      // Shuffled rows, so smaller rows arrive in later blocks; few distinct
      // scores, so ties straddle every block's cut.
      std::vector<RowId> rows(600);
      for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;
      for (std::size_t i = rows.size(); i > 1; --i) {
        std::swap(rows[i - 1], rows[static_cast<std::size_t>(rng.UniformInt(
                                   0, static_cast<std::int64_t>(i) - 1))]);
      }
      std::vector<std::vector<TopKEntry>> blocks;
      std::size_t next = 0;
      while (next < rows.size()) {
        const std::size_t n = std::min<std::size_t>(
            rows.size() - next,
            static_cast<std::size_t>(rng.UniformInt(0, 120)));
        std::vector<TopKEntry> block;
        for (std::size_t i = 0; i < n; ++i) {
          block.push_back(TopKEntry{
              static_cast<double>(rng.UniformInt(0, 3 + stream % 5)) / 4.0,
              rows[next + i], static_cast<std::uint32_t>(stream)});
        }
        next += n;
        blocks.push_back(std::move(block));
      }
      ExpectSameEntries(TakeWithBlockCut(k, blocks), FullSortPrefix(k, blocks),
                        "k=" + std::to_string(k) +
                            " stream=" + std::to_string(stream));
    }
  }
}

TEST(TopKTest, BlockCutKeepsTiesAtTheKthScore) {
  constexpr std::size_t kK = 30;
  // Heavy ties at the k-th score: 10 rows above it, 50 at it. Every row at
  // the cut is pushed, and the smallest rows among them are kept.
  std::vector<TopKEntry> heavy;
  for (RowId r = 0; r < 60; ++r) {
    heavy.push_back(TopKEntry{r % 6 == 0 ? 2.0 : 1.0, 1000 - r, 0});
  }
  ExpectSameEntries(TakeWithBlockCut(kK, {heavy}), FullSortPrefix(kK, {heavy}),
                    "heavy ties");

  // Equal scores, smaller rows in a later block: the later block's rows
  // displace the earlier block's at the same score.
  std::vector<TopKEntry> early, late;
  for (RowId r = 0; r < 45; ++r) {
    early.push_back(TopKEntry{1.0, 500 + r, 0});
    late.push_back(TopKEntry{1.0, 100 + r, 1});
  }
  late.push_back(TopKEntry{0.5, 0, 1});
  const auto got = TakeWithBlockCut(kK, {early, late});
  ExpectSameEntries(got, FullSortPrefix(kK, {early, late}), "later rows");
  ASSERT_EQ(got.size(), kK);
  EXPECT_EQ(got.front().row, 100u);
  EXPECT_EQ(got.back().row, 100u + kK - 1);
}

// ------------------------------------------------------- RankBounds unit

TEST(RankBoundsTest, MiniCarBlockMetadata) {
  db::Table table = testing::MiniCarTable();  // 13 rows => one block
  auto bounds = db::exec::RankBounds::Build(table);
  ASSERT_NE(bounds, nullptr);
  EXPECT_EQ(bounds->num_rows(), 13u);
  EXPECT_EQ(bounds->num_blocks(), 1u);
  EXPECT_EQ(bounds->block_end(0), 13u);

  // Attribute 0 ("make", text): one block whose code range covers every
  // row's code, and a presence flag per dictionary code.
  const auto& make = bounds->attr(0);
  ASSERT_EQ(make.code_min.size(), 1u);
  ASSERT_LE(make.code_min[0], make.code_max[0]);
  const auto& codes = table.store().code_column(0);
  for (RowId r = 0; r < table.num_rows(); ++r) {
    ASSERT_GE(codes[r], make.code_min[0]);
    ASSERT_LE(codes[r], make.code_max[0]);
  }
  std::vector<std::uint8_t> present(table.store().dictionary(0).size(), 0);
  for (RowId r = 0; r < table.num_rows(); ++r) present[codes[r]] = 1;
  EXPECT_EQ(make.code_present, present);
  EXPECT_FALSE(make.any_null);

  // Attribute 2 ("year", numeric): the block's value envelope is the
  // column's true min/max.
  const auto& year = bounds->attr(2);
  ASSERT_EQ(year.val_min.size(), 1u);
  const auto& vals = table.store().numeric_column(2);
  double lo = vals[0], hi = vals[0];
  for (RowId r = 1; r < table.num_rows(); ++r) {
    lo = std::min(lo, vals[r]);
    hi = std::max(hi, vals[r]);
  }
  EXPECT_EQ(year.val_min[0], lo);
  EXPECT_EQ(year.val_max[0], hi);
}

// ------------------------------------------- world-backed rank counters

class RankCountersTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 20111130;
    options.ads_per_domain = 120;
    options.sessions_per_domain = 200;
    options.corpus_docs_per_domain = 40;
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

datagen::World* RankCountersTest::world_ = nullptr;

// Partial ranking does real work on this stream, and the new ExecStats
// counters see it (blocks visited whenever the top-k sweep ran).
TEST_P(RankCountersTest, AccumulateOverTheStream) {
  const std::string& domain = GetParam();
  const auto* spec = world_->spec(domain);
  ASSERT_NE(spec, nullptr);
  Rng rng(901);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table(domain), 40, datagen::QuestionGenOptions(), &rng);

  auto& engine = world_->mutable_engine();
  engine.SetOptions(core::EngineOptions());
  std::size_t blocks_visited = 0;
  std::size_t ranked_questions = 0;
  for (const auto& q : questions) {
    auto r = engine.AskInDomain(domain, q.text);
    if (!r.ok()) continue;
    blocks_visited += r.value().stats.rank_blocks_visited;
    const auto& answers = r.value().answers;
    const bool has_partial =
        std::any_of(answers.begin(), answers.end(),
                    [](const core::Answer& a) { return !a.exact; });
    if (has_partial) {
      ++ranked_questions;
      EXPECT_LE(answers.size(),
                static_cast<std::size_t>(core::EngineOptions().answer_cap));
    }
  }
  if (ranked_questions > 0) {
    EXPECT_GT(blocks_visited, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, RankCountersTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& spec : datagen::AllDomainSpecs()) {
        names.push_back(spec.schema.domain());
      }
      return names;
    }()));

// ----------------------------------- tie boundaries + delta / tombstones

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

/// Engine over many duplicated MiniCar rows: scores tie in large groups, so
/// the answer_cap boundary lands inside a tie run — the adversarial case
/// for threshold pruning (an equal-score smaller-row candidate must still
/// displace the k-th entry).
class TieBoundaryTest : public ::testing::Test {
 protected:
  TieBoundaryTest() : table_(testing::MiniCarSchema()) {
    const db::Table proto = testing::MiniCarTable();
    for (int copy = 0; copy < 20; ++copy) {  // 260 rows, ties everywhere
      for (RowId r = 0; r < proto.num_rows(); ++r) {
        EXPECT_TRUE(table_.Insert(proto.row(r)).ok());
      }
    }
    table_.BuildIndexes();
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
    EXPECT_TRUE(engine_.TrainClassifier().ok());
  }

  void ExpectParity(const std::vector<std::string>& questions) {
    std::vector<datagen::GeneratedQuestion> qs;
    for (const auto& text : questions) {
      datagen::GeneratedQuestion q;
      q.text = text;
      qs.push_back(std::move(q));
    }
    ExpectReferenceParity(engine_, "cars", qs, core::EngineOptions(),
                          "tie");
  }

  db::Table table_;
  core::CqadsEngine engine_;
};

TEST_F(TieBoundaryTest, CapFallsInsideTieRuns) {
  // Single-condition questions sweep the whole table; multi-unit questions
  // relax N-1. With 20 copies of every row, either way the 30-answer cap
  // cuts through a run of identical scores where only row ids decide.
  ExpectParity({
      "blue car",
      "honda",
      "manual transmission",
      "blue honda with cd player",
      "cheap toyota under 9000 dollars",
      "red car with leather seats",
      "4 door automatic with gps",
  });
}

TEST_F(TieBoundaryTest, DeltaRowsAndTombstonesStayByteIdentical) {
  // Grow a delta (new best-scoring candidates above base_rows), tombstone
  // base rows mid-tie-run, and re-check parity before AND after compaction:
  // the pruned path must handle live deltas, retired masks, and the
  // post-compaction rebuilt table identically to the reference.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine_
                    .IngestAd("cars", CarRecord("honda", "fit", 2011, 9500,
                                                40000, "blue", "automatic",
                                                "4 door", "2 wheel drive",
                                                "cd player;bluetooth"))
                    .ok());
  }
  ASSERT_TRUE(engine_.RetireAd("cars", 0).ok());
  ASSERT_TRUE(engine_.RetireAd("cars", 13).ok());
  ASSERT_TRUE(engine_.RetireAd("cars", 26).ok());
  const std::vector<std::string> questions = {
      "blue car", "honda", "blue honda with cd player", "manual red car"};
  ExpectParity(questions);

  ASSERT_TRUE(engine_.CompactDomain("cars").ok());
  ExpectParity(questions);
}

// ------------------------------------ best-first visits (clustered data)

/// Three (make, model) groups of 8 blocks each, prices ascending inside a
/// group in half-dollar steps from a quarter-dollar offset, so an integer
/// price target never matches exactly: every "make model price" ask ranks
/// the N-1 pass that drops price over the whole group, and every bare
/// price ask ranks all 24 blocks. Targets sit in a group's last block,
/// which row-order visiting reaches after 8, 16 or 24 blocks.
class ClusteredRankTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kGroupRows = 8 * db::exec::kRankBlockRows;

  ClusteredRankTest() : table_(testing::MiniCarSchema()) {
    static constexpr const char* kGroups[][2] = {
        {"honda", "accord"}, {"toyota", "camry"}, {"ford", "focus"}};
    static constexpr const char* kColors[] = {"blue", "red", "white"};
    for (std::size_t g = 0; g < 3; ++g) {
      for (std::size_t i = 0; i < kGroupRows; ++i) {
        const double price = 10000.0 * static_cast<double>(g + 1) +
                             0.5 * static_cast<double>(i) + 0.25;
        EXPECT_TRUE(table_
                        .Insert(CarRecord(kGroups[g][0], kGroups[g][1], 2005,
                                          price, 60000, kColors[i % 3],
                                          "automatic", "4 door",
                                          "2 wheel drive", "cd player"))
                        .ok());
      }
    }
    table_.BuildIndexes();
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
  }

  /// Targets inside each group's last block (rows 7168..8191 of the group,
  /// prices +3584.25..+4095.75), with and without a color unit, and as
  /// single-condition asks.
  static std::vector<datagen::GeneratedQuestion> Questions() {
    std::vector<datagen::GeneratedQuestion> qs;
    for (const char* text :
         {"honda accord 13800 dollars", "toyota camry 23650 dollars",
          "ford focus 33900 dollars", "blue honda accord 13900 dollars",
          "red ford focus 33700 dollars", "13800 dollars", "23650 dollars",
          "33900 dollars"}) {
      datagen::GeneratedQuestion q;
      q.text = text;
      qs.push_back(std::move(q));
    }
    return qs;
  }

  db::Table table_;
  core::CqadsEngine engine_;
};

TEST_F(ClusteredRankTest, BestFirstVisitsTheTargetBlockOnly) {
  const auto questions = Questions();
  ExpectReferenceParity(engine_, "cars", questions, core::EngineOptions(),
                        "best-first");

  // The first block scored holds the target, so the threshold reaches its
  // final value there and every other block bounds below it.
  for (const auto& q : questions) {
    auto r = engine_.AskInDomain("cars", q.text);
    ASSERT_TRUE(r.ok()) << r.status();
    const db::ExecStats& st = r.value().stats;
    EXPECT_EQ(r.value().answers.size(), 30u) << q.text;
    EXPECT_GE(st.rank_blocks_visited, 1u) << q.text;
    EXPECT_LE(st.rank_blocks_visited, 2u) << q.text;
    EXPECT_GE(st.rank_blocks_skipped, 6u) << q.text;
  }
}

// ------------------------------- N-1 passes over per-unit row bitmaps

/// 1037 toyota camrys, then 9000 honda accords: 10037 base rows, so the
/// base's last 64-bit word (rows 9984..10036) also holds the first ingested
/// delta rows. Accord prices ascend in half-dollar steps from a quarter-
/// dollar offset, so "honda accord 14497 dollars" never matches exactly and
/// ranks the accords of that shared word (rows 10030 and 10031 straddle
/// the target) through the pass that drops price, whose 9000 candidates
/// span nine rank blocks.
class UnitBitmapRankTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kCamrys = 1037;
  static constexpr std::size_t kAccords = 9000;
  static constexpr std::size_t kBaseRows = kCamrys + kAccords;

  UnitBitmapRankTest() : table_(testing::MiniCarSchema()) {
    static constexpr const char* kColors[] = {"blue", "red", "white"};
    for (std::size_t i = 0; i < kBaseRows; ++i) {
      const bool accord = i >= kCamrys;
      const double step = static_cast<double>(accord ? i - kCamrys : i);
      EXPECT_TRUE(table_
                      .Insert(CarRecord(accord ? "honda" : "toyota",
                                        accord ? "accord" : "camry", 2005,
                                        (accord ? 10000.25 : 20000.25) +
                                            0.5 * step,
                                        60000, kColors[i % 3], "automatic",
                                        "4 door", "2 wheel drive",
                                        "cd player"))
                      .ok());
    }
    table_.BuildIndexes();
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
  }

  /// Live delta rows in the shared word, scoring next to the target, and
  /// tombstones on both sides of the base/delta split inside that word.
  void GrowSharedWordDelta() {
    ASSERT_NE(kBaseRows % 64, 0u);
    const struct {
      double price;
      const char* color;
    } kAds[] = {{14497.5, "blue"},  {14496.5, "red"},   {14497.0, "white"},
                {14498.0, "blue"},  {14495.5, "white"}, {14499.5, "red"}};
    std::vector<RowId> ids;
    for (const auto& ad : kAds) {
      auto id = engine_.IngestAd(
          "cars", CarRecord("honda", "accord", 2005, ad.price, 60000,
                            ad.color, "automatic", "4 door", "2 wheel drive",
                            "cd player"));
      ASSERT_TRUE(id.ok()) << id.status();
      ids.push_back(id.value());
    }
    ASSERT_EQ(ids.front(), kBaseRows);
    ASSERT_EQ(ids.front() / 64, (kBaseRows - 1) / 64);  // same word
    ASSERT_TRUE(engine_.RetireAd("cars", 10030).ok());
    ASSERT_TRUE(engine_.RetireAd("cars", 10033).ok());
    ASSERT_TRUE(engine_.RetireAd("cars", ids[2]).ok());
  }

  /// Top-k ranking vs the reference. `cap` overrides answer_cap and
  /// partial_trigger.
  void ExpectParityEverywhere(
      const std::vector<datagen::GeneratedQuestion>& questions,
      std::size_t cap = core::EngineOptions().answer_cap) {
    core::EngineOptions options;
    options.answer_cap = options.partial_trigger = cap;
    ExpectReferenceParity(engine_, "cars", questions, options, "top-k");
  }

  /// One case per question: the parse shape it must have, so each case
  /// exercises what its comment claims.
  struct Case {
    const char* text;
    std::size_t units, fixed, empty_units;
  };
  static constexpr Case kCases[] = {
      // No empty unit: every pass runs (14497.25 is row 10031's price).
      {"red honda accord 14497.25 dollars", 3, 0, 0},
      {"honda accord not red 14497.25 dollars", 2, 1, 0},
      // One empty unit (no price equals 14497 or is under 9000): the
      // passes that keep it are skipped.
      {"honda accord 14497 dollars", 2, 0, 1},
      {"blue honda accord 14497 dollars", 3, 0, 1},
      {"white honda accord 14497 dollars", 3, 0, 1},
      {"honda accord not red 14497 dollars", 2, 1, 1},
      {"honda accord not red under 9000 dollars", 2, 1, 1},
      {"toyota camry 20300 dollars", 2, 0, 1},
      // Two empty units (no honda is a camry either): every pass keeps
      // one and is skipped.
      {"blue honda camry under 9000 dollars", 3, 0, 2},
  };

  static std::vector<datagen::GeneratedQuestion> Questions() {
    std::vector<datagen::GeneratedQuestion> qs;
    for (const Case& c : kCases) {
      datagen::GeneratedQuestion q;
      q.text = c.text;
      qs.push_back(std::move(q));
    }
    return qs;
  }

  db::Table table_;
  core::CqadsEngine engine_;
};

TEST_F(UnitBitmapRankTest, CasesHaveTheirClaimedShape) {
  for (const Case& c : kCases) {
    auto parsed = engine_.Parse("cars", c.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const core::ParsedQuestion& p = parsed.value();
    EXPECT_EQ(p.assembled.units.size(), c.units) << c.text;
    EXPECT_EQ(p.assembled.fixed.size(), c.fixed) << c.text;
    ASSERT_EQ(p.unit_plans.size(), c.units) << c.text;
    EXPECT_EQ(p.fixed_plan != nullptr, c.fixed > 0) << c.text;
    std::size_t empty = 0;
    for (const auto& plan : p.unit_plans) {
      db::ExecStats stats;
      auto rows = plan->ExecuteRowSet(&stats);
      ASSERT_TRUE(rows.ok()) << rows.status();
      empty += rows.value().empty() ? 1 : 0;
    }
    EXPECT_EQ(empty, c.empty_units) << c.text;
  }
}

TEST_F(UnitBitmapRankTest, SharedWordDeltaAndTombstonesMatchReference) {
  const auto questions = Questions();
  ExpectParityEverywhere(questions);

  GrowSharedWordDelta();
  ExpectParityEverywhere(questions);

  // The case the parity above must cover: the top-k answer holds base rows
  // and delta rows of the shared word, and none of its tombstones.
  auto r = engine_.AskInDomain("cars", "honda accord 14497 dollars");
  ASSERT_TRUE(r.ok()) << r.status();
  bool shared_base = false, delta = false;
  for (const core::Answer& a : r.value().answers) {
    shared_base = shared_base || (a.row / 64 == kBaseRows / 64 &&
                                  a.row < kBaseRows);
    delta = delta || a.row >= kBaseRows;
    EXPECT_NE(a.row, 10030u);
    EXPECT_NE(a.row, 10033u);
    EXPECT_NE(a.row, kBaseRows + 2);
  }
  EXPECT_TRUE(shared_base);
  EXPECT_TRUE(delta);
}

// A cap above every pass's candidate count ships every candidate, so the
// whole relaxation row set, each row once with its owning pass's score and
// measure, is compared, not just its best 30.
TEST_F(UnitBitmapRankTest, EveryCandidateMatchesReferenceUnderAWideCap) {
  GrowSharedWordDelta();
  ExpectParityEverywhere(Questions(), /*cap=*/20000);
}

// Tombstones alone make the delta non-empty with no delta rows: the word
// shared with the (empty) delta range holds base candidates only.
TEST_F(UnitBitmapRankTest, TombstonesWithoutDeltaRowsMatchReference) {
  ASSERT_TRUE(engine_.RetireAd("cars", 10030).ok());
  ASSERT_TRUE(engine_.RetireAd("cars", 10033).ok());
  ExpectParityEverywhere(Questions());
}

// AnswerQuestion runs only on a parse PlanQuestion completed: one stripped
// of its unit and fixed-fragment plans is refused.
TEST_F(UnitBitmapRankTest, AnswerWithoutUnitPlansFailsPrecondition) {
  const auto snap = engine_.snapshot();
  for (const Case& c : kCases) {
    auto parsed = engine_.Parse("cars", c.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    core::ParsedQuestion bare = std::move(parsed).value();
    ASSERT_EQ(bare.unit_plans.size(), c.units) << c.text;
    bare.unit_plans.clear();
    bare.fixed_plan = nullptr;

    core::QueryContext ctx(c.text, "cars");
    EXPECT_EQ(core::AnswerQuestion(*snap, bare, &ctx).code(),
              StatusCode::kFailedPrecondition)
        << c.text;
  }
}

// ------------------------------------------------ big domain (9000 ads)

class BigDomainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One domain of nine rank blocks, so the rank passes have blocks to
    // order and prune.
    datagen::WorldOptions options;
    options.seed = 20111130;
    options.ads_per_domain = 9000;
    options.sessions_per_domain = 300;
    options.corpus_docs_per_domain = 40;
    options.domains = {"cars"};
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

datagen::World* BigDomainTest::world_ = nullptr;

TEST_F(BigDomainTest, MorselParallelRankMatchesReference) {
  const auto* spec = world_->spec("cars");
  ASSERT_NE(spec, nullptr);
  Rng rng(321);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table("cars"), 25, datagen::QuestionGenOptions(), &rng);
  ExpectReferenceParity(world_->mutable_engine(), "cars", questions,
                        core::EngineOptions(), "big domain");
}

// The CI TSan leg: three server workers ranking at once, racing ingest,
// retire, compaction, and snapshot swaps. Each request pins its snapshot
// and owns its scorer and top-k, so no rank state is shared across
// workers — nothing may race.
TEST_F(BigDomainTest, ParallelRankSurvivesConcurrentMutation) {
  auto& engine = world_->mutable_engine();

  const auto* spec = world_->spec("cars");
  Rng rng(654);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table("cars"), 12, datagen::QuestionGenOptions(), &rng);

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    const db::Record seed_record = world_->table("cars")->row(0);
    int iteration = 0;
    while (!stop_writer.load()) {
      auto id = engine.IngestAd("cars", seed_record);
      if (id.ok() && iteration % 2 == 0) {
        (void)engine.RetireAd("cars", id.value());
      }
      if (++iteration % 4 == 0) (void)engine.CompactDomain("cars");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  serve::ConcurrentServer::Options server_options;
  server_options.num_workers = 3;
  serve::ConcurrentServer server(&engine, server_options);
  std::atomic<int> done{0};
  std::atomic<int> errors{0};
  constexpr int kAsks = 60;
  for (int i = 0; i < kAsks; ++i) {
    server.AskAsyncInDomain("cars", questions[i % questions.size()].text,
                            Deadline::Infinite(),
                            [&](Result<core::AskResult> r) {
                              if (!r.ok()) errors.fetch_add(1);
                              done.fetch_add(1);
                            });
  }
  const auto timeout =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (done.load() < kAsks &&
         std::chrono::steady_clock::now() < timeout) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop_writer.store(true);
  writer.join();
  ASSERT_EQ(done.load(), kAsks);
  EXPECT_EQ(errors.load(), 0);
}

// -------------------------------------- degraded sweeps + server counters

TEST_F(BigDomainTest, DeadlinedSweepsDegradeOrExpireNeverError) {
  auto& engine = world_->mutable_engine();
  engine.SetOptions(core::EngineOptions());
  const auto* spec = world_->spec("cars");
  Rng rng(987);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table("cars"), 20, datagen::QuestionGenOptions(), &rng);

  serve::ConcurrentServer server(&engine);
  std::size_t issued = 0;
  for (const auto budget :
       {std::chrono::microseconds(0), std::chrono::microseconds(80),
        std::chrono::microseconds(400), std::chrono::microseconds(5000)}) {
    for (const auto& q : questions) {
      auto r = server.AskInDomain("cars", q.text, Deadline::After(budget));
      ++issued;
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded) << q.text;
      } else if (!r.value().degraded) {
        // Fully answered despite the budget: the answer must obey the cap.
        EXPECT_LE(r.value().answers.size(),
                  static_cast<std::size_t>(core::EngineOptions().answer_cap));
      }
    }
  }
  const auto s = server.stats();
  EXPECT_EQ(s.answered + s.degraded + s.deadline_exceeded + s.errors, issued);
  EXPECT_EQ(s.errors, 0u);

  // Rank work surfaced through StatsJson (the fleet-scrape satellite):
  // the keys exist and the visited counter reflects the ranking above.
  const std::string json = server.StatsJson();
  EXPECT_NE(json.find("\"rank_blocks_visited\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_blocks_skipped\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_rows_pruned\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_threshold_updates\""), std::string::npos)
      << json;
  EXPECT_EQ(s.rank_blocks_visited > 0,
            json.find("\"rank_blocks_visited\":0") == std::string::npos);
  // The scorer's work: rows scored, and similarities computed.
  EXPECT_NE(json.find("\"rank_rows_scored\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_sim_evals\""), std::string::npos) << json;
  EXPECT_GT(s.rank_rows_scored, 0u);
  EXPECT_EQ(json.find("\"rank_rows_scored\":0"), std::string::npos) << json;
  // The 9000-row table keeps a fragment memo: the relaxed asks above
  // resolved fragments from it or filled it, and what it holds is counted.
  EXPECT_NE(json.find("\"rank_fragment_hits\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rank_fragment_evals\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rank_fragment_bytes\""), std::string::npos)
      << json;
  EXPECT_GT(s.fragment_hits + s.fragment_evals, 0u);
  EXPECT_EQ(s.fragment_hits > 0,
            json.find("\"rank_fragment_hits\":0") == std::string::npos);
  const auto* memo = engine.runtime("cars")->fragment_memo.get();
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(memo->resident_bytes() > 0,
            json.find("\"rank_fragment_bytes\":0") == std::string::npos);
}

}  // namespace
}  // namespace cqads
