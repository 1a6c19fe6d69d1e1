// Block-at-a-time execution: every SIMD selection kernel differentially
// tested against the scalar oracle on adversarial inputs (all-null columns,
// kNullCode runs, non-multiple-of-64 tails, empty selections, single-row
// tables), LazyRowSet algebra vs sorted-vector set semantics, plan-level
// row-set identity with the seed Executor on the same expression
// (including both sides of FilterNode's dense-in-touched-blocks rule), and
// SimScorer::ScoreBlock vs the reference string scorer across all eight
// datagen domains.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "core/rank_sim.h"
#include "datagen/domain_spec.h"
#include "datagen/question_gen.h"
#include "datagen/world.h"
#include "db/exec/plan.h"
#include "db/exec/rowset_ops.h"
#include "db/exec/vector_kernels.h"
#include "db/executor.h"
#include "db/storage/column_store.h"
#include "reference/string_rank_sim.h"

namespace cqads {
namespace {

using db::CompareOp;
using db::ColumnStore;
using db::RowId;
using db::RowSet;
using db::exec::CodeEqMask;
using db::exec::CodeTableMask;
using db::exec::EmitRows;
using db::exec::kBlockRows;
using db::exec::LazyRowSet;
using db::exec::NumericCompareMask;
using db::exec::RowBitmap;
using db::exec::SelMask;
using db::exec::SimdLevel;

// Every dispatch tier this build + CPU can actually run (SetSimdOverride
// clamps requests above the CPU's capability, so asking for each tier and
// reading back what stuck enumerates them). Always contains kScalar.
std::vector<SimdLevel> TestableLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel want :
       {SimdLevel::kScalar, SimdLevel::kSse2, SimdLevel::kAvx2}) {
    db::exec::SetSimdOverride(want);
    if (db::exec::ActiveSimdLevel() == want) levels.push_back(want);
  }
  db::exec::ClearSimdOverride();
  return levels;
}

const char* LevelName(SimdLevel l) {
  switch (l) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kScalar:
      return "scalar";
  }
  return "?";
}

bool MaskBit(const SelMask& mask, std::size_t i) {
  return (mask.words[i / 64] >> (i % 64)) & 1u;
}

// The row-wise contract each kernel must implement, restated independently
// of the kernel code (db/compare.h's null rule: only kNe matches NULL).
bool OracleNumeric(double v, bool is_null, CompareOp op, double lo,
                   double hi) {
  if (is_null) return op == CompareOp::kNe;
  switch (op) {
    case CompareOp::kEq:
      return v == lo;
    case CompareOp::kNe:
      return v != lo;
    case CompareOp::kLt:
      return v < lo;
    case CompareOp::kLe:
      return v <= lo;
    case CompareOp::kGt:
      return v > lo;
    case CompareOp::kGe:
      return v >= lo;
    case CompareOp::kBetween:
      return v >= lo && v <= hi;
    case CompareOp::kContains:
      return false;
  }
  return false;
}

TEST(SimdDispatchTest, OverrideClampsAndRestores) {
  const SimdLevel detected = db::exec::ActiveSimdLevel();
  db::exec::SetSimdOverride(SimdLevel::kScalar);
  EXPECT_EQ(db::exec::ActiveSimdLevel(), SimdLevel::kScalar);
  // Requests above the CPU's capability clamp to what it can run.
  db::exec::SetSimdOverride(SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(detected),
            static_cast<int>(db::exec::ActiveSimdLevel()));
  db::exec::ClearSimdOverride();
  EXPECT_EQ(db::exec::ActiveSimdLevel(), detected);
}

// Block sizes that exercise empty selections, single rows, word
// boundaries, sub-word tails, and full blocks.
const std::size_t kAdversarialSizes[] = {0, 1, 2, 63, 64, 65, 127,
                                         128, 500, 1000, 1023, 1024};

TEST(NumericCompareMaskTest, AllTiersMatchOracle) {
  std::mt19937_64 rng(20260808);
  const double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  // Small value pool so equality boundaries actually fire.
  const double pool[] = {-kInf, -7.5, -0.0, 0.0,  1.0,
                         2.5,   7.5,  42.0, kInf, 5e-324};
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe,
                           CompareOp::kBetween, CompareOp::kContains};

  for (SimdLevel level : TestableLevels()) {
    db::exec::SetSimdOverride(level);
    for (std::size_t n : kAdversarialSizes) {
      // Three null shapes: no-null (bitmap pointer omitted), mixed,
      // all-null.
      for (int shape = 0; shape < 3; ++shape) {
        std::vector<double> packed(n, 0.0);
        std::vector<std::uint64_t> nulls((n + 63) / 64, 0);
        std::vector<bool> is_null(n, false);
        for (std::size_t i = 0; i < n; ++i) {
          const bool null_row =
              shape == 2 || (shape == 1 && rng() % 4 == 0);
          if (null_row) {
            is_null[i] = true;
            nulls[i / 64] |= std::uint64_t{1} << (i % 64);
            packed[i] = kNan;
          } else {
            packed[i] = pool[rng() % (sizeof(pool) / sizeof(pool[0]))];
          }
        }
        for (CompareOp op : ops) {
          const double lo = pool[rng() % (sizeof(pool) / sizeof(pool[0]))];
          const double hi = lo + 5.0;
          SelMask mask;
          NumericCompareMask(packed.data(),
                             shape == 0 ? nullptr : nulls.data(), op, lo, hi,
                             /*base=*/0, n, &mask);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(MaskBit(mask, i),
                      OracleNumeric(packed[i], is_null[i], op, lo, hi))
                << LevelName(level) << " n=" << n << " shape=" << shape
                << " op=" << static_cast<int>(op) << " row=" << i
                << " v=" << packed[i];
          }
          for (std::size_t i = n; i < kBlockRows; ++i) {
            ASSERT_FALSE(MaskBit(mask, i)) << "tail bit " << i << " set";
          }
        }
      }
    }
  }
  db::exec::ClearSimdOverride();
}

TEST(CodeEqMaskTest, AllTiersMatchOracle) {
  std::mt19937_64 rng(424243);
  for (SimdLevel level : TestableLevels()) {
    db::exec::SetSimdOverride(level);
    for (std::size_t n : kAdversarialSizes) {
      for (int shape = 0; shape < 3; ++shape) {
        std::vector<std::uint32_t> codes(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
          if (shape == 2 || (shape == 1 && rng() % 3 == 0)) {
            codes[i] = ColumnStore::kNullCode;  // runs of NULL under shape 2
          } else {
            codes[i] = static_cast<std::uint32_t>(rng() % 5);
          }
        }
        const std::uint32_t target = static_cast<std::uint32_t>(rng() % 5);
        for (bool negate : {false, true}) {
          for (bool null_matches : {false, true}) {
            SelMask mask;
            CodeEqMask(codes.data(), target, negate, null_matches,
                       /*base=*/0, n, &mask);
            for (std::size_t i = 0; i < n; ++i) {
              const bool expect =
                  codes[i] == ColumnStore::kNullCode
                      ? null_matches
                      : (codes[i] == target) != negate;
              ASSERT_EQ(MaskBit(mask, i), expect)
                  << LevelName(level) << " n=" << n << " row=" << i;
            }
            for (std::size_t i = n; i < kBlockRows; ++i) {
              ASSERT_FALSE(MaskBit(mask, i));
            }
          }
        }
      }
    }
  }
  db::exec::ClearSimdOverride();
}

TEST(CodeTableMaskTest, MatchesOracleIncludingOutOfTableCodes) {
  std::mt19937_64 rng(7);
  for (SimdLevel level : TestableLevels()) {
    db::exec::SetSimdOverride(level);
    for (std::size_t n : kAdversarialSizes) {
      const std::uint32_t table_size = 6;
      std::vector<std::uint8_t> table(table_size);
      for (auto& b : table) b = rng() % 2;
      std::vector<std::uint32_t> codes(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        const auto r = rng() % 10;
        // Codes beyond table_size (a fresher dictionary than the table)
        // must test as no-match before negation.
        codes[i] = r < 2 ? ColumnStore::kNullCode
                         : static_cast<std::uint32_t>(rng() % (table_size + 3));
      }
      for (bool negate : {false, true}) {
        for (bool null_matches : {false, true}) {
          SelMask mask;
          CodeTableMask(codes.data(), table.data(), table_size, negate,
                        null_matches, /*base=*/0, n, &mask);
          for (std::size_t i = 0; i < n; ++i) {
            const bool hit =
                codes[i] < table_size && table[codes[i]] != 0;
            const bool expect = codes[i] == ColumnStore::kNullCode
                                    ? null_matches
                                    : hit != negate;
            ASSERT_EQ(MaskBit(mask, i), expect)
                << LevelName(level) << " n=" << n << " row=" << i;
          }
        }
      }
    }
  }
  db::exec::ClearSimdOverride();
}

TEST(EmitRowsTest, AscendingAndComplete) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    SelMask mask;
    mask.Clear();
    RowSet expect;
    const RowId base = static_cast<RowId>((rng() % 4) * kBlockRows);
    for (std::size_t i = 0; i < kBlockRows; ++i) {
      if (rng() % 5 == 0) {
        mask.words[i / 64] |= std::uint64_t{1} << (i % 64);
        expect.push_back(base + static_cast<RowId>(i));
      }
    }
    RowSet out;
    EXPECT_EQ(EmitRows(mask, base, &out), expect.size());
    EXPECT_EQ(out, expect);
    EXPECT_EQ(mask.Count(), expect.size());
    EXPECT_EQ(mask.AnySet(), !expect.empty());
  }
  SelMask empty;
  empty.Clear();
  RowSet out;
  EXPECT_EQ(EmitRows(empty, 0, &out), 0u);
  EXPECT_TRUE(out.empty());
}

// ---- LazyRowSet: bitmap/vector algebra == sorted-set semantics ------------

RowSet RandomSubset(std::mt19937_64& rng, std::size_t universe,
                    std::size_t density_divisor) {
  RowSet out;
  if (density_divisor == 0) return out;
  for (RowId r = 0; r < universe; ++r) {
    if (rng() % density_divisor == 0) out.push_back(r);
  }
  return out;
}

LazyRowSet MakeLazy(const RowSet& rows, std::size_t universe, bool dense) {
  if (dense) {
    return LazyRowSet::FromBitmap(RowBitmap::FromSet(rows, universe));
  }
  return LazyRowSet::FromRows(rows);
}

TEST(LazyRowSetTest, AlgebraMatchesSetSemanticsInEveryRepresentation) {
  std::mt19937_64 rng(4242);
  for (std::size_t universe : {std::size_t{1}, std::size_t{64},
                               std::size_t{100}, std::size_t{3000}}) {
    // Densities from near-empty to near-full so both the sparse merge and
    // the word-parallel path run, whatever representation came in.
    for (std::size_t div_a : {std::size_t{1}, std::size_t{2}, std::size_t{50},
                              std::size_t{0}}) {
      for (std::size_t div_b :
           {std::size_t{1}, std::size_t{3}, std::size_t{80}}) {
        const RowSet a = RandomSubset(rng, universe, div_a);
        const RowSet b = RandomSubset(rng, universe, div_b);
        const RowSet want_and = db::exec::IntersectSets(a, b, universe);
        const RowSet want_or = db::exec::UnionSets(a, b, universe);
        RowSet all(universe);
        for (RowId r = 0; r < universe; ++r) all[r] = r;
        const RowSet want_not = db::exec::DifferenceSets(all, a, universe);

        for (bool dense_a : {false, true}) {
          for (bool dense_b : {false, true}) {
            LazyRowSet x = MakeLazy(a, universe, dense_a);
            x.IntersectWith(MakeLazy(b, universe, dense_b), universe);
            EXPECT_EQ(x.Count(), want_and.size());
            EXPECT_EQ(std::move(x).ToRows(), want_and)
                << universe << " " << dense_a << dense_b;

            LazyRowSet y = MakeLazy(a, universe, dense_a);
            y.UnionWith(MakeLazy(b, universe, dense_b), universe);
            EXPECT_EQ(std::move(y).ToRows(), want_or)
                << universe << " " << dense_a << dense_b;
          }
          LazyRowSet z = MakeLazy(a, universe, dense_a);
          z.ComplementWithin(universe);
          EXPECT_EQ(std::move(z).ToRows(), want_not)
              << universe << " " << dense_a;
        }
      }
    }
  }
}

// ---- world-backed differentials -------------------------------------------

// ------------------------------------------ Filter over a sparse child

/// 32768 rows of (make, color). make = 'ford' on every 25th row (1311 rows
/// over all 32 blocks, 1/25 of each: below the 1/16 fill), 'honda' on the
/// rest of rows [0, 2048) (1966 rows packed into 2 blocks), 'toyota'
/// elsewhere. color cycles NULL / 'blue' / 'red', so a != residual must
/// keep the NULL rows (only negations match NULL).
db::Table FilterRuleTable() {
  auto attr = [](const char* name) {
    db::Attribute a;
    a.name = name;
    a.attr_type = db::AttrType::kTypeI;
    a.data_kind = db::DataKind::kCategorical;
    return a;
  };
  db::Table table(db::Schema("cars", {attr("make"), attr("color")}));
  for (RowId r = 0; r < 32768; ++r) {
    const char* make = r % 25 == 5 ? "ford" : r < 2048 ? "honda" : "toyota";
    db::Value color = r % 3 == 0   ? db::Value::Null()
                      : r % 3 == 1 ? db::Value::Text("blue")
                                   : db::Value::Text("red");
    EXPECT_TRUE(table.Insert({db::Value::Text(make), color}).ok());
  }
  table.BuildIndexes();
  return table;
}

/// Filter(color != 'blue') over IndexScan(make = `make`): the plan's rows
/// must equal the seed Executor's for make = `make` AND color != 'blue',
/// and keep the NULL-colored rows. Returns the plan run's stats.
db::ExecStats ExpectFilterParity(const db::Table& table, const char* make) {
  auto pred = [](std::size_t attr, CompareOp op, const char* value) {
    db::Predicate p;
    p.attr = attr;
    p.op = op;
    p.value = db::Value::Text(value);
    return p;
  };
  const db::Predicate make_eq = pred(0, CompareOp::kEq, make);
  const db::Predicate color_ne = pred(1, CompareOp::kNe, "blue");
  std::vector<db::exec::CompiledPredicate> residuals;
  residuals.push_back(db::exec::CompilePredicate(table, color_ne));
  auto root = std::make_unique<db::exec::FilterNode>(
      &table,
      std::make_unique<db::exec::IndexScanNode>(
          &table, db::exec::CompilePredicate(table, make_eq),
          std::vector<std::string>{make}),
      std::move(residuals));
  const db::exec::PhysicalPlan plan(&table, std::move(root), std::nullopt,
                                    table.num_rows());
  db::ExecStats stats;
  auto got = plan.ExecuteRowSet(&stats);
  db::Query q;
  q.where = db::Expr::MakeAnd({db::Expr::MakePredicate(make_eq),
                               db::Expr::MakePredicate(color_ne)});
  q.limit = table.num_rows();
  auto seed = db::ExecuteQuery(table, q);
  EXPECT_TRUE(got.ok() && seed.ok());
  if (!got.ok() || !seed.ok()) return stats;
  EXPECT_EQ(got.value(), seed.value().rows) << make;
  std::size_t null_rows = 0;
  for (RowId r : got.value()) null_rows += table.store().is_null(r, 1);
  EXPECT_GT(null_rows, 0u) << make;
  return stats;
}

TEST(FilterRuleTest, PackedChildTakesBlockMasks) {
  const db::Table table = FilterRuleTable();
  ASSERT_GE(table.hash_index(0)->Lookup("honda").size(), kBlockRows);
  const db::ExecStats st = ExpectFilterParity(table, "honda");
  EXPECT_EQ(st.rows_verified, 0u);  // no per-row Matches() calls
  EXPECT_EQ(st.blocks_visited, 2u);
}

TEST(FilterRuleTest, ScatteredChildStaysRowAtATime) {
  const db::Table table = FilterRuleTable();
  const std::size_t child = table.hash_index(0)->Lookup("ford").size();
  ASSERT_GE(child, kBlockRows);
  const db::ExecStats st = ExpectFilterParity(table, "ford");
  EXPECT_EQ(st.rows_verified, child);
  EXPECT_EQ(st.blocks_visited, 0u);
}

class VectorParityTest : public ::testing::TestWithParam<std::string> {
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

datagen::World* VectorParityTest::world_ = nullptr;

// Plan-level: every compiled plan (main, each unit plan and the fixed-
// fragment plan the N-1 rank pass combines) returns exactly the row set
// the seed Executor computes for the plan's expression, superlative and
// cap stripped.
TEST_P(VectorParityTest, PlansReturnTheSeedExecutorsRowSets) {
  const std::string& domain = GetParam();
  const auto* spec = world_->spec(domain);
  ASSERT_NE(spec, nullptr);
  Rng rng(555);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table(domain), 60, datagen::QuestionGenOptions(), &rng);

  const auto snapshot = world_->engine().snapshot();
  const db::Table& table = *snapshot->runtime(domain)->table;
  std::size_t plans_checked = 0;
  for (const auto& q : questions) {
    auto parsed = world_->engine().Parse(domain, q.text);
    if (!parsed.ok()) continue;
    const core::ParsedQuestion& p = parsed.value();
    // Each plan with the expression it was compiled from.
    std::vector<std::pair<db::exec::PlanPtr, db::ExprPtr>> plans;
    plans.emplace_back(p.plan, p.query.where);
    for (std::size_t u = 0; u < p.unit_plans.size(); ++u) {
      plans.emplace_back(p.unit_plans[u], p.assembled.units[u].expr);
    }
    if (p.fixed_plan != nullptr) {
      plans.emplace_back(p.fixed_plan, db::Expr::MakeAnd(p.assembled.fixed));
    }
    for (const auto& [plan, expr] : plans) {
      if (plan == nullptr) continue;
      db::ExecStats stats;
      auto got = plan->ExecuteRowSet(&stats);
      db::Query raw;
      raw.where = expr;
      raw.limit = table.num_rows();
      auto seed = db::ExecuteQuery(table, raw);
      ASSERT_EQ(got.ok(), seed.ok()) << domain << " '" << q.text << "'";
      if (!got.ok()) continue;
      ASSERT_EQ(got.value(), seed.value().rows)
          << domain << " '" << q.text << "'";
      ++plans_checked;
    }
  }
  EXPECT_GT(plans_checked, 0u) << domain;
}

// Scoring-level: ScoreBlock (packed numeric columns, code-tuple tables over
// the record terms) equals the reference string scorer on every row and
// every dropped unit, bit for bit.
TEST_P(VectorParityTest, ScoreBlockMatchesReferenceScorer) {
  const std::string& domain = GetParam();
  const auto snapshot = world_->engine().snapshot();
  const auto* rt = snapshot->runtime(domain);
  ASSERT_NE(rt, nullptr);
  const auto* spec = world_->spec(domain);

  Rng rng(777);
  auto questions = datagen::GenerateQuestions(
      *spec, *world_->table(domain), 30, datagen::QuestionGenOptions(), &rng);

  const core::SimilarityContext sim = snapshot->MakeSimilarityContext(*rt);
  std::vector<RowId> rows;
  for (RowId row = 0; row < rt->table->num_rows(); ++row) rows.push_back(row);
  std::size_t scored = 0, positive = 0;
  for (const auto& q : questions) {
    auto parsed = world_->engine().Parse(domain, q.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const auto& units = parsed.value().assembled.units;
    if (units.empty()) continue;

    core::SimScorer scorer(rt->table->schema(), units, sim);
    std::vector<double> rank(rows.size()), unit(rows.size());
    for (std::size_t dropped = 0; dropped < units.size(); ++dropped) {
      scorer.ScoreBlock(*rt->table, rows.data(), rows.size(), dropped,
                        rank.data(), unit.data());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const core::PartialScore want = reference::ScorePartialMatch(
            *rt->table, rows[i], units, dropped, sim);
        // Exact: CanonicalAskResultString prints rank_sim to 17 digits,
        // so even a one-ULP drift would break answer byte-parity.
        ASSERT_EQ(rank[i], want.rank_sim)
            << domain << " '" << q.text << "' unit " << dropped << " row "
            << rows[i];
        ASSERT_EQ(unit[i], want.unit_sim)
            << domain << " '" << q.text << "' unit " << dropped << " row "
            << rows[i];
        positive += unit[i] > 0.0;
      }
      ASSERT_EQ(scorer.unit_measure(dropped),
                core::MeasureLabel(rt->table->schema(), units[dropped]));
      scored += rows.size();
    }
  }
  // Not vacuous: rows were scored, and some similarities are positive.
  EXPECT_GT(scored, 0u) << domain;
  EXPECT_GT(positive, 0u) << domain;
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, VectorParityTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& spec : datagen::AllDomainSpecs()) {
        names.push_back(spec.schema.domain());
      }
      return names;
    }()));

}  // namespace
}  // namespace cqads
