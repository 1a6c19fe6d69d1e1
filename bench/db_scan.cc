// Microbench: columnar predicate evaluation (db/exec CompiledPredicate over
// the ColumnStore) vs the seed row-at-a-time Executor::Matches, the
// vectorized block kernels (db/exec/vector_kernels.h) vs both, and the
// cost-aware planned conjunction vs the seed §4.3 Type-rank conjunction.
// Same table, same predicates, answers asserted identical before timing.
// The dense conjunction's block-at-a-time plan speedup over the seed
// Executor is a GATE: below kVectorSpeedupFloor the bench exits nonzero.
//
// Usage: db_scan [rows] [iterations]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "datagen/ads_generator.h"
#include "datagen/domain_spec.h"
#include "db/exec/plan.h"
#include "db/exec/planner.h"
#include "db/exec/vector_kernels.h"
#include "db/executor.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace cqads;

double Secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

db::Predicate TextPred(std::size_t attr, const char* v,
                       db::CompareOp op = db::CompareOp::kEq) {
  db::Predicate p;
  p.attr = attr;
  p.op = op;
  p.value = db::Value::Text(v);
  return p;
}

db::Predicate NumPred(std::size_t attr, db::CompareOp op, double v) {
  db::Predicate p;
  p.attr = attr;
  p.op = op;
  p.value = db::Value::Real(v);
  return p;
}

/// Minimum speedup of the dense planned conjunction below over the seed
/// Executor on the same query; regressing past this fails the bench (and
/// CI's smoke run). It is the 1.5x this gate held over the plan's scalar
/// row-at-a-time loops, scaled by how much slower the seed Executor is than
/// those loops were (1.17-1.25x on a 4-vCPU x86 host): 1.5 x 1.25 ~= 1.9,
/// so changing the denominator does not weaken the gate. Measured speedups
/// run 28-59x.
constexpr double kVectorSpeedupFloor = 1.9;

const char* SimdLevelName(db::exec::SimdLevel l) {
  switch (l) {
    case db::exec::SimdLevel::kAvx2:
      return "avx2";
    case db::exec::SimdLevel::kSse2:
      return "sse2";
    case db::exec::SimdLevel::kScalar:
      return "scalar";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rows =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 20000;
  const std::size_t iters =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 30;

  Rng rng(20111130);
  auto table_result =
      datagen::GenerateAds(*datagen::FindDomainSpec("cars"), rows, &rng);
  if (!table_result.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 table_result.status().ToString().c_str());
    return 1;
  }
  const db::Table& table = table_result.value();
  db::Executor executor(&table);
  db::exec::Planner planner(&table);

  // The scan matrix: categorical equality, shorthand equality, text-list
  // equality, substring, numeric range.
  struct Case {
    const char* name;
    db::Predicate pred;
  };
  const Case cases[] = {
      {"categorical eq", TextPred(0, "honda")},
      {"shorthand eq", TextPred(7, "4dr")},
      {"textlist eq", TextPred(9, "cd player")},
      {"substring", TextPred(9, "player", db::CompareOp::kContains)},
      {"numeric range", NumPred(3, db::CompareOp::kLt, 9000)},
  };

  bench::PrintHeader("db_scan: columnar vs row-at-a-time predicate scan");
  std::printf("rows: %zu, iterations per case: %zu, simd: %s\n",
              table.num_rows(), iters,
              SimdLevelName(db::exec::ActiveSimdLevel()));
  bench::PrintRule();
  std::printf("%-16s %13s %13s %13s %9s\n", "predicate", "row Mrows/s",
              "col Mrows/s", "vec Mrows/s", "vec/col");
  bench::PrintRule();

  bench::BenchJson json("db_scan");
  json.Add("rows", table.num_rows());
  json.Add("iterations", iters);
  json.Add("simd_level", std::string(SimdLevelName(db::exec::ActiveSimdLevel())));

  bool mismatch = false;
  for (const Case& c : cases) {
    const db::exec::CompiledPredicate cp =
        db::exec::CompilePredicate(table, c.pred);
    const db::exec::BlockPredicate bp(table.store(), cp);

    // Answer parity first: seed row path, compiled column path, and the
    // block-kernel mask must agree bit-for-bit on every row.
    std::size_t row_hits = 0;
    for (db::RowId r = 0; r < table.num_rows(); ++r) {
      row_hits += executor.Matches(r, c.pred);
      if (executor.Matches(r, c.pred) != cp.Matches(table.store(), r)) {
        mismatch = true;
      }
    }
    for (std::size_t base = 0; base < table.num_rows();
         base += db::exec::kBlockRows) {
      const std::size_t n =
          std::min(db::exec::kBlockRows, table.num_rows() - base);
      db::exec::SelMask mask;
      bp.EvalBlock(base, n, &mask);
      for (std::size_t i = 0; i < n; ++i) {
        const bool bit = (mask.words[i / 64] >> (i % 64)) & 1u;
        if (bit != cp.Matches(table.store(), base + i)) mismatch = true;
      }
    }

    auto time_scan = [&](auto&& probe) {
      std::size_t sink = 0;
      auto start = Clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        for (db::RowId r = 0; r < table.num_rows(); ++r) sink += probe(r);
      }
      double secs = Secs(Clock::now() - start);
      // Keep the optimizer honest.
      if (sink == std::size_t(-1)) std::printf("!");
      return secs;
    };
    // The block-kernel pass counts selected rows per block mask instead of
    // probing row-by-row; same work unit (rows scanned per iteration).
    auto time_blocks = [&] {
      std::size_t sink = 0;
      auto start = Clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        for (std::size_t base = 0; base < table.num_rows();
             base += db::exec::kBlockRows) {
          const std::size_t n =
              std::min(db::exec::kBlockRows, table.num_rows() - base);
          db::exec::SelMask mask;
          bp.EvalBlock(base, n, &mask);
          sink += mask.Count();
        }
      }
      double secs = Secs(Clock::now() - start);
      if (sink == std::size_t(-1)) std::printf("!");
      return secs;
    };

    double row_secs =
        time_scan([&](db::RowId r) { return executor.Matches(r, c.pred); });
    double col_secs =
        time_scan([&](db::RowId r) { return cp.Matches(table.store(), r); });
    double vec_secs = time_blocks();
    const double total =
        static_cast<double>(table.num_rows() * iters) / 1e6;
    std::printf("%-16s %13.2f %13.2f %13.2f %8.2fx   (hits=%zu)\n", c.name,
                total / row_secs, total / col_secs, total / vec_secs,
                col_secs / vec_secs, row_hits);
    const double scans = static_cast<double>(table.num_rows() * iters);
    std::string key(c.name);
    for (char& ch : key) {
      if (ch == ' ') ch = '_';
    }
    json.Add("row_scan_ns_per_row_" + key, row_secs * 1e9 / scans);
    json.Add("col_scan_ns_per_row_" + key, col_secs * 1e9 / scans);
    json.Add("vec_scan_ns_per_row_" + key, vec_secs * 1e9 / scans);
  }

  // Conjunction: planner order vs seed Type-rank order.
  db::Query q;
  q.where = db::Expr::MakeAnd(
      {db::Expr::MakePredicate(TextPred(0, "honda")),
       db::Expr::MakePredicate(TextPred(5, "blue")),
       db::Expr::MakePredicate(NumPred(3, db::CompareOp::kLt, 7000))});
  q.limit = table.num_rows();

  auto seed_res = executor.Execute(q);
  auto plan_res = planner.Run(q);
  if (!seed_res.ok() || !plan_res.ok() ||
      seed_res.value().rows != plan_res.value().rows) {
    mismatch = true;
  }

  auto time_exec = [&](auto&& run) {
    auto start = Clock::now();
    std::size_t sink = 0;
    for (std::size_t i = 0; i < iters * 4; ++i) sink += run().value().rows.size();
    if (sink == std::size_t(-1)) std::printf("!");
    return Secs(Clock::now() - start);
  };
  double seed_secs = time_exec([&] { return executor.Execute(q); });
  auto plan = planner.Compile(q).value();
  double plan_secs = time_exec([&] { return plan->Execute(); });

  // Dense numeric conjunction: low-selectivity ranges drive the planner
  // into the block-at-a-time path end to end (dense RangeScan bitmap +
  // mask-folded residual filter), which is where the vector kernels must
  // earn their keep against the seed row-at-a-time Executor. Row sets
  // asserted identical before timing; the speedup is gated.
  db::Query dense;
  dense.where = db::Expr::MakeAnd(
      {db::Expr::MakePredicate(NumPred(3, db::CompareOp::kLt, 1e9)),
       db::Expr::MakePredicate(NumPred(2, db::CompareOp::kGt, 1900)),
       db::Expr::MakePredicate(NumPred(4, db::CompareOp::kLt, 1e9))});
  dense.limit = table.num_rows();
  auto dense_plan = planner.Compile(dense).value();
  auto dense_vec = dense_plan->Execute();
  auto dense_seed = executor.Execute(dense);
  if (!dense_vec.ok() || !dense_seed.ok() ||
      dense_vec.value().rows != dense_seed.value().rows) {
    mismatch = true;
  }
  const double dense_seed_secs =
      time_exec([&] { return executor.Execute(dense); });
  const double dense_vec_secs =
      time_exec([&] { return dense_plan->Execute(); });
  const double vector_speedup = dense_seed_secs / dense_vec_secs;

  bench::PrintRule();
  const double per_iter = 1000.0 / static_cast<double>(iters * 4);
  std::printf("conjunction (make+color+price): seed %.3f ms, planned %.3f "
              "ms, speedup %.2fx, rows=%zu\n",
              seed_secs * per_iter, plan_secs * per_iter,
              seed_secs / plan_secs, seed_res.value().rows.size());
  std::printf("dense conjunction (year+price+mileage): seed %.3f ms, "
              "vectorized %.3f ms, speedup %.2fx (floor %.1fx), rows=%zu\n",
              dense_seed_secs * per_iter, dense_vec_secs * per_iter,
              vector_speedup, kVectorSpeedupFloor,
              dense_vec.value().rows.size());
  std::printf("plan:\n%s", plan->Explain().c_str());
  bench::PrintRule();

  json.Add("conjunction_seed_ms", seed_secs * per_iter);
  json.Add("conjunction_planned_ms", plan_secs * per_iter);
  json.Add("dense_conjunction_seed_ms", dense_seed_secs * per_iter);
  json.Add("dense_conjunction_vector_ms", dense_vec_secs * per_iter);
  json.Add("vector_conjunction_speedup", vector_speedup);
  json.Add("mismatch", static_cast<std::size_t>(mismatch ? 1 : 0));
  json.Write();

  if (mismatch) {
    std::printf("FAIL: columnar path disagrees with the seed executor\n");
    return 1;
  }
  if (vector_speedup < kVectorSpeedupFloor) {
    std::printf("FAIL: vectorized dense conjunction only %.2fx over the seed "
                "executor (floor %.1fx)\n",
                vector_speedup, kVectorSpeedupFloor);
    return 1;
  }
  std::printf("all columnar answers identical to the seed executor\n");
  return 0;
}
