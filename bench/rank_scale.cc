// Rank-stage scaling: partial ranking over a >=100k-row domain, the
// serving path's pruned serial top-k rank against the reference oracle
// (reference/reference_ask.h: one seed-executor query per N-1 relaxation,
// string-keyed Eq. 5 scoring of every candidate, full sort).
//
// The table is generated clustered — rows grouped by (make, model), prices
// ascending within a group — the shape real ad feeds have (listings arrive
// batched by seller and segment), and the shape block-max pruning exploits:
// a 1024-row block then covers a narrow slice of the score-relevant value
// range, so blocks are visited best bound first and, once the top-k
// threshold rises, whole blocks bound below it and are skipped unscored.
// Questions are numeric-target and N-1 shapes whose exact answer set is
// (near) empty, so every ask runs the §4.3.1 partial-ranking stage over the
// full table.
//
// The first iteration is timed on its own: it starts from the table's
// empty fragment memo (db/exec/fragment_memo.h), so every relaxation
// fragment's plan runs, while later iterations read the memo. The gate
// holds on that cold first iteration.
//
// Gates (CI): cold pruned serial speedup >= 3.4x over the reference,
// nonzero skipped blocks, and byte-identical answers between the two.
// Non-zero exit on any violation. Emits BENCH_rank_scale.json.
//
// Usage: rank_scale [--quick]
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/ask_types.h"
#include "core/cqads_engine.h"
#include "db/schema.h"
#include "db/table.h"
#include "qlog/ti_matrix.h"
#include "reference/reference_ask.h"

namespace {

using namespace cqads;

db::Schema CarSchema() {
  using db::AttrType;
  using db::Attribute;
  using db::DataKind;
  auto cat = [](std::string name, AttrType t,
                std::vector<std::string> aliases = {}) {
    Attribute a;
    a.name = std::move(name);
    a.attr_type = t;
    a.data_kind = DataKind::kCategorical;
    a.aliases = std::move(aliases);
    return a;
  };
  db::Attribute year;
  year.name = "year";
  year.attr_type = AttrType::kTypeIII;
  year.data_kind = DataKind::kNumeric;
  year.aliases = {"year"};
  db::Attribute price;
  price.name = "price";
  price.attr_type = AttrType::kTypeIII;
  price.data_kind = DataKind::kNumeric;
  price.unit_keywords = {"dollars", "dollar", "usd"};
  price.aliases = {"price", "cost"};
  db::Attribute mileage;
  mileage.name = "mileage";
  mileage.attr_type = AttrType::kTypeIII;
  mileage.data_kind = DataKind::kNumeric;
  mileage.unit_keywords = {"miles", "mi"};
  mileage.aliases = {"mileage"};
  db::Attribute features;
  features.name = "features";
  features.attr_type = AttrType::kTypeII;
  features.data_kind = DataKind::kTextList;
  return db::Schema("cars",
                    {cat("make", AttrType::kTypeI, {"maker"}),
                     cat("model", AttrType::kTypeI), year, price, mileage,
                     cat("color", AttrType::kTypeII, {"color"}),
                     cat("transmission", AttrType::kTypeII),
                     cat("doors", AttrType::kTypeII),
                     cat("drivetrain", AttrType::kTypeII), features});
}

/// Clustered fleet: (make, model) groups in sequence, prices ascending
/// inside each group's band, the categorical attributes cycling.
db::Table BuildFleet(std::size_t rows) {
  struct MakeModel {
    const char* make;
    const char* model;
  };
  static constexpr MakeModel kPairs[] = {
      {"honda", "accord"},  {"honda", "civic"},   {"toyota", "camry"},
      {"toyota", "corolla"}, {"ford", "focus"},   {"ford", "mustang"},
      {"chevy", "malibu"},  {"bmw", "m3"},        {"mazda", "mazda3"},
      {"jeep", "cherokee"},
  };
  static constexpr const char* kColors[] = {"blue", "red",    "white", "black",
                                            "silver", "green", "gold"};
  static constexpr const char* kFeatures[] = {
      "cd player;power steering", "gps;leather seats", "bluetooth;usb",
      "cruise control", "backup camera;sunroof"};
  constexpr std::size_t kNumPairs = sizeof(kPairs) / sizeof(kPairs[0]);

  db::Table table(CarSchema());
  Rng rng(20111130);
  const std::size_t per_pair = rows / kNumPairs;
  for (std::size_t p = 0; p < kNumPairs; ++p) {
    const double band_lo = 2000.0 + 4000.0 * static_cast<double>(p);
    const std::size_t n = p + 1 == kNumPairs ? rows - per_pair * p : per_pair;
    for (std::size_t i = 0; i < n; ++i) {
      const double frac = static_cast<double>(i) / static_cast<double>(n);
      db::Record r;
      r.push_back(db::Value::Text(kPairs[p].make));
      r.push_back(db::Value::Text(kPairs[p].model));
      r.push_back(db::Value::Real(
          2000.0 + static_cast<double>(rng.UniformInt(0, 12))));
      // Ascending within the band, cents jitter keeping values unique-ish
      // (so numeric-target questions have ~no exact matches and partial
      // ranking always triggers).
      r.push_back(db::Value::Real(band_lo + 4000.0 * frac +
                                  rng.UniformReal(0.0, 0.99)));
      r.push_back(db::Value::Real(
          static_cast<double>(rng.UniformInt(10, 180)) * 1000.0));
      r.push_back(db::Value::Text(kColors[i % 7]));
      r.push_back(db::Value::Text(i % 3 == 0 ? "manual" : "automatic"));
      r.push_back(db::Value::Text(i % 2 == 0 ? "4 door" : "2 door"));
      r.push_back(db::Value::Text(i % 5 == 0 ? "4 wheel drive"
                                             : "2 wheel drive"));
      r.push_back(db::Value::Text(kFeatures[i % 5]));
      if (!table.Insert(std::move(r)).ok()) std::abort();
    }
  }
  table.BuildIndexes();
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::size_t rows = quick ? 40000 : 150000;
  const std::size_t iters = quick ? 2 : 3;

  db::Table table = BuildFleet(rows);
  auto make_engine = [&]() {
    auto engine = std::make_unique<core::CqadsEngine>();
    if (!engine->AddDomain(&table, qlog::TiMatrix()).ok()) {
      std::fprintf(stderr, "AddDomain failed\n");
      std::exit(1);
    }
    return engine;
  };

  // Single-condition numeric targets (every live row a candidate) plus
  // N-1 shapes with one heavy relaxation pass; every target is chosen to
  // have ~zero exact matches so the rank stage runs over the whole domain.
  const std::vector<std::string> candidates = {
      "3000 dollars",
      "9000 dollars",
      "17500 dollars",
      "26000 dollars",
      "41000 dollars",
      "150 dollars",
      "honda civic 9000 dollars",
      "toyota camry 11500 dollars",
      "bmw m3 31000 dollars",
      "blue mazda mazda3 36000 dollars",
  };

  // Keep only the questions whose ask actually exercised the top-k rank
  // sweep (exact answers below the partial trigger). A probe engine asks
  // them, so the timed engine's fragment memo starts empty.
  std::vector<std::string> questions;
  {
    const auto probe = make_engine();
    for (const auto& q : candidates) {
      auto r = probe->AskInDomain("cars", q);
      if (!r.ok()) continue;
      if (r.value().stats.rank_blocks_visited +
              r.value().stats.rank_blocks_skipped >
          0) {
        questions.push_back(q);
      }
    }
  }
  if (questions.empty()) {
    std::fprintf(stderr, "FAIL: no rank-triggering questions survived\n");
    return 1;
  }
  const auto engine = make_engine();

  // `ask` answers every question `passes` times; the answers and any
  // ExecStats are kept.
  auto ask_all = [&](auto&& ask, std::size_t passes,
                     std::vector<std::string>* canon, db::ExecStats* stats) {
    auto start = Clock::now();
    for (std::size_t it = 0; it < passes; ++it) {
      for (const auto& q : questions) {
        Result<core::AskResult> r = ask(q);
        if (!r.ok()) {
          canon->push_back("ERROR: " + r.status().ToString());
          continue;
        }
        if (stats != nullptr) *stats += r.value().stats;
        canon->push_back(core::CanonicalAskResultString(r.value()));
      }
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  // Reference oracle: full sort of every relaxation's scored candidates.
  std::vector<std::string> reference_answers;
  const auto snapshot = engine->snapshot();
  const double reference_secs = ask_all(
      [&](const std::string& q) {
        return reference::ReferenceAskInDomain(*snapshot, "cars", q);
      },
      iters, &reference_answers, nullptr);

  // Pruned top-k, one thread: the serving path as the daemon runs it. The
  // first iteration fills the fragment memo, the others read it.
  std::vector<std::string> topk_answers;
  db::ExecStats topk_stats;
  auto topk_ask = [&](const std::string& q) {
    return engine->AskInDomain("cars", q);
  };
  const double cold_secs = ask_all(topk_ask, 1, &topk_answers, &topk_stats);
  const double warm_secs =
      ask_all(topk_ask, iters - 1, &topk_answers, &topk_stats);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < reference_answers.size(); ++i) {
    if (reference_answers[i] != topk_answers[i]) ++mismatches;
  }

  const double n = static_cast<double>(questions.size());
  const double reference_ms = 1000.0 * reference_secs / (n * iters);
  const double cold_ms = 1000.0 * cold_secs / n;
  const double warm_ms = 1000.0 * warm_secs / (n * (iters - 1));
  const double topk_ms = 1000.0 * (cold_secs + warm_secs) / (n * iters);
  const double speedup = reference_ms / cold_ms;

  cqads::bench::PrintHeader("rank_scale: pruned top-k vs reference oracle");
  std::printf("rows: %zu   rank questions: %zu   iterations: %zu\n", rows,
              questions.size(), iters);
  std::printf("reference full-sort rank: %8.3f ms/ask\n", reference_ms);
  std::printf("pruned top-k, cold memo : %8.3f ms/ask   speedup %.2fx\n",
              cold_ms, speedup);
  std::printf("pruned top-k, warm memo : %8.3f ms/ask   speedup %.2fx\n",
              warm_ms, reference_ms / warm_ms);
  std::printf("blocks visited=%zu skipped=%zu (%.1f%%)   rows pruned=%zu   "
              "threshold updates=%zu\n",
              topk_stats.rank_blocks_visited, topk_stats.rank_blocks_skipped,
              100.0 * static_cast<double>(topk_stats.rank_blocks_skipped) /
                  static_cast<double>(topk_stats.rank_blocks_visited +
                                      topk_stats.rank_blocks_skipped),
              topk_stats.rank_rows_pruned,
              topk_stats.rank_threshold_updates);
  std::printf("fragment hits=%zu evals=%zu\n", topk_stats.fragment_hits,
              topk_stats.fragment_evals);
  std::printf("answer mismatches vs reference: %zu\n", mismatches);

  cqads::bench::BenchJson json("rank_scale");
  json.Add("rows", rows);
  json.Add("questions", questions.size());
  json.Add("iterations", iters);
  json.Add("reference_ms_per_ask", reference_ms);
  json.Add("topk_ms_per_ask", topk_ms);
  json.Add("topk_cold_ms_per_ask", cold_ms);
  json.Add("topk_warm_ms_per_ask", warm_ms);
  json.Add("speedup", speedup);
  json.Add("rank_blocks_visited", topk_stats.rank_blocks_visited);
  json.Add("rank_blocks_skipped", topk_stats.rank_blocks_skipped);
  json.Add("rank_rows_pruned", topk_stats.rank_rows_pruned);
  json.Add("rank_threshold_updates", topk_stats.rank_threshold_updates);
  json.Add("fragment_hits", topk_stats.fragment_hits);
  json.Add("fragment_evals", topk_stats.fragment_evals);
  json.Add("mismatches", mismatches);
  json.Write();

  // The 1.3x floor this gate held over the serial full-sort rank path,
  // scaled by how much slower the reference is than that path was
  // (1.67-2.55x on a 4-vCPU x86 host): 1.3 x 2.55 ~= 3.4, so changing the
  // denominator does not weaken the gate. It holds on the cold first
  // iteration, whose fragments all run their plans, so the memo's hits
  // cannot carry it.
  constexpr double kSpeedupFloor = 3.4;
  if (mismatches > 0) {
    std::printf("FAIL: %zu answer mismatches vs the reference oracle\n",
                mismatches);
    return 1;
  }
  if (topk_stats.rank_blocks_skipped == 0) {
    std::printf("FAIL: block-max pruning skipped nothing\n");
    return 1;
  }
  if (speedup < kSpeedupFloor) {
    std::printf("FAIL: cold speedup %.2fx below the %.1fx floor\n", speedup,
                kSpeedupFloor);
    return 1;
  }
  return 0;
}
