// Parse/rank-side microbench for the interned-term substrate: per-stage
// timings (classify/tag/conditions/rank, ...) and cold-parse throughput of
// the full ask path vs the reference oracle (reference/reference_ask.h,
// whose partial ranking runs the seed string-keyed Eq. 5 scoring), the
// §4.1.3 trie footprint comparison (flat node arrays vs the reference
// pointer tree), and
// regression assertions pinning that WS/TI MostSimilar stays an O(degree)
// row scan instead of the seed's O(total pairs) full-map scan.
//
// Cold-parse means every question runs the whole parse pipeline — no
// prepared-query cache — which is exactly where per-call stemming and
// string-keyed similarity lookups used to burn time.
//
// Exits non-zero when the MostSimilar row-scan regression guard trips.
// Emits BENCH_parse_rank.json for the CI perf-artifact trajectory.
//
// Usage: parse_rank [--quick]
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ask_types.h"
#include "core/pipeline.h"
#include "core/rank_sim.h"
#include "eval/experiments.h"
#include "qlog/ti_matrix.h"
#include "reference/keyword_trie.h"
#include "reference/reference_ask.h"
#include "text/term_dict.h"
#include "wordsim/ws_matrix.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed's MostSimilar data structure and algorithm, reconstructed: a
/// lexicographic string-pair map scanned IN FULL per call with a string
/// compare per entry. The regression gate times the CSR row scan against
/// this — if MostSimilar ever regresses to a full scan, the two converge.
using SeedPairMap = std::map<std::pair<std::string, std::string>, double>;

template <typename Matrix>
SeedPairMap BuildSeedMap(const Matrix& m, const cqads::text::TermDict& dict) {
  SeedPairMap out;
  for (std::size_t a = 0; a < dict.size(); ++a) {
    const auto probe = static_cast<cqads::text::TermId>(a);
    for (const auto& [term, sim] : m.MostSimilarById(probe, dict.size())) {
      if (dict.term(probe) < term) out[{dict.term(probe), term}] = sim;
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> SeedMostSimilar(
    const SeedPairMap& sims, const std::string& word, std::size_t limit) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [key, sim] : sims) {
    if (key.first == word) {
      out.emplace_back(key.second, sim);
    } else if (key.second == word) {
      out.emplace_back(key.first, sim);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
    if (x.second != y.second) return x.second > y.second;
    return x.first < y.first;
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cqads;
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  auto world = bench::BuildPaperWorld();
  auto questions = eval::GenerateSurveyQuestions(
      *world, quick ? 20 : 80, quick ? 20 : 82, 660);

  std::vector<std::pair<std::string, std::string>> stream;  // domain, text
  for (const auto& [domain, qs] : questions) {
    for (const auto& q : qs) stream.emplace_back(domain, q.text);
  }

  // ---- cold-parse throughput + per-stage timings vs the reference ------
  // Warmup absorbs one-time costs (pipeline singletons, allocator).
  for (const auto& [domain, text] : stream) {
    (void)world->engine().AskInDomain(domain, text);
  }

  const auto snapshot = world->engine().snapshot();
  auto start = Clock::now();
  for (const auto& [domain, text] : stream) {
    (void)reference::ReferenceAskInDomain(*snapshot, domain, text);
  }
  const double reference_secs = Seconds(start);

  std::map<std::string, double> stage_micros;  // production run
  start = Clock::now();
  for (const auto& [domain, text] : stream) {
    auto r = world->engine().AskInDomain(domain, text);
    if (!r.ok()) continue;
    for (const auto& t : r.value().timings) stage_micros[t.stage] += t.micros;
  }
  const double substrate_secs = Seconds(start);

  const double reference_qps = stream.size() / reference_secs;
  const double substrate_qps = stream.size() / substrate_secs;

  bench::PrintHeader("cold-parse ask throughput (no prepared cache)");
  std::printf("questions: %zu\n", stream.size());
  std::printf("reference oracle        : %8.1f q/s\n", reference_qps);
  std::printf("interned term substrate : %8.1f q/s   speedup %.2fx\n",
              substrate_qps, reference_secs / substrate_secs);

  bench::PrintHeader("per-stage time (production run)");
  bench::PrintRule();
  for (const auto& [stage, micros] : stage_micros) {
    std::printf("%-12s %12.2f us/query  %10.1f ms total\n", stage.c_str(),
                micros / stream.size(), micros / 1000.0);
  }
  bench::PrintRule();

  // ---- batched Eq. 5 ranking: ScoreBlock vs per-row Score ---------------
  // Cold full-table rank sweeps (every N-1 drop over every row), the rank
  // stage's workload when a question's exact answers run dry. Both sides
  // start a FRESH SimScorer per question, so each starts from empty code
  // tables (the table's record terms are built before the timed loops, by
  // MakeSimilarityContext). Both score by dictionary code: per-row Score is
  // ScoreBlock on one row plus a copy of the unit's measure label into
  // its PartialScore, so the batched path wins by paying the per-call
  // set-up and the label once per block instead of once per row.
  double perrow_rank_secs = 0.0, batched_rank_secs = 0.0;
  std::size_t ranked_questions = 0, ranked_scores = 0;
  {
    const auto snapshot = world->engine().snapshot();
    double sink = 0.0;
    for (const auto& [domain, text] : stream) {
      auto parsed = world->engine().Parse(domain, text);
      if (!parsed.ok()) continue;
      const auto& units = parsed.value().assembled.units;
      if (units.empty()) continue;
      const auto* rt = snapshot->runtime(domain);
      const core::SimilarityContext sim = snapshot->MakeSimilarityContext(*rt);
      const std::size_t rows = rt->table->num_rows();
      std::vector<db::RowId> ids(rows);
      std::iota(ids.begin(), ids.end(), db::RowId{0});
      std::vector<double> rank(rows), unit(rows);
      ++ranked_questions;
      ranked_scores += rows * units.size();
      {
        core::SimScorer scorer(rt->table->schema(), units, sim);
        auto t = Clock::now();
        for (std::size_t dropped = 0; dropped < units.size(); ++dropped) {
          for (db::RowId row = 0; row < rows; ++row) {
            sink += scorer.Score(*rt->table, row, dropped).rank_sim;
          }
        }
        perrow_rank_secs += Seconds(t);
      }
      {
        core::SimScorer scorer(rt->table->schema(), units, sim);
        auto t = Clock::now();
        for (std::size_t dropped = 0; dropped < units.size(); ++dropped) {
          scorer.ScoreBlock(*rt->table, ids.data(), rows, dropped,
                            rank.data(), unit.data());
          sink += rank[0];
        }
        batched_rank_secs += Seconds(t);
      }
    }
    if (sink == -1.0) std::printf("!");
  }
  const double rank_perrow_qps = ranked_questions / perrow_rank_secs;
  const double rank_batched_qps = ranked_questions / batched_rank_secs;
  const double rank_batch_speedup = perrow_rank_secs / batched_rank_secs;
  bench::PrintHeader("cold full-table rank sweep (Eq. 5, all N-1 drops)");
  std::printf("questions: %zu, unit-row scores: %zu\n", ranked_questions,
              ranked_scores);
  std::printf("per-row Score           : %8.1f q/s\n", rank_perrow_qps);
  std::printf("batched ScoreBlock      : %8.1f q/s   speedup %.2fx\n",
              rank_batched_qps, rank_batch_speedup);

  // ---- trie footprint: flat node arrays vs pointer tree (§4.1.3) --------
  // The pointer tree is the reference KeywordTrie over the same (keyword,
  // handle) pairs: handle h of a lexicon is its keyword entry(h).value.
  std::size_t flat_bytes = 0, pointer_bytes = 0, nodes = 0, keywords = 0;
  for (const auto& domain : world->domains()) {
    const core::DomainLexicon& lexicon =
        *world->engine().runtime(domain)->lexicon;
    reference::KeywordTrie pointer_tree;
    for (std::size_t h = 0; h < lexicon.entry_count(); ++h) {
      const auto handle = static_cast<std::int32_t>(h);
      pointer_tree.Insert(lexicon.entry(handle).value, handle);
    }
    flat_bytes += lexicon.flat_trie().MemoryBytes();
    pointer_bytes += pointer_tree.ApproxMemoryBytes();
    nodes += lexicon.flat_trie().node_count();
    keywords += lexicon.flat_trie().size();
  }
  bench::PrintHeader("trie footprint (all 8 domains)");
  std::printf("keywords: %zu   nodes: %zu\n", keywords, nodes);
  std::printf("pointer tree (approx)   : %10.1f KiB\n", pointer_bytes / 1024.0);
  std::printf("flat node arrays        : %10.1f KiB   (%.1fx smaller)\n",
              flat_bytes / 1024.0,
              static_cast<double>(pointer_bytes) / flat_bytes);

  // ---- MostSimilar row-scan regression guard ----------------------------
  // The seed stored a lexicographic string-pair std::map and MostSimilar
  // scanned ALL of it with a string compare per entry. Rebuild exactly that
  // structure, run the seed algorithm on it, and require the CSR row scan
  // to beat it decisively. A regression back to a full scan converges the
  // two times and trips the gate.
  const wordsim::WsMatrix& ws = world->ws_matrix();
  const std::size_t vocab = ws.vocabulary_size();
  std::mt19937 rng(4242);
  std::vector<text::TermId> probes;
  for (int i = 0; i < 400; ++i) {
    probes.push_back(static_cast<text::TermId>(rng() % vocab));
  }

  const SeedPairMap ws_seed_map = BuildSeedMap(ws, ws.term_dict());
  auto t0 = Clock::now();
  std::size_t csr_items = 0;
  for (text::TermId p : probes) csr_items += ws.MostSimilarById(p, 10).size();
  const double csr_secs = Seconds(t0);

  t0 = Clock::now();
  std::size_t seed_items = 0;
  for (text::TermId p : probes) {
    seed_items +=
        SeedMostSimilar(ws_seed_map, ws.term_dict().term(p), 10).size();
  }
  const double seed_scan_secs = Seconds(t0);

  bench::PrintHeader("WS MostSimilar: CSR row scan vs seed full-map scan");
  std::printf("vocab: %zu stems, %zu pairs, max row degree %zu\n", vocab,
              ws.pair_count(), ws.MaxRowDegree());
  std::printf("CSR rows      : %10.2f us/call (%zu results)\n",
              1e6 * csr_secs / probes.size(), csr_items);
  std::printf("seed map scan : %10.2f us/call (%zu results)\n",
              1e6 * seed_scan_secs / probes.size(), seed_items);

  // TI: same guard on the largest domain matrix.
  double ti_csr_secs = 0.0, ti_seed_secs = 0.0;
  {
    const qlog::TiMatrix* ti = nullptr;
    for (const auto& domain : world->domains()) {
      const auto* rt = world->engine().runtime(domain);
      if (ti == nullptr || rt->ti_matrix->value_count() > ti->value_count()) {
        ti = rt->ti_matrix.get();
      }
    }
    const std::size_t values = ti->value_count();
    const SeedPairMap ti_seed_map = BuildSeedMap(*ti, ti->term_dict());
    std::vector<text::TermId> ti_probes;
    for (int i = 0; i < 400; ++i) {
      ti_probes.push_back(static_cast<text::TermId>(rng() % values));
    }
    t0 = Clock::now();
    std::size_t items = 0;
    for (text::TermId p : ti_probes) items += ti->MostSimilarById(p, 10).size();
    ti_csr_secs = Seconds(t0);
    t0 = Clock::now();
    std::size_t seed_ti_items = 0;
    for (text::TermId p : ti_probes) {
      seed_ti_items +=
          SeedMostSimilar(ti_seed_map, ti->term_dict().term(p), 10).size();
    }
    ti_seed_secs = Seconds(t0);
    bench::PrintHeader("TI MostSimilar: CSR row scan vs seed full-map scan");
    std::printf("values: %zu, pairs: %zu\n", values, ti->pair_count());
    std::printf("CSR rows      : %10.2f us/call (%zu results)\n",
                1e6 * ti_csr_secs / ti_probes.size(), items);
    std::printf("seed map scan : %10.2f us/call (%zu results)\n",
                1e6 * ti_seed_secs / ti_probes.size(), seed_ti_items);
  }

  bench::BenchJson json("parse_rank");
  json.Add("questions", stream.size());
  json.Add("reference_qps", reference_qps);
  json.Add("substrate_qps", substrate_qps);
  json.Add("substrate_speedup", reference_secs / substrate_secs);
  for (const auto& [stage, micros] : stage_micros) {
    json.Add("stage_us_" + stage, micros / stream.size());
  }
  json.Add("rank_perrow_qps", rank_perrow_qps);
  json.Add("rank_batched_qps", rank_batched_qps);
  json.Add("rank_batch_speedup", rank_batch_speedup);
  json.Add("trie_flat_bytes", flat_bytes);
  json.Add("trie_pointer_bytes", pointer_bytes);
  json.Add("trie_nodes", nodes);
  json.Add("trie_keywords", keywords);
  json.Add("ws_mostsimilar_csr_us", 1e6 * csr_secs / probes.size());
  json.Add("ws_mostsimilar_seed_scan_us", 1e6 * seed_scan_secs / probes.size());
  json.Add("ti_mostsimilar_csr_us", 1e6 * ti_csr_secs / 400);
  json.Add("ti_mostsimilar_seed_scan_us", 1e6 * ti_seed_secs / 400);
  json.Write();

  // Regression gates. The margin is deliberately coarse (2x) against timer
  // noise: the seed scan touches every stored pair per call while the CSR
  // path touches one row, so a genuine regression collapses the gap to ~1x.
  bool failed = false;
  // Cold-parse floor: the 1.1x this gate held over the serving path with
  // the seed string substrate, scaled by how much slower the reference is
  // than that path was (1.16-1.64x on a 4-vCPU x86 host): 1.1 x 1.64 ~= 1.8,
  // so changing the denominator does not weaken the gate. Measured
  // speedups run 2.8-3.8x; a drop below the floor means the id paths or
  // the top-k rank stopped paying for themselves (e.g. per-candidate
  // stemming crept back into SimScorer).
  constexpr double kColdParseFloor = 1.8;
  if (reference_secs / substrate_secs < kColdParseFloor) {
    std::printf(
        "FAIL: cold-parse speedup %.2fx over the reference below the %.1fx "
        "regression floor (reference %.0f q/s, production %.0f q/s)\n",
        reference_secs / substrate_secs, kColdParseFloor, reference_qps,
        substrate_qps);
    failed = true;
  }
  // Cold-rank floor: both sides compute one similarity per distinct code
  // tuple, but per-row Score pays ScoreBlock's per-call set-up and a label
  // copy on every row, so the batched sweep measures ~3.6x on a 4-vCPU x86
  // host; 1.2x only trips when batching stops paying (e.g. per-call work
  // crept into the block's row loop).
  if (rank_batch_speedup < 1.2) {
    std::printf(
        "FAIL: batched ScoreBlock rank sweep only %.2fx over per-row Score "
        "(floor 1.2x; per-row %.0f q/s, batched %.0f q/s)\n",
        rank_batch_speedup, rank_perrow_qps, rank_batched_qps);
    failed = true;
  }
  if (csr_secs * 2.0 >= seed_scan_secs) {
    std::printf(
        "FAIL: WS MostSimilar no faster than the seed full-map scan "
        "(csr=%.1fus scan=%.1fus) — the O(total pairs) scan is back\n",
        1e6 * csr_secs / probes.size(),
        1e6 * seed_scan_secs / probes.size());
    failed = true;
  }
  if (ti_csr_secs * 2.0 >= ti_seed_secs) {
    std::printf(
        "FAIL: TI MostSimilar no faster than the seed full-map scan "
        "(csr=%.1fus scan=%.1fus)\n",
        1e6 * ti_csr_secs / 400, 1e6 * ti_seed_secs / 400);
    failed = true;
  }
  return failed ? 1 : 0;
}
