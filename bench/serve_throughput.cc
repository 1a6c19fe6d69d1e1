// Serving throughput: questions/sec for sequential CqadsEngine::Ask vs the
// ConcurrentServer worker pool, with and without the prepared-query cache.
// The stream replays the survey questions several times with repeats —
// heavy-traffic ad search is dominated by popular recurring questions, the
// workload the prepared-query cache targets. Verifies byte-identical
// answers (CanonicalAskResultString) across all serving modes, and against
// the reference oracle (reference/reference_ask.h: the paper's algorithm
// over the seed Type-rank executor, the baseline every speedup is measured
// against) — any mismatch exits non-zero, which the CI smoke step relies
// on. Emits BENCH_serve_throughput.json for the CI perf artifact.
//
// Usage: serve_throughput [num_workers] [passes]
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ask_types.h"
#include "eval/experiments.h"
#include "reference/reference_ask.h"
#include "serve/concurrent_server.h"

namespace {

using Clock = std::chrono::steady_clock;

double QuestionsPerSec(std::size_t n, Clock::duration elapsed) {
  const double secs = std::chrono::duration<double>(elapsed).count();
  return secs > 0.0 ? static_cast<double>(n) / secs : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cqads;
  const std::size_t num_workers =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 4;
  const std::size_t passes =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 3;

  auto world = bench::BuildPaperWorld();
  const core::CqadsEngine& engine = world->engine();

  auto generated = eval::GenerateSurveyQuestions(*world, 80, 40, 990);
  std::vector<std::string> stream;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const auto& [domain, qs] : generated) {
      for (const auto& q : qs) stream.push_back(q.text);
    }
  }

  // Untimed warmup (allocator, page cache) so the first timed mode does
  // not absorb the cold-start cost on shared machines.
  for (std::size_t i = 0; i < stream.size() / passes; ++i) {
    (void)engine.Ask(stream[i]);
  }

  // Baseline: sequential ReferenceAsk, the seed algorithm end to end.
  const auto snapshot = engine.snapshot();
  auto reference_start = Clock::now();
  std::vector<std::string> reference_expected;
  reference_expected.reserve(stream.size());
  for (const auto& q : stream) {
    auto r = reference::ReferenceAsk(*snapshot, q);
    reference_expected.push_back(
        r.ok() ? core::CanonicalAskResultString(r.value()) : "ERROR");
  }
  const auto reference_elapsed = Clock::now() - reference_start;

  // Sequential Ask through the engine facade (the serving path).
  auto seq_start = Clock::now();
  std::vector<std::string> expected;
  expected.reserve(stream.size());
  for (const auto& q : stream) {
    auto r = engine.Ask(q);
    expected.push_back(r.ok() ? core::CanonicalAskResultString(r.value())
                              : "ERROR");
  }
  const auto seq_elapsed = Clock::now() - seq_start;

  // The serving path must answer the whole stream byte-identically to the
  // reference.
  std::size_t engine_mismatches = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (expected[i] != reference_expected[i]) ++engine_mismatches;
  }

  double last_qps = 0.0;
  auto run_server = [&](bool enable_cache, const char* label) {
    serve::ConcurrentServer::Options options;
    options.num_workers = num_workers;
    options.enable_cache = enable_cache;
    serve::ConcurrentServer server(&engine, options);

    auto start = Clock::now();
    auto results = server.AskBatch(stream);
    const auto elapsed = Clock::now() - start;

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::string got = results[i].ok()
          ? core::CanonicalAskResultString(results[i].value())
          : "ERROR";
      if (got != expected[i]) ++mismatches;
    }
    auto stats = server.cache_stats();
    last_qps = QuestionsPerSec(stream.size(), elapsed);
    std::printf("%-22s %10.1f q/s   %6.2fx   mismatches=%zu   "
                "cache h/m/e=%llu/%llu/%llu\n",
                label, last_qps,
                std::chrono::duration<double>(reference_elapsed).count() /
                    std::chrono::duration<double>(elapsed).count(),
                mismatches,
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.evictions));
    return mismatches;
  };

  bench::PrintHeader("serving throughput (questions/sec)");
  std::printf("stream: %zu questions (%zu unique x %zu passes), workers: "
              "%zu\n",
              stream.size(), stream.size() / passes, passes, num_workers);
  bench::PrintRule();
  std::printf("%-22s %14s %8s   (speedup vs the reference oracle)\n",
              "mode", "throughput", "speedup");
  bench::PrintRule();
  std::printf("%-22s %10.1f q/s   %6.2fx   (baseline)\n",
              "sequential (reference)",
              QuestionsPerSec(stream.size(), reference_elapsed), 1.0);
  std::printf("%-22s %10.1f q/s   %6.2fx   mismatches=%zu\n",
              "sequential (engine)",
              QuestionsPerSec(stream.size(), seq_elapsed),
              std::chrono::duration<double>(reference_elapsed).count() /
                  std::chrono::duration<double>(seq_elapsed).count(),
              engine_mismatches);
  std::size_t bad = engine_mismatches;
  bad += run_server(false, "pooled (no cache)");
  const double pooled_qps = last_qps;
  bad += run_server(true, "pooled + cache");
  const double pooled_cache_qps = last_qps;

  bench::PrintRule();
  bench::BenchJson json("serve_throughput");
  json.Add("workers", num_workers);
  json.Add("questions", stream.size());
  json.Add("reference_qps", QuestionsPerSec(stream.size(), reference_elapsed));
  json.Add("engine_qps", QuestionsPerSec(stream.size(), seq_elapsed));
  json.Add("pooled_qps", pooled_qps);
  json.Add("pooled_cache_qps", pooled_cache_qps);
  json.Add("mismatches", bad);
  json.Write();

  if (bad > 0) {
    std::printf("FAIL: %zu results differ across serving paths\n", bad);
    return 1;
  }
  std::printf(
      "all engine/pooled/cached results byte-identical to the reference "
      "oracle\n");
  return 0;
}
