// Figure 6: average query processing time of CQAds and the four compared
// ranking approaches over the survey questions. Paper: Random is fastest
// (no similarity computation); CQAds is faster than AIMQ, cosine, and
// FAQFinder because it retrieves exact matches first and only ranks partial
// answers when needed.
//
// This bench also pins the serving path to the reference oracle
// (reference/reference_ask.h: the paper's algorithm over the seed Type-rank
// executor and string-keyed Eq. 5 scoring): the whole question stream is
// answered by the oracle, by the engine, and by an engine reloaded from a
// persistent snapshot.
// Any canonical-answer mismatch with the oracle fails the run (non-zero
// exit — the CI smoke step relies on it), and the ask times quantify the
// serving path's speedup over the oracle.
//
// Usage: fig6_efficiency [--quick]
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ask_types.h"
#include "core/cqads_engine.h"
#include "eval/experiments.h"
#include "reference/reference_ask.h"

int main(int argc, char** argv) {
  using namespace cqads;
  using Clock = std::chrono::steady_clock;
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;

  auto world = bench::BuildPaperWorld();
  auto questions = eval::GenerateSurveyQuestions(
      *world, quick ? 20 : 80, quick ? 20 : 82, 660);

  // ---- serving path vs reference parity + ask-time comparison ----------
  std::vector<std::pair<std::string, std::string>> stream;  // domain, text
  for (const auto& [domain, qs] : questions) {
    for (const auto& q : qs) stream.emplace_back(domain, q.text);
  }

  auto canonical = [](const Result<core::AskResult>& r) {
    return r.ok() ? core::CanonicalAskResultString(r.value()) : "ERROR";
  };
  auto ask_all = [&](const core::CqadsEngine& engine,
                     std::vector<std::string>* out) {
    auto start = Clock::now();
    for (const auto& [domain, text] : stream) {
      out->push_back(canonical(engine.AskInDomain(domain, text)));
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  // Untimed warmup so the first timed mode does not absorb one-time costs
  // (pipeline singletons, allocator, page cache).
  for (const auto& [domain, text] : stream) {
    (void)world->engine().AskInDomain(domain, text);
  }

  std::vector<std::string> reference_answers;
  double reference_secs = 0.0;
  {
    const auto snapshot = world->engine().snapshot();
    auto start = Clock::now();
    for (const auto& [domain, text] : stream) {
      reference_answers.push_back(canonical(
          reference::ReferenceAskInDomain(*snapshot, domain, text)));
    }
    reference_secs =
        std::chrono::duration<double>(Clock::now() - start).count();
  }

  std::vector<std::string> production_answers;
  const double production_secs =
      ask_all(world->engine(), &production_answers);

  // Persistent-snapshot parity: save the engine, boot a second engine from
  // the file (mmap + zero-copy adoption), and serve the whole stream from
  // it. Any byte difference is a serde bug.
  const std::string snap_path = "BENCH_fig6_parity.snap";
  std::vector<std::string> snapshot_answers;
  double snapshot_secs = 0.0;
  {
    Status st = world->engine().SaveSnapshot(snap_path);
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    auto reloaded = core::CqadsEngine::OpenSnapshot(snap_path);
    if (!reloaded.ok()) {
      std::fprintf(stderr, "snapshot open failed: %s\n",
                   reloaded.status().ToString().c_str());
      return 1;
    }
    snapshot_secs = ask_all(*reloaded.value(), &snapshot_answers);
    std::remove(snap_path.c_str());
  }

  std::size_t production_mismatches = 0;
  std::size_t snapshot_mismatches = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::string& want = reference_answers[i];
    if (production_answers[i] != want) ++production_mismatches;
    if (snapshot_answers[i] != want) ++snapshot_mismatches;
  }

  bench::PrintHeader("serving path vs reference oracle (full ask path)");
  std::printf("questions: %zu\n", stream.size());
  std::printf("reference oracle        : %8.1f q/s\n",
              stream.size() / reference_secs);
  std::printf("production              : %8.1f q/s   speedup %.2fx\n",
              stream.size() / production_secs,
              reference_secs / production_secs);
  std::printf("reloaded snapshot       : %8.1f q/s   speedup %.2fx\n",
              stream.size() / snapshot_secs, reference_secs / snapshot_secs);
  std::printf(
      "canonical answer mismatches vs reference: production=%zu "
      "snapshot=%zu\n",
      production_mismatches, snapshot_mismatches);

  // ---- the paper figure ----------------------------------------------
  auto result = eval::RunEfficiency(*world, questions, 661);

  bench::PrintHeader("Figure 6: average query processing time");
  std::printf("questions timed per approach: %zu\n", result.questions);
  bench::PrintRule();
  std::printf("%-12s %14s\n", "approach", "avg ms/query");
  bench::PrintRule();
  const char* order[] = {"Random", "CQAds", "Cosine", "AIMQ", "FAQFinder"};
  for (const char* name : order) {
    auto it = result.avg_ms.find(name);
    if (it == result.avg_ms.end()) continue;
    std::printf("%-12s %14.3f\n", name, it->second);
  }
  bench::PrintRule();
  std::printf("(paper's shape: Random fastest; CQAds faster than AIMQ, "
              "cosine similarity, and FAQFinder)\n");

  bench::BenchJson json("fig6_efficiency");
  json.Add("questions", stream.size());
  json.Add("reference_qps", stream.size() / reference_secs);
  json.Add("production_qps", stream.size() / production_secs);
  json.Add("snapshot_qps", stream.size() / snapshot_secs);
  json.Add("production_mismatches", production_mismatches);
  json.Add("snapshot_mismatches", snapshot_mismatches);
  for (const auto& [name, ms] : result.avg_ms) {
    json.Add("avg_ms_" + name, ms);
  }
  json.Write();

  if (production_mismatches + snapshot_mismatches > 0) {
    std::printf(
        "FAIL: answers differ from the reference oracle (production=%zu, "
        "snapshot=%zu)\n",
        production_mismatches, snapshot_mismatches);
    return 1;
  }
  return 0;
}
