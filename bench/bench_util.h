// Shared helpers for the bench binaries: the paper-scale world (500 ads per
// domain, §4.1.4), table-formatted printing, and the machine-readable
// BENCH_*.json emitter CI uploads as per-commit perf artifacts.
#ifndef CQADS_BENCH_BENCH_UTIL_H_
#define CQADS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "datagen/world.h"

namespace cqads::bench {

/// The evaluation world used by every figure/table bench: eight domains,
/// 500 ads each, deterministic seed.
inline std::unique_ptr<datagen::World> BuildPaperWorld() {
  datagen::WorldOptions options;
  options.seed = 20111130;
  options.ads_per_domain = 500;
  options.sessions_per_domain = 1500;
  options.corpus_docs_per_domain = 150;
  auto world = datagen::World::Build(options);
  if (!world.ok()) {
    std::fprintf(stderr, "world build failed: %s\n",
                 world.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(world).value();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRule() {
  std::printf("---------------------------------------------------------------\n");
}

/// Schema version of the BENCH_*.json artifacts. Bump when a field is
/// renamed or its meaning changes, so downstream perf-trajectory tooling
/// can tell incompatible artifacts apart instead of silently misreading.
inline constexpr int kBenchJsonSchemaVersion = 3;

/// The `git describe` of the sources these benches were configured from
/// (stamped by CMake; "unknown" outside a git checkout).
inline const char* BenchGitDescribe() {
#ifdef CQADS_GIT_DESCRIBE
  return CQADS_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

/// Flat-object JSON emitter for the CI perf artifacts: every bench writes
/// one BENCH_<name>.json into the working directory so the workflow can
/// upload the perf trajectory per commit. Numbers print with enough
/// precision to diff; strings are assumed not to need escaping (bench
/// labels only).
///
/// Every artifact is stamped with `bench`, `bench_schema_version`, and
/// `git_describe` up front — benches only add their measurements, so the
/// provenance fields cannot drift apart across bench binaries.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    Add("bench", name_);
    Add("bench_schema_version", static_cast<std::size_t>(
                                    kBenchJsonSchemaVersion));
    Add("git_describe", std::string(BenchGitDescribe()));
  }

  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, buf);
  }
  void Add(const std::string& key, std::size_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, '"' + value + '"');
  }

  /// Writes BENCH_<name>.json; prints where. Best-effort: a read-only CWD
  /// only costs the artifact, never the bench run.
  void Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fputs("{\n", f);
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", fields_[i].first.c_str(),
                   fields_[i].second.c_str(),
                   i + 1 < fields_.size() ? "," : "");
    }
    std::fputs("}\n", f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace cqads::bench

#endif  // CQADS_BENCH_BENCH_UTIL_H_
