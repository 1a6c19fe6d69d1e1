// Sharded LRU prepared-query cache. Memoizes the parse-side half of the
// pipeline (tag -> conditions -> assembly -> SQL -> compiled plan) keyed on
// (snapshot version, domain, normalized question): repeated questions skip
// straight to execution — including predicate compilation and cost-aware
// plan construction, since ParsedQuestion carries the PhysicalPlan. Entries
// are shared_ptr<const ParsedQuestion> — immutable, so a hit is handed to
// any number of concurrent requests without copying the expression trees
// (ExprPtr is shared_ptr<const Expr>) or the plan (PlanPtr is
// shared_ptr<const PhysicalPlan>).
//
// Keying on the snapshot version makes swaps safe by construction: a
// question parsed against snapshot v is never replayed against snapshot
// v+1 (the domain's lexicon, table, column stats, or planner options may
// have changed — a memoized plan must never execute against a table it was
// not compiled for); stale entries age out of the LRU naturally.
#ifndef CQADS_SERVE_PREPARED_CACHE_H_
#define CQADS_SERVE_PREPARED_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ask_types.h"

namespace cqads::serve {

class PreparedQueryCache {
 public:
  using ParsedPtr = std::shared_ptr<const core::ParsedQuestion>;

  struct Options {
    std::size_t capacity = 4096;  ///< total entries across all shards
    std::size_t num_shards = 8;   ///< power of two recommended
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;  ///< currently resident
  };

  PreparedQueryCache() : PreparedQueryCache(Options()) {}
  explicit PreparedQueryCache(Options options);

  PreparedQueryCache(const PreparedQueryCache&) = delete;
  PreparedQueryCache& operator=(const PreparedQueryCache&) = delete;

  /// Canonical cache form of a question: ASCII-lowercased with whitespace
  /// runs collapsed to single spaces and ends trimmed, so "Red  HONDA " and
  /// "red honda" share an entry. (The tokenizer lowercases too, making the
  /// two forms parse identically.)
  static std::string NormalizeQuestion(const std::string& raw);

  /// Returns the entry, or nullptr on miss (absent or stale version).
  /// Touches the entry to most-recently-used.
  ParsedPtr Get(const std::string& domain, const std::string& normalized,
                std::uint64_t snapshot_version);

  /// Inserts or refreshes an entry, evicting the shard's LRU tail past
  /// capacity.
  void Put(const std::string& domain, const std::string& normalized,
           std::uint64_t snapshot_version, ParsedPtr parsed);

  /// Aggregated over shards.
  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::uint64_t version = 0;
    ParsedPtr parsed;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  static std::string MakeKey(const std::string& domain,
                             const std::string& normalized);
  Shard& ShardOf(const std::string& key);

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cqads::serve

#endif  // CQADS_SERVE_PREPARED_CACHE_H_
