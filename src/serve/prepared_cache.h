// Sharded LRU prepared-query cache. Memoizes the parse-side half of the
// pipeline (tag -> conditions -> assembly -> SQL -> compiled plan) keyed on
// (scope, normalized question): the scope is the domain of an
// ask_in_domain, and empty for an ask, whose entry also memoizes the
// classified domain. Repeated questions skip straight to execution —
// including predicate compilation and cost-aware plan construction, since
// ParsedQuestion carries the PhysicalPlan. Entries are
// shared_ptr<const ParsedQuestion> — immutable, so a hit is handed to any
// number of concurrent requests without copying the expression trees
// (ExprPtr is shared_ptr<const Expr>) or the plan (PlanPtr is
// shared_ptr<const PhysicalPlan>).
//
// An entry records what it depends on: the domain it was parsed in and
// that domain's parse generation (DomainRuntime::parse_generation), plus,
// for an ask entry, the classifier generation. Get checks them against
// the request's pinned snapshot, so a memoized plan never executes against
// a table, lexicon or options it was not built for, while ingest and
// retire, which keep the parse generation, leave every entry valid. Stale
// entries are replaced by the next Put or age out of the LRU.
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
#include "core/engine_snapshot.h"

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

  /// A memoized parse and the domain it was parsed in; `parsed` is null on
  /// a miss.
  struct Prepared {
    std::string domain;
    ParsedPtr parsed;
  };

  PreparedQueryCache() : PreparedQueryCache(Options()) {}
  explicit PreparedQueryCache(Options options);

  PreparedQueryCache(const PreparedQueryCache&) = delete;
  PreparedQueryCache& operator=(const PreparedQueryCache&) = delete;

  /// Canonical cache form of a question: ASCII-lowercased with whitespace
  /// runs collapsed to single spaces and ends trimmed, so "Red  HONDA " and
  /// "red honda" share an entry. (The tokenizer lowercases too, making the
  /// two forms classify and parse identically.)
  static std::string NormalizeQuestion(const std::string& raw);

  /// The entry of (scope, normalized) while `snapshot` still has the
  /// generations it was parsed under; a miss otherwise. Touches a hit to
  /// most-recently-used.
  Prepared Get(const core::EngineSnapshot& snapshot, const std::string& scope,
               const std::string& normalized);

  /// Inserts or refreshes the entry of (scope, normalized): `parsed` was
  /// parsed and planned in `domain` on `snapshot`, whose generations the
  /// entry records. A Put from an older snapshot than the resident entry's
  /// is dropped. Evicts the shard's LRU tail past capacity.
  void Put(const core::EngineSnapshot& snapshot, const std::string& scope,
           const std::string& normalized, const std::string& domain,
           ParsedPtr parsed);

  /// Aggregated over shards.
  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::string domain;
    std::uint64_t parse_generation = 0;
    std::uint64_t classifier_generation = 0;
    std::uint64_t snapshot_version = 0;  ///< orders Puts, never checked by Get
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

  static std::string MakeKey(const std::string& scope,
                             const std::string& normalized);
  /// What an entry depends on: the parse generation of the domain it was
  /// parsed in and, for an ask entry, the classifier that chose that
  /// domain.
  static bool IsCurrent(const Entry& entry,
                        const core::EngineSnapshot& snapshot, bool ask);
  Shard& ShardOf(const std::string& key);

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace cqads::serve

#endif  // CQADS_SERVE_PREPARED_CACHE_H_
