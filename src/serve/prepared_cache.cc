#include "serve/prepared_cache.h"

#include <cctype>
#include <functional>

namespace cqads::serve {

PreparedQueryCache::PreparedQueryCache(Options options) {
  if (options.num_shards == 0) options.num_shards = 1;
  if (options.capacity < options.num_shards) {
    options.capacity = options.num_shards;
  }
  per_shard_capacity_ = options.capacity / options.num_shards;
  shards_.reserve(options.num_shards);
  for (std::size_t i = 0; i < options.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::string PreparedQueryCache::NormalizeQuestion(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  bool pending_space = false;
  for (unsigned char c : raw) {
    if (std::isspace(c)) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(static_cast<char>(std::tolower(c)));
  }
  return out;
}

std::string PreparedQueryCache::MakeKey(const std::string& scope,
                                        const std::string& normalized) {
  std::string key;
  key.reserve(scope.size() + 1 + normalized.size());
  key.append(scope);
  key.push_back('\n');  // cannot occur inside a normalized question
  key.append(normalized);
  return key;
}

PreparedQueryCache::Shard& PreparedQueryCache::ShardOf(
    const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool PreparedQueryCache::IsCurrent(const Entry& entry,
                                   const core::EngineSnapshot& snapshot,
                                   bool ask) {
  const core::DomainRuntime* rt = snapshot.runtime(entry.domain);
  return rt != nullptr && rt->parse_generation == entry.parse_generation &&
         (!ask ||
          snapshot.classifier_generation() == entry.classifier_generation);
}

PreparedQueryCache::Prepared PreparedQueryCache::Get(
    const core::EngineSnapshot& snapshot, const std::string& scope,
    const std::string& normalized) {
  const std::string key = MakeKey(scope, normalized);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end() ||
      !IsCurrent(*it->second, snapshot, scope.empty())) {
    ++shard.misses;
    return {};
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  return {it->second->domain, it->second->parsed};
}

void PreparedQueryCache::Put(const core::EngineSnapshot& snapshot,
                             const std::string& scope,
                             const std::string& normalized,
                             const std::string& domain, ParsedPtr parsed) {
  const core::DomainRuntime* rt = snapshot.runtime(domain);
  if (rt == nullptr) return;
  Entry entry{MakeKey(scope, normalized), domain, rt->parse_generation,
              snapshot.classifier_generation(), snapshot.version(),
              std::move(parsed)};
  Shard& shard = ShardOf(entry.key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(entry.key);
  if (it != shard.index.end()) {
    // A request pinned on an old snapshot may finish after one on a
    // fresher snapshot already cached this question; keeping the newer
    // entry avoids miss churn during the swap window.
    if (it->second->snapshot_version <= entry.snapshot_version) {
      *it->second = std::move(entry);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    }
    return;
  }
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

PreparedQueryCache::Stats PreparedQueryCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.evictions += shard->evictions;
    total.entries += shard->lru.size();
  }
  return total;
}

}  // namespace cqads::serve
