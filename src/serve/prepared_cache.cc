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

std::string PreparedQueryCache::MakeKey(const std::string& domain,
                                        const std::string& normalized) {
  std::string key;
  key.reserve(domain.size() + 1 + normalized.size());
  key.append(domain);
  key.push_back('\n');  // cannot occur inside a normalized question
  key.append(normalized);
  return key;
}

PreparedQueryCache::Shard& PreparedQueryCache::ShardOf(
    const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

PreparedQueryCache::ParsedPtr PreparedQueryCache::Get(
    const std::string& domain, const std::string& normalized,
    std::uint64_t snapshot_version) {
  const std::string key = MakeKey(domain, normalized);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end() || it->second->version != snapshot_version) {
    ++shard.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  return it->second->parsed;
}

void PreparedQueryCache::Put(const std::string& domain,
                             const std::string& normalized,
                             std::uint64_t snapshot_version,
                             ParsedPtr parsed) {
  const std::string key = MakeKey(domain, normalized);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // A request pinned on an old snapshot may finish after a fresher one
    // already cached this question; keeping the newer entry avoids miss
    // churn during the swap window.
    if (it->second->version <= snapshot_version) {
      it->second->version = snapshot_version;
      it->second->parsed = std::move(parsed);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    }
    return;
  }
  shard.lru.push_front(Entry{key, snapshot_version, std::move(parsed)});
  shard.index.emplace(key, shard.lru.begin());
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
