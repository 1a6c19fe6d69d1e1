#include "db/exec/fragment_memo.h"

#include <cstring>
#include <mutex>

#include "db/exec/rank_bounds.h"

namespace cqads::db::exec {
namespace {

// Node tags. Every encoding starts with one, so the every-row key (one
// byte of its own) differs from every expression's.
constexpr char kEveryRow = 'T';
constexpr char kNull = '0', kInt = 'i', kReal = 'r', kText = 't';

char NodeTag(Expr::Kind kind) {
  switch (kind) {
    case Expr::Kind::kPredicate:
      return 'P';
    case Expr::Kind::kAnd:
      return 'A';
    case Expr::Kind::kOr:
      return 'O';
    case Expr::Kind::kNot:
      return 'N';
  }
  return '?';
}

template <typename T>
void AppendRaw(const T& v, std::string* out) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void AppendBytes(const std::string& s, std::string* out) {
  AppendRaw(static_cast<std::uint64_t>(s.size()), out);
  out->append(s);
}

void AppendValue(const Value& v, std::string* out) {
  if (v.is_int()) {
    out->push_back(kInt);
    AppendBytes(v.AsText(), out);  // exact for every int64
  } else if (v.is_real()) {
    out->push_back(kReal);
    AppendRaw(v.AsDouble(), out);
  } else if (v.is_text()) {
    out->push_back(kText);
    AppendBytes(v.text(), out);
  } else {
    out->push_back(kNull);
  }
}

void AppendExpr(const Expr& e, std::string* out) {
  out->push_back(NodeTag(e.kind()));
  if (e.kind() == Expr::Kind::kPredicate) {
    const Predicate& p = e.predicate();
    AppendRaw(static_cast<std::uint64_t>(p.attr), out);
    out->push_back(static_cast<char>(p.op));
    out->push_back(p.allow_shorthand ? '1' : '0');
    AppendValue(p.value, out);
    AppendValue(p.value_hi, out);
    return;
  }
  AppendRaw(static_cast<std::uint64_t>(e.children().size()), out);
  for (const ExprPtr& child : e.children()) AppendExpr(*child, out);
}

}  // namespace

std::string FragmentKey(const Expr* expr) {
  std::string key;
  if (expr == nullptr) {
    key.push_back(kEveryRow);
  } else {
    AppendExpr(*expr, &key);
  }
  return key;
}

std::shared_ptr<FragmentMemo> FragmentMemo::ForTable(std::size_t base_rows) {
  if (base_rows <= kRankBlockRows) return nullptr;
  return std::make_shared<FragmentMemo>(base_rows);
}

FragmentMemo::FragmentMemo(std::size_t base_rows)
    : budget_bytes_(kBudgetBitmaps * ((base_rows + 63) / 64) *
                    sizeof(std::uint64_t)) {}

FragmentMemo::Words FragmentMemo::Find(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  // Written only when clear, so steady hits share the entry's cache line.
  if (!it->second.used.load(std::memory_order_relaxed)) {
    it->second.used.store(true, std::memory_order_relaxed);
  }
  return it->second.words;
}

void FragmentMemo::Insert(const std::string& key, Words words) {
  const std::size_t bytes = words->size() * sizeof(std::uint64_t) +
                            key.size() + kEntryOverheadBytes;
  if (bytes > budget_bytes_) return;
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (entries_.count(key) > 0) return;
  while (resident_bytes_ + bytes > budget_bytes_) {
    Map::value_type* hand = clock_.front();
    clock_.pop_front();
    if (hand->second.used.load(std::memory_order_relaxed)) {
      hand->second.used.store(false, std::memory_order_relaxed);
      clock_.push_back(hand);
      continue;
    }
    resident_bytes_ -= hand->second.bytes;
    entries_.erase(entries_.find(hand->first));
  }
  auto it = entries_.try_emplace(key).first;
  it->second.words = std::move(words);
  it->second.bytes = bytes;
  clock_.push_back(&*it);
  resident_bytes_ += bytes;
}

std::size_t FragmentMemo::resident_bytes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return resident_bytes_;
}

std::size_t FragmentMemo::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

}  // namespace cqads::db::exec
