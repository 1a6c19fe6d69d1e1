// Memo of relaxation-fragment row sets for the rank stage. The §4.3.1 N-1
// relaxation combines, per request, the base rows of each match unit and
// of the fixed fragments (core/pipeline.cc). On a base table those rows
// are a pure function of the fragment's expression, and a question pool
// repeats a few fragments over and over (rank_large's 600 questions hold
// 430 distinct units, 17 of which select any row), so a table larger than
// one rank block keeps one FragmentMemo: a fragment's plan then runs once
// per base table instead of once per request.
//
//   key    FragmentKey(expr): an exact structural encoding of the fragment
//          expression, so two fragments share an entry only when they are
//          the same tree (and therefore select the same rows).
//   value  the fragment's base-row bitmap words over [0, base_rows),
//          immutable and shared with every request reading them; a
//          fragment that selects no row stores no words.
//   bound  kBudgetBitmaps table-wide bitmaps' worth of bytes (entry words,
//          key bytes and kEntryOverheadBytes each), evicted in
//          second-chance (CLOCK) order: an entry not used since the hand
//          last passed it leaves first, so with no hits entries leave
//          oldest first, and an entry hit since then is kept for one more
//          round.
//
// The memo is keyed on nothing but the expression: it belongs to one base
// table, and a runtime whose base table changes (compaction, registration,
// snapshot load) gets a fresh memo. Ingest and retire share it, because
// delta rows are never memoized.
//
// Thread-safety: every method is safe to call concurrently. A hit takes a
// shared lock and sets the entry's used bit; an insert takes the exclusive
// lock. Two requests missing on one key both evaluate the plan; the second
// insert is dropped.
#ifndef CQADS_DB_EXEC_FRAGMENT_MEMO_H_
#define CQADS_DB_EXEC_FRAGMENT_MEMO_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/query.h"

namespace cqads::db::exec {

/// Exact structural key of a fragment expression: per node its kind, then
/// for a predicate the attribute, operator, allow_shorthand and both
/// operands (type tag plus raw bytes: an int's exact decimal text, a
/// real's 8 bytes, a text's length and bytes), and for an AND, OR or NOT
/// its child count and children in order. Null (the fixed-fragments slot
/// with no fixed fragments, "every row") has a key of its own. Unlike
/// WriteSql text, it renders allow_shorthand, so fragments that select
/// different rows never share a key.
std::string FragmentKey(const Expr* expr);

class FragmentMemo {
 public:
  /// A fragment's base-row bitmap words; empty when it selects no row.
  using Words = std::shared_ptr<const std::vector<std::uint64_t>>;

  /// Table-wide bitmaps the budget holds: 64 x ceil(rows / 64) x 8 bytes,
  /// 1.2 MB on a 150k-row table.
  static constexpr std::size_t kBudgetBitmaps = 64;
  /// Bytes charged per entry on top of its words and key: the hash node,
  /// the clock slot, and the shared words' control block.
  static constexpr std::size_t kEntryOverheadBytes = 128;

  /// The memo of a base table with `base_rows` rows, or null when the
  /// table fits one rank block: a fragment of such a table costs well
  /// under a microsecond to evaluate, less than a memo would save.
  static std::shared_ptr<FragmentMemo> ForTable(std::size_t base_rows);

  explicit FragmentMemo(std::size_t base_rows);
  FragmentMemo(const FragmentMemo&) = delete;
  FragmentMemo& operator=(const FragmentMemo&) = delete;

  /// The entry under `key`, marked used; null on a miss.
  Words Find(const std::string& key) const;

  /// Memoizes `words` under `key` (words.size() must be 0 or
  /// ceil(base_rows / 64)), evicting entries until it fits the budget. A
  /// key already present keeps its entry; an entry larger than the whole
  /// budget is not kept.
  void Insert(const std::string& key, Words words);

  std::size_t budget_bytes() const { return budget_bytes_; }
  /// Bytes charged by the resident entries; never above budget_bytes().
  std::size_t resident_bytes() const;
  std::size_t size() const;

 private:
  struct Entry {
    Words words;
    std::size_t bytes = 0;
    /// Set by every hit; the clock hand clears it and passes the entry
    /// over once.
    mutable std::atomic<bool> used{false};
  };
  using Map = std::unordered_map<std::string, Entry>;

  const std::size_t budget_bytes_;
  mutable std::shared_mutex mu_;
  Map entries_;
  /// The clock: every resident entry once, the hand at the front. Node
  /// pointers stay valid across rehashing.
  std::deque<Map::value_type*> clock_;
  std::size_t resident_bytes_ = 0;
};

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_FRAGMENT_MEMO_H_
