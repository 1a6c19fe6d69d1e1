// Bounded top-k selection for the rank stage. Replaces collect-all +
// std::sort with a size-k binary heap ordered by the rank stage's exact
// total order
//
//   better(a, b)  =  a.score > b.score  ||  (a.score == b.score && a.row < b.row)
//
// so the k entries kept are precisely the first k entries the full sort
// would emit — that identity (not approximation) is what lets the pruned
// path stay byte-identical to the serial oracle.
//
// Tie-safety: threshold() is the k-th BEST score once the heap is full. A
// candidate block may be skipped only when its score upper bound is
// STRICTLY below the threshold — a candidate scoring exactly threshold()
// can still displace the current k-th entry when its row id is smaller, so
// bound == threshold must be visited. WouldAccept encodes the full
// (score, row) rule for per-candidate checks.
//
// Push order never matters: the kept entries depend only on the multiset
// of candidates pushed, which is what lets the rank stage visit blocks in
// best-bound order and still match the reference's row-order full sort.
//
// The block cut: nor does a candidate that is not pushed matter, when k
// candidates pushed (or skipped the same way) are strictly better. A
// pruned rank pass scores a block, takes its k-th best score
// (KthBestScore) and pushes only the candidates at or above it: one below
// it has k strictly better candidates in its own block, so it can never
// be among the k kept. Candidates tied at the cut are all pushed and meet
// the exact (score, row) rule.
//
// Not thread-safe; one instance per request.
#ifndef CQADS_DB_EXEC_TOPK_H_
#define CQADS_DB_EXEC_TOPK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "db/indexes.h"

namespace cqads::db::exec {

/// One kept candidate. `tag` is caller payload (the rank stage stores the
/// dropped-unit index so the Table 2 measure label can be rebuilt after the
/// selection without re-scoring).
struct TopKEntry {
  double score = 0.0;
  RowId row = 0;
  std::uint32_t tag = 0;
};

/// The rank order. True when `a` precedes `b` in the final answer list.
inline bool TopKBetter(const TopKEntry& a, const TopKEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.row < b.row;
}

class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) { heap_.reserve(k); }

  std::size_t k() const { return k_; }
  std::size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() >= k_; }

  /// The k-th best score when full, -inf otherwise (+inf for the k == 0
  /// degenerate, where everything prunes). Valid pruning uses
  /// bound < threshold() STRICTLY (see header comment).
  double threshold() const {
    if (k_ == 0) return std::numeric_limits<double>::infinity();
    return full() ? heap_.front().score
                  : -std::numeric_limits<double>::infinity();
  }

  /// Whether a (score, row) candidate would enter the heap. Exact rule:
  /// when full, it must beat the current k-th entry under TopKBetter.
  bool WouldAccept(double score, RowId row) const {
    if (k_ == 0) return false;
    if (!full()) return true;
    const TopKEntry& worst = heap_.front();
    if (score != worst.score) return score > worst.score;
    return row < worst.row;
  }

  /// Inserts if the candidate belongs in the current top k. Returns true
  /// when the heap filled or its worst entry was evicted — the caller's cue
  /// that threshold() may have risen.
  bool Push(double score, RowId row, std::uint32_t tag) {
    if (!WouldAccept(score, row)) return false;
    if (full()) {
      ReplaceWorst(TopKEntry{score, row, tag});
      return true;
    }
    heap_.push_back(TopKEntry{score, row, tag});
    std::push_heap(heap_.begin(), heap_.end(), TopKBetter);
    return full();
  }

  /// Destructive extraction in answer order (best first).
  std::vector<TopKEntry> Take() {
    std::sort(heap_.begin(), heap_.end(), TopKBetter);
    return std::move(heap_);
  }

 private:
  /// Puts `e` in the root's place and sifts it down, one comparison pair
  /// per level: each step lifts the worse child while `e` beats it.
  void ReplaceWorst(const TopKEntry& e) {
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && TopKBetter(heap_[child], heap_[child + 1])) {
        ++child;
      }
      if (!TopKBetter(e, heap_[child])) break;
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = e;
  }

  std::size_t k_;
  /// Max-heap under TopKBetter: front() is the WORST kept entry (the one
  /// every later candidate must beat).
  std::vector<TopKEntry> heap_;
};

/// The block cut: the k-th best of `scores[0, n)`, which it reorders. A
/// candidate of the block scoring below it can never enter a TopK(k) (see
/// the header comment). -inf when n <= k (nothing to cut), +inf when
/// k == 0 (nothing enters).
inline double KthBestScore(double* scores, std::size_t n, std::size_t k) {
  if (k == 0) return std::numeric_limits<double>::infinity();
  if (n <= k) return -std::numeric_limits<double>::infinity();
  std::nth_element(scores, scores + (k - 1), scores + n,
                   std::greater<double>());
  return scores[k - 1];
}

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_TOPK_H_
