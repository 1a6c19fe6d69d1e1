// Density-adaptive row-set algebra for the plan evaluator. The seed
// executor's sorted-vector Intersect/Union/Difference (db/indexes.h) stays
// the representation of record sets between plan nodes, but set-operation
// nodes pick the cheaper physical algorithm per call: a sorted-vector merge
// for sparse inputs, a word-parallel bitmap pass for dense ones. Results are
// always sorted ascending and duplicate-free, so the two strategies are
// interchangeable answer-wise — the property tests assert exactly that.
#ifndef CQADS_DB_EXEC_ROWSET_OPS_H_
#define CQADS_DB_EXEC_ROWSET_OPS_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "db/indexes.h"
#include "db/query.h"

namespace cqads::db::exec {

/// §4.3 step 4, the SINGLE definition shared by every execution path (seed
/// executor, compiled plan, delta union): stable sort
/// of an ascending row set by the superlative attribute's cell value —
/// ties keep row order — then the answer cap. `cell_at(row, attr)` returns
/// the row's cell as `const Value&`; the caller binds whatever storage the
/// row ids live in (table, base∪delta, …). Centralizing this is what makes
/// the answer-identity invariant a property of ONE block of code instead
/// of three copies that must never drift.
template <typename CellAt>
void ApplySuperlativeAndCap(RowSet* rows,
                            const std::optional<Superlative>& superlative,
                            const CellAt& cell_at, std::size_t limit) {
  if (superlative) {
    const std::size_t attr = superlative->attr;
    const bool asc = superlative->ascending;
    std::stable_sort(rows->begin(), rows->end(), [&](RowId a, RowId b) {
      const Value& va = cell_at(a, attr);
      const Value& vb = cell_at(b, attr);
      return asc ? va < vb : vb < va;
    });
  }
  if (rows->size() > limit) rows->resize(limit);
}

/// Fixed-universe bitmap over RowIds [0, universe).
class RowBitmap {
 public:
  explicit RowBitmap(std::size_t universe)
      : universe_(universe), words_((universe + 63) / 64, 0) {}

  /// `set` must be ascending, as every RowSet is.
  static RowBitmap FromSet(const RowSet& set, std::size_t universe);

  std::size_t universe() const { return universe_; }

  void Set(RowId r) { words_[r / 64] |= std::uint64_t{1} << (r % 64); }
  void Reset(RowId r) { words_[r / 64] &= ~(std::uint64_t{1} << (r % 64)); }
  bool Test(RowId r) const {
    return (words_[r / 64] >> (r % 64)) & std::uint64_t{1};
  }
  bool AnySet() const;

  /// Widens the universe to `universe` (>= the current one); the added rows
  /// start clear.
  void Grow(std::size_t universe);

  void UnionWith(const RowBitmap& other);
  void IntersectWith(const RowBitmap& other);
  /// this \ other.
  void SubtractWith(const RowBitmap& other);
  /// this = [0, universe) \ this.
  void ComplementAll();

  std::size_t Count() const;

  /// Sorted ascending RowSet of the set bits.
  RowSet ToSet() const;

  /// Raw word access for the block-at-a-time executor: selection masks of
  /// 1024-row blocks are word-aligned views of this array (1024 % 64 == 0),
  /// so block results land with a word copy instead of per-row Set calls.
  std::uint64_t* word_data() { return words_.data(); }
  const std::uint64_t* word_data() const { return words_.data(); }
  std::size_t word_count() const { return words_.size(); }
  /// The words, consuming the bitmap.
  std::vector<std::uint64_t> TakeWords() && { return std::move(words_); }

 private:
  std::size_t universe_;
  std::vector<std::uint64_t> words_;
};

/// A row set flowing between plan nodes in whichever representation the
/// producer found natural: a sorted vector (sparse index results) or a
/// whole-universe bitmap (block-scan masks). Plan nodes
/// (PlanNode::ExecuteLazy) pass these across adjacent set-operation nodes
/// so a chain of Intersect/Union/Not stays word-parallel end to end instead
/// of round-tripping through sorted vectors at every node boundary; the set
/// denoted is identical either way, which is what keeps plan answers
/// byte-identical to the seed executor's.
struct LazyRowSet {
  /// Engaged = dense (bitmap) representation; `rows` is meaningful
  /// otherwise.
  std::optional<RowBitmap> bitmap;
  RowSet rows;

  static LazyRowSet FromRows(RowSet r);
  static LazyRowSet FromBitmap(RowBitmap bm);

  bool is_bitmap() const { return bitmap.has_value(); }
  std::size_t Count() const;

  /// Materializes the sorted, duplicate-free vector form (consuming).
  RowSet ToRows() &&;
  /// Materializes the bitmap form over [0, universe), universe >= the
  /// producer's (consuming; a bitmap is widened in place, not copied).
  RowBitmap ToBitmap(std::size_t universe) &&;

  /// In-place algebra over universe [0, n). A bitmap∩vector mix stays
  /// sparse (the result is a subset of the vector side); bitmap∪anything
  /// stays dense; vector∪vector promotes to a bitmap only past the
  /// kDenseDivisor density threshold.
  void IntersectWith(LazyRowSet other, std::size_t universe);
  void UnionWith(LazyRowSet other, std::size_t universe);
  void ComplementWithin(std::size_t universe);
};

/// Inputs at least this dense (combined size * kDenseDivisor >= universe)
/// take the bitmap path; sparser inputs use the sorted-vector merge.
inline constexpr std::size_t kDenseDivisor = 4;

/// a ∪ b over universe [0, n). Sorted ascending, duplicate-free.
RowSet UnionSets(const RowSet& a, const RowSet& b, std::size_t universe);
/// a ∩ b.
RowSet IntersectSets(const RowSet& a, const RowSet& b, std::size_t universe);
/// a \ b.
RowSet DifferenceSets(const RowSet& a, const RowSet& b, std::size_t universe);

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_ROWSET_OPS_H_
