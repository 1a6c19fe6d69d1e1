// Per-block summaries for block-max rank pruning. For every attribute of a
// table, RankBounds records per 1024-row block:
//
//   * the dictionary-code range [code_min, code_max] of the block's non-NULL
//     cells (codes are dense intern indexes, so the range is a compact
//     superset of the codes actually present);
//   * whether the block contains a NULL cell;
//   * for numeric columns, the [val_min, val_max] of the block's non-NaN
//     packed values.
//
// Plus, per attribute, which dictionary codes some row carries and whether
// any cell is NULL. A similarity that is a pure function of a row's code on
// one attribute (SimScorer's code-key argument: same code -> same cell ->
// same elements) can then be bounded per block by maxing the similarities
// of the codes present over the block's code range — an upper bound because
// the range is a superset, and exact on the codes it was computed from. Numeric Num_Sim is bounded exactly from
// [val_min, val_max] (Eq. 4 is unimodal in the record value with its peak
// at the question's target).
//
// Built once per table generation in EngineBuilder::MakeRuntime (and the
// snapshot-load path), one O(attrs x rows) pass; never serialized — a
// loaded snapshot rebuilds it at open. Immutable after Build, safe to share
// across threads.
#ifndef CQADS_DB_EXEC_RANK_BOUNDS_H_
#define CQADS_DB_EXEC_RANK_BOUNDS_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "db/table.h"

namespace cqads::db::exec {

/// Block granularity of the rank-pruning summaries. Matches the executor's
/// vectorized block size so Explain counters speak one unit.
inline constexpr std::size_t kRankBlockRows = 1024;

class RankBounds {
 public:
  /// Per-attribute, per-block summary. Arrays are indexed by block; a block
  /// with no non-NULL cell has code_min > code_max (and val_min > val_max).
  struct AttrBounds {
    std::vector<std::uint32_t> code_min;
    std::vector<std::uint32_t> code_max;
    std::vector<std::uint8_t> has_null;
    /// Numeric columns only (empty otherwise).
    std::vector<double> val_min;
    std::vector<double> val_max;
    /// 1 for each dictionary code some row carries (size = dictionary
    /// size).
    std::vector<std::uint8_t> code_present;
    /// Some cell of the column is NULL.
    bool any_null = false;
  };

  static std::shared_ptr<const RankBounds> Build(const db::Table& table);

  std::size_t num_rows() const { return num_rows_; }
  std::size_t num_blocks() const { return num_blocks_; }
  const AttrBounds& attr(std::size_t a) const { return attrs_[a]; }

  /// Rows of block b: [b * kRankBlockRows, block_end(b)).
  RowId block_end(std::size_t b) const {
    const std::size_t end = (b + 1) * kRankBlockRows;
    return static_cast<RowId>(end < num_rows_ ? end : num_rows_);
  }

 private:
  RankBounds() = default;

  std::size_t num_rows_ = 0;
  std::size_t num_blocks_ = 0;
  std::vector<AttrBounds> attrs_;
};

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_RANK_BOUNDS_H_
