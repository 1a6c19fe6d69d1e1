// Block-at-a-time selection kernels over the columnar store. Predicates are
// evaluated over fixed-width chunks of kBlockRows rows into branch-free
// selection masks (one bit per row) instead of per-row branching loops:
//
//   * numeric compares run over the packed-double column (SIMD compare,
//     movemask) with the NULL rule folded in word-parallel from the
//     column's null bitmap;
//   * text predicates gather through a per-DISTINCT-CELL match table
//     (u8 per dictionary code, derived once per node execution from the
//     compile-time element-match set), so the per-row test is one load
//     instead of an element-span walk; single-code equality additionally
//     takes a direct SIMD code-compare fast path;
//   * masks AND together across conjunct predicates and convert to sorted
//     RowSets (or whole RowBitmaps) only at plan-node boundaries.
//
// SIMD dispatch is resolved once at startup: AVX2 when the CPU supports it
// (compiled via function target attributes, no special build flags), SSE2
// on any x86-64, and a portable scalar path everywhere else. The scalar
// path is ALSO the differential oracle — tests force it with
// SetSimdOverride and assert byte-identical masks — and the
// CQADS_FORCE_SCALAR_KERNELS build (CI's no-SIMD leg) pins the portable
// path green. Every kernel must agree with CompiledPredicate::Matches on
// every (row, predicate); tests/test_vector_kernels.cc holds that line.
#ifndef CQADS_DB_EXEC_VECTOR_KERNELS_H_
#define CQADS_DB_EXEC_VECTOR_KERNELS_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "db/query.h"
#include "db/storage/column_store.h"

namespace cqads::db::exec {

struct CompiledPredicate;  // db/exec/plan.h (cyclic include avoided)

/// Rows per execution block. One block's selection mask is kMaskWords u64
/// words; blocks tile the table from row 0, so block masks are word-aligned
/// views of a whole-table RowBitmap.
inline constexpr std::size_t kBlockRows = 1024;
inline constexpr std::size_t kMaskWords = kBlockRows / 64;

/// Set bits of one word. An inline SWAR count rather than
/// __builtin_popcountll: without -mpopcnt (the build sets no -m flags) GCC
/// lowers the builtin to one libgcc __popcountdi2 call per word, two to
/// three times the cost of these few shifts and multiplies over a bitmap.
inline std::size_t PopCount64(std::uint64_t w) {
  w -= (w >> 1) & 0x5555555555555555ULL;
  w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
  w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<std::size_t>((w * 0x0101010101010101ULL) >> 56);
}

/// Selection mask of one block: bit i of word i/64 = row (block_base + i)
/// selected. Bits at and beyond the block's row count are always zero.
struct SelMask {
  std::uint64_t words[kMaskWords];

  void Clear() { std::memset(words, 0, sizeof(words)); }
  bool AnySet() const {
    std::uint64_t acc = 0;
    for (std::uint64_t w : words) acc |= w;
    return acc != 0;
  }
  std::size_t Count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words) n += PopCount64(w);
    return n;
  }
  void AndWith(const SelMask& other) {
    for (std::size_t i = 0; i < kMaskWords; ++i) words[i] &= other.words[i];
  }
};

/// Available instruction-set tiers, best-first.
enum class SimdLevel { kAvx2, kSse2, kScalar };

/// The tier kernels dispatch to: the best the CPU supports, unless
/// overridden (tests) or built with CQADS_FORCE_SCALAR_KERNELS.
SimdLevel ActiveSimdLevel();

/// Forces a dispatch tier (kernel differential tests run every tier against
/// the scalar oracle). Levels above the CPU's capability are clamped.
/// Not for concurrent use with in-flight queries.
void SetSimdOverride(SimdLevel level);
void ClearSimdOverride();

// --- raw kernels -----------------------------------------------------------
// All kernels fill `out` for rows [base, base+n), n <= kBlockRows, and zero
// the tail bits. `base` must be a multiple of kBlockRows so null-bitmap
// words align with mask words.

/// Numeric compare over packed doubles (NaN at NULL rows). Implements the
/// scalar semantics of CompiledPredicate Mode::kNumeric, NULL rule included:
/// a NULL row matches iff op == kNe. `null_words` is the column's null
/// bitmap (may be null when the column has no NULLs).
void NumericCompareMask(const double* packed, const std::uint64_t* null_words,
                        CompareOp op, double lo, double hi, std::size_t base,
                        std::size_t n, SelMask* out);

/// Membership gather through a per-dictionary-code match table:
/// row matches iff table[code] != 0 (flipped by `negate`). NULL rows are
/// detected from the code column itself (code == kNullCode) and match iff
/// `null_matches`. Codes >= table_size test as no-match before negation.
void CodeTableMask(const std::uint32_t* codes, const std::uint8_t* table,
                   std::uint32_t table_size, bool negate, bool null_matches,
                   std::size_t base, std::size_t n, SelMask* out);

/// Single-code equality fast path: row matches iff code == target (flipped
/// by `negate`); NULL rows (code == kNullCode) match iff `null_matches`.
/// `target` must be a real dictionary code (never kNullCode).
void CodeEqMask(const std::uint32_t* codes, std::uint32_t target, bool negate,
                bool null_matches, std::size_t base, std::size_t n,
                SelMask* out);

/// Appends the selected rows of a block mask to `out` as global RowIds,
/// ascending. Returns the number appended.
std::size_t EmitRows(const SelMask& mask, RowId base, RowSet* out);

// --- per-predicate block evaluator -----------------------------------------

/// Execution-time view of one CompiledPredicate: raw column pointers plus
/// the per-distinct-cell match table, built ONCE per plan-node execution
/// (O(distinct cells), amortized across every block of the scan).
/// EvalBlock must agree with CompiledPredicate::Matches row-for-row — the
/// scalar predicate stays the oracle.
class BlockPredicate {
 public:
  BlockPredicate(const ColumnStore& store, const CompiledPredicate& cp);

  /// Fills `out` with the predicate's selection mask for rows
  /// [base, base+n). base % kBlockRows == 0, n <= kBlockRows.
  void EvalBlock(std::size_t base, std::size_t n, SelMask* out) const;

  /// out &= predicate mask (callers skip blocks whose mask is already 0).
  void AndBlock(std::size_t base, std::size_t n, SelMask* inout) const;

 private:
  enum class Kind { kNumeric, kCodeTable, kCodeEq, kNever };

  Kind kind_ = Kind::kNever;
  CompareOp op_ = CompareOp::kEq;
  double lo_ = 0.0, hi_ = 0.0;
  const double* packed_ = nullptr;
  const std::uint32_t* codes_ = nullptr;
  const std::uint64_t* null_words_ = nullptr;
  bool negate_ = false;
  bool null_matches_ = false;
  std::uint32_t target_code_ = 0;
  /// Per-dictionary-code match (kCodeTable): 1 iff any of the distinct
  /// cell's elements satisfies the compiled element-match set, or — for
  /// numeric kContains — the canonical rendered text contains the needle.
  std::vector<std::uint8_t> cell_match_;
};

}  // namespace cqads::db::exec

#endif  // CQADS_DB_EXEC_VECTOR_KERNELS_H_
