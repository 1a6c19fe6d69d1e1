#include "db/exec/rowset_ops.h"

#include "db/exec/vector_kernels.h"

namespace cqads::db::exec {

namespace {

bool UseBitmap(const RowSet& a, const RowSet& b, std::size_t universe) {
  return universe > 0 && (a.size() + b.size()) * kDenseDivisor >= universe;
}

}  // namespace

RowBitmap RowBitmap::FromSet(const RowSet& set, std::size_t universe) {
  RowBitmap bm(universe);
  // The current word accumulates in a register and is stored, never
  // loaded, after every row: no read-modify-write chain through memory,
  // and no branch on where a word ends (which mispredicts on scattered
  // sets). Correct because `set` is ascending: a word's rows are adjacent.
  std::uint64_t* words = bm.words_.data();
  std::uint64_t w = 0;
  std::size_t current = 0;
  for (RowId r : set) {
    const std::size_t wi = r / 64;
    const std::uint64_t keep = -static_cast<std::uint64_t>(wi == current);
    w = (w & keep) | (std::uint64_t{1} << (r % 64));
    words[wi] = w;
    current = wi;
  }
  return bm;
}

bool RowBitmap::AnySet() const {
  for (std::uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
}

void RowBitmap::Grow(std::size_t universe) {
  universe_ = universe;
  words_.resize((universe + 63) / 64, 0);
}

void RowBitmap::UnionWith(const RowBitmap& other) {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] |= other.words_[w];
  }
}

void RowBitmap::IntersectWith(const RowBitmap& other) {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] &= other.words_[w];
  }
}

void RowBitmap::SubtractWith(const RowBitmap& other) {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] &= ~other.words_[w];
  }
}

void RowBitmap::ComplementAll() {
  for (std::uint64_t& w : words_) w = ~w;
  // Bits past the universe must stay clear (ToSet/Count would count ghost
  // rows otherwise).
  if (universe_ % 64 != 0) {
    words_.back() &= (std::uint64_t{1} << (universe_ % 64)) - 1;
  }
}

std::size_t RowBitmap::Count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += PopCount64(w);
  return n;
}

RowSet RowBitmap::ToSet() const {
  RowSet out(Count());
  RowId* dst = out.data();
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    std::uint64_t w = words_[wi];
    while (w != 0) {
      *dst++ = static_cast<RowId>(wi * 64 + __builtin_ctzll(w));
      w &= w - 1;
    }
  }
  return out;
}

LazyRowSet LazyRowSet::FromRows(RowSet r) {
  LazyRowSet out;
  out.rows = std::move(r);
  return out;
}

LazyRowSet LazyRowSet::FromBitmap(RowBitmap bm) {
  LazyRowSet out;
  out.bitmap.emplace(std::move(bm));
  return out;
}

std::size_t LazyRowSet::Count() const {
  return bitmap ? bitmap->Count() : rows.size();
}

RowSet LazyRowSet::ToRows() && {
  if (bitmap) return bitmap->ToSet();
  return std::move(rows);
}

RowBitmap LazyRowSet::ToBitmap(std::size_t universe) && {
  if (!bitmap) return RowBitmap::FromSet(rows, universe);
  RowBitmap bm = std::move(*bitmap);
  bm.Grow(universe);
  return bm;
}

void LazyRowSet::IntersectWith(LazyRowSet other, std::size_t universe) {
  if (bitmap && other.bitmap) {
    bitmap->IntersectWith(*other.bitmap);
    return;
  }
  if (bitmap) {
    // bitmap ∩ vector: the result is a subset of the (sparse) vector side —
    // probe the bitmap per element and demote to the vector form.
    RowSet out;
    out.reserve(other.rows.size());
    for (RowId r : other.rows) {
      if (bitmap->Test(r)) out.push_back(r);
    }
    bitmap.reset();
    rows = std::move(out);
    return;
  }
  if (other.bitmap) {
    RowSet out;
    out.reserve(rows.size());
    for (RowId r : rows) {
      if (other.bitmap->Test(r)) out.push_back(r);
    }
    rows = std::move(out);
    return;
  }
  rows = IntersectSets(rows, other.rows, universe);
}

void LazyRowSet::UnionWith(LazyRowSet other, std::size_t universe) {
  if (bitmap && other.bitmap) {
    bitmap->UnionWith(*other.bitmap);
    return;
  }
  if (bitmap) {
    for (RowId r : other.rows) bitmap->Set(r);
    return;
  }
  if (other.bitmap) {
    for (RowId r : rows) other.bitmap->Set(r);
    bitmap = std::move(other.bitmap);
    rows.clear();
    return;
  }
  if (UseBitmap(rows, other.rows, universe)) {
    // Dense union: promote to a bitmap and STAY there for downstream ops.
    RowBitmap bm = RowBitmap::FromSet(rows, universe);
    for (RowId r : other.rows) bm.Set(r);
    bitmap.emplace(std::move(bm));
    rows.clear();
    return;
  }
  rows = Union(rows, other.rows);
}

void LazyRowSet::ComplementWithin(std::size_t universe) {
  if (!bitmap) {
    bitmap.emplace(RowBitmap::FromSet(rows, universe));
    rows.clear();
  }
  bitmap->ComplementAll();
}

RowSet UnionSets(const RowSet& a, const RowSet& b, std::size_t universe) {
  // IndexScanNode unions its first key into an empty set: a copy, not a
  // round trip through two bitmaps.
  if (a.empty()) return b;
  if (b.empty()) return a;
  if (!UseBitmap(a, b, universe)) return Union(a, b);
  RowBitmap bm = RowBitmap::FromSet(a, universe);
  bm.UnionWith(RowBitmap::FromSet(b, universe));
  return bm.ToSet();
}

RowSet IntersectSets(const RowSet& a, const RowSet& b, std::size_t universe) {
  if (!UseBitmap(a, b, universe)) return Intersect(a, b);
  RowBitmap bm = RowBitmap::FromSet(a, universe);
  bm.IntersectWith(RowBitmap::FromSet(b, universe));
  return bm.ToSet();
}

RowSet DifferenceSets(const RowSet& a, const RowSet& b, std::size_t universe) {
  if (!UseBitmap(a, b, universe)) return Difference(a, b);
  RowBitmap bm = RowBitmap::FromSet(a, universe);
  bm.SubtractWith(RowBitmap::FromSet(b, universe));
  return bm.ToSet();
}

}  // namespace cqads::db::exec
