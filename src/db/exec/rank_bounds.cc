#include "db/exec/rank_bounds.h"

#include <cmath>

#include "db/storage/column_store.h"

namespace cqads::db::exec {

std::shared_ptr<const RankBounds> RankBounds::Build(const db::Table& table) {
  auto bounds = std::shared_ptr<RankBounds>(new RankBounds());
  const db::ColumnStore& store = table.store();
  const std::size_t rows = table.num_rows();
  const std::size_t attrs = table.schema().num_attributes();
  bounds->num_rows_ = rows;
  bounds->num_blocks_ = (rows + kRankBlockRows - 1) / kRankBlockRows;
  bounds->attrs_.resize(attrs);

  for (std::size_t a = 0; a < attrs; ++a) {
    AttrBounds& ab = bounds->attrs_[a];
    const std::size_t nb = bounds->num_blocks_;
    ab.code_min.assign(nb, std::numeric_limits<std::uint32_t>::max());
    ab.code_max.assign(nb, 0);
    ab.has_null.assign(nb, 0);
    ab.code_present.assign(store.dictionary(a).size(), 0);

    const std::uint32_t* codes = store.code_column(a).data();
    const auto& packed = store.numeric_column(a);
    const bool numeric = packed.size() == rows && rows > 0;
    if (numeric) {
      ab.val_min.assign(nb, std::numeric_limits<double>::infinity());
      ab.val_max.assign(nb, -std::numeric_limits<double>::infinity());
    }

    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t b = r / kRankBlockRows;
      const std::uint32_t c = codes[r];
      if (c == db::ColumnStore::kNullCode) {
        ab.has_null[b] = 1;
        ab.any_null = true;
        continue;
      }
      if (c < ab.code_min[b]) ab.code_min[b] = c;
      if (c > ab.code_max[b]) ab.code_max[b] = c;
      ab.code_present[c] = 1;
      if (numeric) {
        const double v = packed.data()[r];
        if (!std::isnan(v)) {
          if (v < ab.val_min[b]) ab.val_min[b] = v;
          if (v > ab.val_max[b]) ab.val_max[b] = v;
        }
      }
    }
    // All-NULL blocks keep code_min > code_max (and val_min > val_max): the
    // empty-range encoding bound computations test for.
  }
  return bounds;
}

}  // namespace cqads::db::exec
