#include "db/storage/delta_store.h"

#include <algorithm>

#include "db/row_match.h"
#include "db/table.h"

namespace cqads::db {

Result<RowId> DeltaStore::Insert(Record record) {
  CQADS_RETURN_NOT_OK(ValidateRecord(schema_, record));
  rows_.push_back(std::make_shared<const Record>(std::move(record)));
  retired_delta_.push_back(0);
  ++live_delta_rows_;
  return static_cast<RowId>(base_rows_ + rows_.size() - 1);
}

Status DeltaStore::Retire(RowId global_row) {
  if (global_row < base_rows_) {
    auto it =
        std::lower_bound(retired_base_.begin(), retired_base_.end(), global_row);
    if (it != retired_base_.end() && *it == global_row) {
      return Status::NotFound("row already retired: " +
                              std::to_string(global_row));
    }
    retired_base_.insert(it, global_row);
    return Status::OK();
  }
  const std::size_t local = global_row - base_rows_;
  if (local >= rows_.size()) {
    return Status::OutOfRange("row id out of range: " +
                              std::to_string(global_row));
  }
  if (retired_delta_[local]) {
    return Status::NotFound("row already retired: " +
                            std::to_string(global_row));
  }
  retired_delta_[local] = 1;
  --live_delta_rows_;
  return Status::OK();
}

std::vector<Record> DeltaStore::MergedRecords(const Table& base) const {
  std::vector<Record> out;
  out.reserve(base.num_rows() - retired_base_.size() + live_delta_rows_);
  std::size_t next_retired = 0;
  for (RowId r = 0; r < base.num_rows(); ++r) {
    if (next_retired < retired_base_.size() &&
        retired_base_[next_retired] == r) {
      ++next_retired;
      continue;
    }
    out.push_back(base.row(r));
  }
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (!retired_delta_[i]) out.push_back(*rows_[i]);
  }
  return out;
}

}  // namespace cqads::db
