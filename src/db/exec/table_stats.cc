#include "db/exec/table_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cqads::db::exec {

namespace {

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

Histogram Histogram::Build(const double* values, std::size_t count,
                           std::size_t buckets) {
  Histogram hist;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double v = values[i];
    if (std::isnan(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    ++n;
  }
  if (n == 0) return hist;
  hist.lo = lo;
  hist.hi = hi;
  hist.total = n;
  hist.counts.assign(std::max<std::size_t>(1, buckets), 0);
  // An infinite value (or a finite range overflowing a double) makes the
  // width infinite; the bucket index would then be inf or NaN, so every
  // value lands in bucket 0 as for a single-valued column.
  const double width = hi - lo;
  for (std::size_t i = 0; i < count; ++i) {
    const double v = values[i];
    if (std::isnan(v)) continue;
    std::size_t b = 0;
    if (width > 0.0 && std::isfinite(width)) {
      b = static_cast<std::size_t>((v - lo) / width *
                                   static_cast<double>(hist.counts.size()));
      b = std::min(b, hist.counts.size() - 1);
    }
    ++hist.counts[b];
  }
  return hist;
}

double Histogram::EstimateRangeFraction(double range_lo,
                                        double range_hi) const {
  if (total == 0 || range_lo > range_hi) return 0.0;
  if (range_hi < lo || range_lo > hi) return 0.0;
  if (hi == lo) return 1.0;  // single-valued column inside the range

  const double width = (hi - lo) / static_cast<double>(counts.size());
  double covered = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double b_lo = lo + width * static_cast<double>(b);
    const double b_hi = b_lo + width;
    const double overlap =
        std::min(b_hi, range_hi) - std::max(b_lo, range_lo);
    if (overlap <= 0.0) continue;
    covered += static_cast<double>(counts[b]) *
               std::min(1.0, overlap / width);
  }
  return Clamp01(covered / static_cast<double>(total));
}

TableStats TableStats::Collect(const Schema& schema,
                               const ColumnStore& store) {
  TableStats stats;
  stats.row_count = store.num_rows();
  stats.columns.resize(schema.num_attributes());
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    ColumnStats& col = stats.columns[a];
    col.row_count = store.num_rows();
    col.distinct_count = store.dictionary(a).size();
    std::size_t nulls = 0;
    for (RowId r = 0; r < store.num_rows(); ++r) {
      if (store.is_null(r, a)) ++nulls;
    }
    col.null_count = nulls;

    if (schema.attribute(a).data_kind == DataKind::kNumeric) {
      col.numeric = true;
      col.histogram = Histogram::Build(store.numeric_column(a));
      col.min = col.histogram.lo;
      col.max = col.histogram.hi;
    } else {
      col.element_distinct = store.element_dictionary(a).size();
      std::size_t postings = 0;
      for (RowId r = 0; r < store.num_rows(); ++r) {
        auto [begin, end] = store.ElementSpan(r, a);
        postings += static_cast<std::size_t>(end - begin);
      }
      col.element_postings = postings;
    }
  }
  return stats;
}

double TableStats::EstimateSelectivity(const Schema& schema,
                                       const Predicate& pred) const {
  if (pred.attr >= columns.size() || row_count == 0) return 1.0;
  const ColumnStats& col = columns[pred.attr];
  const double n = static_cast<double>(row_count);
  const double non_null = 1.0 - col.null_fraction();

  if (schema.attribute(pred.attr).data_kind == DataKind::kNumeric) {
    const double t = pred.value.AsDouble();
    switch (pred.op) {
      case CompareOp::kEq:
        return Clamp01(non_null /
                       static_cast<double>(std::max<std::size_t>(
                           1, col.distinct_count)));
      case CompareOp::kNe:
        return Clamp01(1.0 - non_null / static_cast<double>(std::max<
                                 std::size_t>(1, col.distinct_count)));
      case CompareOp::kLt:
      case CompareOp::kLe:
        return Clamp01(non_null * col.histogram.EstimateRangeFraction(
                                      -std::numeric_limits<double>::infinity(),
                                      t));
      case CompareOp::kGt:
      case CompareOp::kGe:
        return Clamp01(non_null *
                       col.histogram.EstimateRangeFraction(
                           t, std::numeric_limits<double>::infinity()));
      case CompareOp::kBetween:
        return Clamp01(non_null * col.histogram.EstimateRangeFraction(
                                      t, pred.value_hi.AsDouble()));
      case CompareOp::kContains:
        // Substring match over rendered numbers: rare, weakly selective
        // guess biased high so it is not chosen as the driving predicate.
        return Clamp01(0.1 * non_null);
    }
    return 1.0;
  }

  // Text column: equality hits one element key on average.
  const double avg_postings =
      col.element_distinct == 0
          ? 0.0
          : static_cast<double>(col.element_postings) /
                static_cast<double>(col.element_distinct);
  switch (pred.op) {
    case CompareOp::kEq:
      return Clamp01(avg_postings / n);
    case CompareOp::kNe:
      return Clamp01(1.0 - avg_postings / n);
    case CompareOp::kContains: {
      // Longer needles match fewer distinct keys; scale the per-key density
      // by an inverse-length factor.
      const std::size_t len = std::max<std::size_t>(1, pred.value.text().size());
      const double keys_matched =
          static_cast<double>(col.element_distinct) /
          static_cast<double>(len);
      return Clamp01(keys_matched * avg_postings / n);
    }
    default:
      // Range operators are undefined on text: they match nothing.
      return 0.0;
  }
}

}  // namespace cqads::db::exec
