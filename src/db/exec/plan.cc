#include "db/exec/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include <cstring>

#include "db/compare.h"
#include "db/exec/rowset_ops.h"
#include "db/exec/vector_kernels.h"
#include "text/shorthand.h"

namespace cqads::db::exec {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The density at which row-at-a-time work gives way to block masks.
/// RangeScanNode::ExecuteLazy switches from the sorted-index probe to the
/// vectorized packed-column scan at this estimated selectivity: past it the
/// index path's row-id gather + sort costs more than streaming the column.
/// FilterNode::ExecuteLazy applies the same fraction to the blocks a sparse
/// child touches (see DenseInTouchedBlocks).
constexpr double kDenseFraction = 1.0 / 16.0;

/// True when a sorted row set is worth verifying block-at-a-time: at least
/// one block's worth of rows, filling the blocks it touches to at least
/// kDenseFraction. Then a mask per touched block (per-distinct-cell match
/// tables built once, word-parallel ANDs) costs less than one Matches()
/// call per row; a handful of rows strewn over many blocks does not.
bool DenseInTouchedBlocks(const RowSet& rows) {
  if (rows.size() < kBlockRows) return false;
  std::size_t touched = 0;
  std::size_t last = static_cast<std::size_t>(-1);
  for (RowId r : rows) {
    const std::size_t b = r / kBlockRows;
    if (b != last) {
      ++touched;
      last = b;
    }
  }
  return static_cast<double>(rows.size()) >=
         kDenseFraction * static_cast<double>(touched * kBlockRows);
}

/// Loads the word-aligned window of a whole-table bitmap covering rows
/// [base, base+n) into a block mask (tail words zeroed).
void LoadBlockMask(const RowBitmap& bm, std::size_t base, std::size_t n,
                   SelMask* out) {
  out->Clear();
  std::memcpy(out->words, bm.word_data() + base / 64,
              (n + 63) / 64 * sizeof(std::uint64_t));
}

/// Stores a block mask back into the bitmap window it was loaded from.
void StoreBlockMask(const SelMask& mask, std::size_t base, std::size_t n,
                    RowBitmap* bm) {
  std::memcpy(bm->word_data() + base / 64, mask.words,
              (n + 63) / 64 * sizeof(std::uint64_t));
}

std::string PredicateText(const Table& table, const Predicate& pred) {
  std::string out = table.schema().attribute(pred.attr).name;
  out += ' ';
  out += CompareOpToSql(pred.op);
  out += ' ';
  out += pred.value.ToSqlLiteral();
  if (pred.op == CompareOp::kBetween) {
    out += " AND ";
    out += pred.value_hi.ToSqlLiteral();
  }
  return out;
}

void Indent(std::string* out, int depth) {
  out->append(static_cast<std::size_t>(depth) * 2, ' ');
}

std::string SelText(double sel) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sel=%.3f", sel);
  return buf;
}

}  // namespace

// ------------------------------------------------------ CompiledPredicate

bool CompiledPredicate::Matches(const ColumnStore& store, RowId row) const {
  if (store.is_null(row, pred.attr)) {
    // Shared NULL rule: only negations match a NULL cell.
    return NullComparisonMatches(pred.op);
  }
  switch (mode) {
    case Mode::kNumeric: {
      const double v = store.numeric_column(pred.attr)[row];
      switch (pred.op) {
        case CompareOp::kEq:
          return v == lo;
        case CompareOp::kNe:
          return v != lo;
        case CompareOp::kLt:
          return v < lo;
        case CompareOp::kLe:
          return v <= lo;
        case CompareOp::kGt:
          return v > lo;
        case CompareOp::kGe:
          return v >= lo;
        case CompareOp::kBetween:
          return v >= lo && v <= hi;
        case CompareOp::kContains:
          return false;  // compiled as kNumericContains instead
      }
      return false;
    }
    case Mode::kNumericContains: {
      const auto& rendered = store.rendered_dictionary(pred.attr);
      return rendered[store.dict_code(row, pred.attr)].find(needle) !=
             std::string::npos;
    }
    case Mode::kTextCodes: {
      auto [begin, end] = store.ElementSpan(row, pred.attr);
      bool any = false;
      for (const std::uint32_t* it = begin; it != end && !any; ++it) {
        any = element_match[*it] != 0;
      }
      return pred.op == CompareOp::kNe ? !any : any;
    }
    case Mode::kNever:
      return false;
  }
  return false;
}

CompiledPredicate CompilePredicate(const Table& table, const Predicate& pred,
                                   const TableStats* stats) {
  CompiledPredicate cp;
  cp.pred = pred;
  const ColumnStore& store = table.store();
  const bool numeric =
      table.schema().attribute(pred.attr).data_kind == DataKind::kNumeric;

  if (numeric) {
    if (pred.op == CompareOp::kContains) {
      cp.mode = CompiledPredicate::Mode::kNumericContains;
      cp.needle = CanonicalContainsText(pred.value);
    } else {
      cp.mode = CompiledPredicate::Mode::kNumeric;
      cp.lo = pred.value.AsDouble();
      cp.hi = pred.op == CompareOp::kBetween ? pred.value_hi.AsDouble() : cp.lo;
    }
  } else if (pred.op == CompareOp::kEq || pred.op == CompareOp::kNe ||
             pred.op == CompareOp::kContains) {
    // Resolve the needle against the element dictionary once: per-distinct
    // string work at compile time, per-row integer work at run time.
    cp.mode = CompiledPredicate::Mode::kTextCodes;
    const std::string needle = pred.value.AsText();
    const auto& elems = store.element_dictionary(pred.attr);
    cp.element_match.assign(elems.size(), 0);
    if (pred.op == CompareOp::kContains) {
      for (std::size_t c = 0; c < elems.size(); ++c) {
        cp.element_match[c] = elems[c].find(needle) != std::string::npos;
      }
    } else {
      // Shorthand matching against cached normalized forms: the needle is
      // normalized once, each dictionary entry never again.
      const auto& norms = store.element_shorthand_norms(pred.attr);
      const std::string needle_norm =
          pred.allow_shorthand ? text::NormalizeForShorthand(needle)
                               : std::string();
      for (std::size_t c = 0; c < elems.size(); ++c) {
        cp.element_match[c] =
            elems[c] == needle ||
            (pred.allow_shorthand &&
             text::IsShorthandMatchNormalized(norms[c], elems[c],
                                              needle_norm, needle));
      }
    }
  } else {
    cp.mode = CompiledPredicate::Mode::kNever;  // range ops on text
  }

  if (stats == nullptr) stats = table.stats();
  if (stats != nullptr) {
    cp.selectivity = stats->EstimateSelectivity(table.schema(), pred);
  }
  return cp;
}

// ------------------------------------------------------------- leaf nodes

IndexScanNode::IndexScanNode(const Table* table, CompiledPredicate cp,
                             std::vector<std::string> keys)
    : table_(table), cp_(std::move(cp)), keys_(std::move(keys)) {
  est_selectivity = cp_.selectivity;
}

LazyRowSet IndexScanNode::ExecuteLazy(ExecStats* stats) const {
  ++stats->index_lookups;
  const HashIndex* idx = table_->hash_index(cp_.pred.attr);
  RowSet eq;
  for (const auto& key : keys_) {
    eq = UnionSets(eq, idx->Lookup(key), table_->num_rows());
  }
  if (cp_.pred.op == CompareOp::kNe) {
    eq = DifferenceSets(table_->AllRows(), eq, table_->num_rows());
  }
  return LazyRowSet::FromRows(std::move(eq));
}

void IndexScanNode::Explain(std::string* out, int depth) const {
  Indent(out, depth);
  *out += "IndexScan(" + PredicateText(*table_, cp_.pred) + ", " +
          SelText(est_selectivity) + ", keys=" + std::to_string(keys_.size()) +
          ")\n";
}

RangeScanNode::RangeScanNode(const Table* table, CompiledPredicate cp)
    : table_(table), cp_(std::move(cp)) {
  est_selectivity = cp_.selectivity;
}

LazyRowSet RangeScanNode::ExecuteLazy(ExecStats* stats) const {
  if (est_selectivity < kDenseFraction ||
      cp_.mode != CompiledPredicate::Mode::kNumeric) {
    return LazyRowSet::FromRows(IndexProbe(stats));  // sparse result
  }
  ++stats->full_scans;
  const std::size_t n = table_->num_rows();
  stats->rows_verified += n;
  const BlockPredicate bp(table_->store(), cp_);
  RowBitmap bm(n);
  SelMask mask;
  for (std::size_t base = 0; base < n; base += kBlockRows) {
    const std::size_t count = std::min(kBlockRows, n - base);
    bp.EvalBlock(base, count, &mask);
    StoreBlockMask(mask, base, count, &bm);
    ++stats->blocks_visited;
  }
  return LazyRowSet::FromBitmap(std::move(bm));
}

RowSet RangeScanNode::IndexProbe(ExecStats* stats) const {
  ++stats->index_lookups;
  const SortedIndex* idx = table_->sorted_index(cp_.pred.attr);
  const double t = cp_.lo;
  switch (cp_.pred.op) {
    case CompareOp::kEq:
      return idx->Range(t, t);
    case CompareOp::kNe:
      return DifferenceSets(table_->AllRows(), idx->Range(t, t),
                            table_->num_rows());
    case CompareOp::kLt:
      return idx->Range(-kInf, std::nextafter(t, -kInf));
    case CompareOp::kLe:
      return idx->Range(-kInf, t);
    case CompareOp::kGt:
      return idx->Range(std::nextafter(t, kInf), kInf);
    case CompareOp::kGe:
      return idx->Range(t, kInf);
    case CompareOp::kBetween:
      return idx->Range(t, cp_.hi);
    case CompareOp::kContains:
      return {};  // never compiled to a range scan
  }
  return {};
}

void RangeScanNode::Explain(std::string* out, int depth) const {
  Indent(out, depth);
  *out += "RangeScan(" + PredicateText(*table_, cp_.pred) + ", " +
          SelText(est_selectivity) + ")\n";
}

SubstringScanNode::SubstringScanNode(const Table* table, CompiledPredicate cp)
    : table_(table), cp_(std::move(cp)) {
  est_selectivity = cp_.selectivity;
}

LazyRowSet SubstringScanNode::ExecuteLazy(ExecStats* stats) const {
  ++stats->index_lookups;
  const NGramIndex* idx = table_->ngram_index(cp_.pred.attr);
  RowSet candidates = idx->Candidates(cp_.pred.value.AsText());
  stats->rows_verified += candidates.size();
  RowSet out;
  const ColumnStore& store = table_->store();
  if (cp_.mode == CompiledPredicate::Mode::kNumericContains) {
    // Candidates repeat dictionary codes heavily (n-gram postings point at
    // rows, values dedupe at intern time), so probe each DISTINCT code's
    // canonical rendered text once and replay the memo per row instead of
    // re-running find() per candidate. -1 = not probed yet.
    const auto& rendered = store.rendered_dictionary(cp_.pred.attr);
    std::vector<signed char> memo(rendered.size(), -1);
    for (RowId row : candidates) {
      const std::uint32_t code = store.dict_code(row, cp_.pred.attr);
      if (code == ColumnStore::kNullCode) continue;  // NULL: kContains false
      signed char& m = memo[code];
      if (m < 0) {
        m = rendered[code].find(cp_.needle) != std::string::npos ? 1 : 0;
      }
      if (m != 0) out.push_back(row);
    }
    return LazyRowSet::FromRows(std::move(out));
  }
  for (RowId row : candidates) {
    if (cp_.Matches(store, row)) out.push_back(row);
  }
  return LazyRowSet::FromRows(std::move(out));
}

void SubstringScanNode::Explain(std::string* out, int depth) const {
  Indent(out, depth);
  *out += "SubstringScan(" + PredicateText(*table_, cp_.pred) + ", " +
          SelText(est_selectivity) + ")\n";
}

FullScanFilterNode::FullScanFilterNode(const Table* table,
                                       CompiledPredicate cp)
    : table_(table), cp_(std::move(cp)) {
  est_selectivity = cp_.selectivity;
}

LazyRowSet FullScanFilterNode::ExecuteLazy(ExecStats* stats) const {
  ++stats->full_scans;
  const std::size_t n = table_->num_rows();
  stats->rows_verified += n;
  const BlockPredicate bp(table_->store(), cp_);
  RowBitmap bm(n);
  SelMask mask;
  for (std::size_t base = 0; base < n; base += kBlockRows) {
    const std::size_t count = std::min(kBlockRows, n - base);
    bp.EvalBlock(base, count, &mask);
    StoreBlockMask(mask, base, count, &bm);
    ++stats->blocks_visited;
  }
  return LazyRowSet::FromBitmap(std::move(bm));
}

void FullScanFilterNode::Explain(std::string* out, int depth) const {
  Indent(out, depth);
  *out += "FullScan(" + PredicateText(*table_, cp_.pred) + ", " +
          SelText(est_selectivity) + ")\n";
}

// ------------------------------------------------------------ inner nodes

FilterNode::FilterNode(const Table* table, PlanNodePtr child,
                       std::vector<CompiledPredicate> residual)
    : table_(table), child_(std::move(child)), residual_(std::move(residual)) {
  est_selectivity = child_->est_selectivity;
  for (const auto& cp : residual_) est_selectivity *= cp.selectivity;
}

LazyRowSet FilterNode::ExecuteLazy(ExecStats* stats) const {
  LazyRowSet child = child_->ExecuteLazy(stats);
  if (residual_.empty()) return child;
  const ColumnStore& store = table_->store();

  if (!child.is_bitmap() && DenseInTouchedBlocks(child.rows)) {
    // Sparse form, dense where it lands (an index scan over a clustered
    // column): the block-mask path below pays off.
    child = LazyRowSet::FromBitmap(
        RowBitmap::FromSet(child.rows, table_->num_rows()));
  }
  if (!child.is_bitmap()) {
    // Sparse survivors: per-distinct-cell tables would not amortize over a
    // few probes, so run the scalar single-pass conjunction.
    if (child.rows.empty()) return child;
    stats->rows_verified += child.rows.size();
    stats->rows_visited += child.rows.size();
    RowSet out;
    for (RowId row : child.rows) {
      bool keep = true;
      for (const auto& cp : residual_) {
        if (!cp.Matches(store, row)) {
          keep = false;
          break;
        }
      }
      if (keep) out.push_back(row);
    }
    return LazyRowSet::FromRows(std::move(out));
  }

  // Dense survivors: AND every residual's selection mask into the child's
  // bitmap block by block. Blocks the child already zeroed are skipped
  // without evaluating any predicate, and a block goes dark the moment its
  // mask empties mid-conjunction.
  std::vector<BlockPredicate> bps;
  bps.reserve(residual_.size());
  for (const auto& cp : residual_) bps.emplace_back(store, cp);

  RowBitmap bm = std::move(*child.bitmap);
  const std::size_t n = bm.universe();
  SelMask mask;
  for (std::size_t base = 0; base < n; base += kBlockRows) {
    const std::size_t count = std::min(kBlockRows, n - base);
    LoadBlockMask(bm, base, count, &mask);
    if (!mask.AnySet()) continue;
    ++stats->blocks_visited;
    stats->rows_visited += mask.Count();
    for (const auto& bp : bps) {
      bp.AndBlock(base, count, &mask);
      if (!mask.AnySet()) break;
    }
    StoreBlockMask(mask, base, count, &bm);
  }
  return LazyRowSet::FromBitmap(std::move(bm));
}

void FilterNode::Explain(std::string* out, int depth) const {
  for (const auto& cp : residual_) {
    Indent(out, depth);
    *out += "Filter(" + PredicateText(*table_, cp.pred) + ", " +
            SelText(cp.selectivity) + ")\n";
    ++depth;
  }
  child_->Explain(out, depth);
}

IntersectNode::IntersectNode(const Table* table,
                             std::vector<PlanNodePtr> children)
    : table_(table), children_(std::move(children)) {
  est_selectivity = 1.0;
  for (const auto& c : children_) est_selectivity *= c->est_selectivity;
}

LazyRowSet IntersectNode::ExecuteLazy(ExecStats* stats) const {
  LazyRowSet acc;
  bool first = true;
  for (const auto& child : children_) {
    LazyRowSet s = child->ExecuteLazy(stats);
    if (first) {
      acc = std::move(s);
      first = false;
    } else {
      acc.IntersectWith(std::move(s), table_->num_rows());
    }
    if (acc.Count() == 0) break;
  }
  return acc;
}

void IntersectNode::Explain(std::string* out, int depth) const {
  Indent(out, depth);
  *out += "Intersect(" + SelText(est_selectivity) + ")\n";
  for (const auto& c : children_) c->Explain(out, depth + 1);
}

UnionNode::UnionNode(const Table* table, std::vector<PlanNodePtr> children)
    : table_(table), children_(std::move(children)) {
  est_selectivity = 0.0;
  for (const auto& c : children_) est_selectivity += c->est_selectivity;
  est_selectivity = std::min(1.0, est_selectivity);
}

LazyRowSet UnionNode::ExecuteLazy(ExecStats* stats) const {
  LazyRowSet acc;
  for (const auto& child : children_) {
    acc.UnionWith(child->ExecuteLazy(stats), table_->num_rows());
  }
  return acc;
}

void UnionNode::Explain(std::string* out, int depth) const {
  Indent(out, depth);
  *out += "Union(" + SelText(est_selectivity) + ")\n";
  for (const auto& c : children_) c->Explain(out, depth + 1);
}

NotNode::NotNode(const Table* table, PlanNodePtr child)
    : table_(table), child_(std::move(child)) {
  est_selectivity = std::max(0.0, 1.0 - child_->est_selectivity);
}

LazyRowSet NotNode::ExecuteLazy(ExecStats* stats) const {
  LazyRowSet s = child_->ExecuteLazy(stats);
  s.ComplementWithin(table_->num_rows());
  return s;
}

void NotNode::Explain(std::string* out, int depth) const {
  Indent(out, depth);
  *out += "Not(" + SelText(est_selectivity) + ")\n";
  child_->Explain(out, depth + 1);
}

// ----------------------------------------------------------- PhysicalPlan

PhysicalPlan::PhysicalPlan(const Table* table, PlanNodePtr root,
                           std::optional<Superlative> superlative,
                           std::size_t limit)
    : table_(table),
      root_(std::move(root)),
      superlative_(superlative),
      limit_(limit) {}

Result<LazyRowSet> PhysicalPlan::ExecuteLazy(ExecStats* stats) const {
  if (!table_->indexes_built()) {
    return Status::FailedPrecondition("table indexes not built");
  }
  if (root_ == nullptr) return LazyRowSet::FromRows(table_->AllRows());
  return root_->ExecuteLazy(stats);
}

Result<RowSet> PhysicalPlan::ExecuteRowSet(ExecStats* stats) const {
  auto lazy = ExecuteLazy(stats);
  if (!lazy.ok()) return lazy.status();
  return std::move(lazy).value().ToRows();
}

Result<QueryResult> PhysicalPlan::Execute() const {
  QueryResult result;
  auto row_result = ExecuteRowSet(&result.stats);
  if (!row_result.ok()) return row_result.status();
  RowSet rows = std::move(row_result).value();
  ApplySuperlativeAndCap(
      &rows, superlative_,
      [&](RowId r, std::size_t a) -> const Value& { return table_->cell(r, a); },
      limit_);
  result.rows = std::move(rows);
  return result;
}

std::string PhysicalPlan::Explain() const {
  std::string out = "Plan(limit=" + std::to_string(limit_);
  if (superlative_) {
    out += ", superlative=" +
           table_->schema().attribute(superlative_->attr).name +
           (superlative_->ascending ? " asc" : " desc");
  }
  out += ")\n";
  if (root_) {
    root_->Explain(&out, 1);
  } else {
    out += "  AllRows\n";
  }
  return out;
}

}  // namespace cqads::db::exec
