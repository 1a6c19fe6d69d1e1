#include "snapshot/serde.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "classify/beta_binomial.h"
#include "db/query.h"

namespace cqads::snapshot {

namespace {

// --- string columns (offset table + character arena) ------------------------
//
// The layout the tentpole asks for: one offsets array (count+1 entries) and
// one contiguous character arena per string field, instead of count
// length-prefixed records. Strings are materialized on the heap at load.

template <typename Get>
void WriteStringColumn(ByteWriter* w, std::size_t count, Get get) {
  std::vector<std::uint64_t> offsets;
  offsets.reserve(count + 1);
  std::uint64_t off = 0;
  offsets.push_back(0);
  std::string arena;
  for (std::size_t i = 0; i < count; ++i) {
    std::string_view s = get(i);
    arena.append(s);
    off += s.size();
    offsets.push_back(off);
  }
  w->WritePacked(offsets.data(), offsets.size());
  w->WritePacked(arena.data(), arena.size());
}

Status ReadStringColumn(ByteReader* r, std::vector<std::string>* out) {
  std::vector<std::uint64_t> offsets;
  CQADS_RETURN_NOT_OK(r->ReadPacked(&offsets));
  std::vector<char> arena;
  CQADS_RETURN_NOT_OK(r->ReadPacked(&arena));
  if (offsets.empty()) return r->Corrupt("string column missing offset table");
  if (offsets.front() != 0 || offsets.back() != arena.size()) {
    return r->Corrupt("string column offsets do not cover the arena");
  }
  const std::size_t count = offsets.size() - 1;
  // Validate the WHOLE offset table before building any string: a single
  // lazily-checked pair would let one huge intermediate offset (still ≥ its
  // predecessor) drive a giant out-of-bounds string construction below.
  for (std::size_t i = 0; i < count; ++i) {
    if (offsets[i + 1] < offsets[i]) {
      return r->Corrupt("string column offsets not monotone");
    }
  }
  out->clear();
  out->reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out->emplace_back(arena.data() + offsets[i],
                      static_cast<std::size_t>(offsets[i + 1] - offsets[i]));
  }
  return Status::OK();
}

// --- CSR adjacency (shared by the WS and TI matrices) -----------------------

struct CsrViews {
  common::PodVec<std::uint32_t> row_begin;
  common::PodVec<text::TermId> neighbor;
  common::PodVec<double> sim;
};

void WriteCsr(const common::PodVec<std::uint32_t>& row_begin,
              const common::PodVec<text::TermId>& neighbor,
              const common::PodVec<double>& sim, ByteWriter* w) {
  w->WriteArray(row_begin.data(), row_begin.size());
  w->WriteArray(neighbor.data(), neighbor.size());
  w->WriteArray(sim.data(), sim.size());
}

Status ReadCsr(ByteReader* r, const ArenaPtr& owner, std::size_t vocab,
               CsrViews* out) {
  const std::uint32_t* rb = nullptr;
  std::size_t n_rb = 0;
  CQADS_RETURN_NOT_OK(r->ReadArray(&rb, &n_rb));
  const text::TermId* nb = nullptr;
  std::size_t n_nb = 0;
  CQADS_RETURN_NOT_OK(r->ReadArray(&nb, &n_nb));
  const double* sm = nullptr;
  std::size_t n_sm = 0;
  CQADS_RETURN_NOT_OK(r->ReadArray(&sm, &n_sm));

  if (n_nb != n_sm) return r->Corrupt("CSR neighbor/sim arrays differ");
  if (n_rb == 0) {
    if (vocab != 0 || n_nb != 0) return r->Corrupt("CSR rows missing");
  } else {
    if (n_rb != vocab + 1) return r->Corrupt("CSR row count != vocabulary");
    if (rb[0] != 0 || rb[n_rb - 1] != n_nb) {
      return r->Corrupt("CSR row offsets do not cover adjacency");
    }
    for (std::size_t i = 1; i < n_rb; ++i) {
      if (rb[i] < rb[i - 1]) return r->Corrupt("CSR row offsets not monotone");
    }
    for (std::size_t i = 0; i < n_nb; ++i) {
      if (nb[i] >= vocab) return r->Corrupt("CSR neighbor id out of range");
    }
  }
  out->row_begin = common::PodVec<std::uint32_t>::View(rb, n_rb, owner);
  out->neighbor = common::PodVec<text::TermId>::View(nb, n_nb, owner);
  out->sim = common::PodVec<double>::View(sm, n_sm, owner);
  return Status::OK();
}

template <typename Map>
std::vector<std::string> SortedKeys(const Map& m) {
  std::vector<std::string> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

// --- TermDict ----------------------------------------------------------------

void SerdeAccess::WriteTermDict(const text::TermDict& d, ByteWriter* w) {
  const std::size_t n = d.entries_.size();
  w->WriteU64(n);
  w->WriteBool(d.frozen_);
  WriteStringColumn(w, n, [&](std::size_t i) -> std::string_view {
    return d.entries_[i].text;
  });
  WriteStringColumn(w, n, [&](std::size_t i) -> std::string_view {
    return d.entries_[i].stem;
  });
  WriteStringColumn(w, n, [&](std::size_t i) -> std::string_view {
    return d.entries_[i].shorthand_norm;
  });
  std::vector<std::uint32_t> stem_ids(n);
  std::vector<std::uint8_t> stopwords(n);
  for (std::size_t i = 0; i < n; ++i) {
    stem_ids[i] = d.entries_[i].stem_id;
    stopwords[i] = d.entries_[i].stopword ? 1 : 0;
  }
  w->WritePacked(stem_ids.data(), n);
  w->WritePacked(stopwords.data(), n);
}

Status SerdeAccess::ReadTermDict(ByteReader* r, text::TermDict* out) {
  std::uint64_t n = 0;
  CQADS_RETURN_NOT_OK(r->ReadU64(&n));
  bool frozen = false;
  CQADS_RETURN_NOT_OK(r->ReadBool(&frozen));
  std::vector<std::string> texts, stems, norms;
  CQADS_RETURN_NOT_OK(ReadStringColumn(r, &texts));
  CQADS_RETURN_NOT_OK(ReadStringColumn(r, &stems));
  CQADS_RETURN_NOT_OK(ReadStringColumn(r, &norms));
  std::vector<std::uint32_t> stem_ids;
  std::vector<std::uint8_t> stopwords;
  CQADS_RETURN_NOT_OK(r->ReadPacked(&stem_ids));
  CQADS_RETURN_NOT_OK(r->ReadPacked(&stopwords));
  if (texts.size() != n || stems.size() != n || norms.size() != n ||
      stem_ids.size() != n || stopwords.size() != n) {
    return r->Corrupt("term dict field arrays disagree on entry count");
  }
  out->entries_.clear();
  out->index_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    // Cached derived forms restored verbatim — no Porter re-stemming, no
    // shorthand re-normalization at load.
    out->entries_.push_back({std::move(texts[i]), std::move(stems[i]),
                             std::move(norms[i]), stem_ids[i],
                             stopwords[i] != 0});
  }
  out->index_.reserve(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    out->index_.emplace(std::string_view(out->entries_[i].text),
                        static_cast<text::TermId>(i));
  }
  if (out->index_.size() != n) {
    return r->Corrupt("term dict contains duplicate terms");
  }
  out->frozen_ = frozen;
  return Status::OK();
}

// --- FlatTrie ----------------------------------------------------------------

void SerdeAccess::WriteFlatTrie(const trie::FlatTrie& t, ByteWriter* w) {
  w->WriteU64(t.keyword_count_);
  w->WriteArray(t.nodes_.data(), t.nodes_.size());
  w->WriteArray(t.edges_.data(), t.edges_.size());
  w->WriteArray(t.handles_.data(), t.handles_.size());
}

Status SerdeAccess::ReadFlatTrie(ByteReader* r, const ArenaPtr& owner,
                                 trie::FlatTrie* out) {
  using Node = trie::FlatTrie::Node;
  using Edge = trie::FlatTrie::Edge;
  std::uint64_t keyword_count = 0;
  CQADS_RETURN_NOT_OK(r->ReadU64(&keyword_count));
  const Node* nodes = nullptr;
  std::size_t n_nodes = 0;
  CQADS_RETURN_NOT_OK(r->ReadArray(&nodes, &n_nodes));
  const Edge* edges = nullptr;
  std::size_t n_edges = 0;
  CQADS_RETURN_NOT_OK(r->ReadArray(&edges, &n_edges));
  const std::int32_t* handles = nullptr;
  std::size_t n_handles = 0;
  CQADS_RETURN_NOT_OK(r->ReadArray(&handles, &n_handles));
  // Structural bounds: a serve-time walk indexes edges/handles through node
  // spans and nodes through edge targets; none may escape its array.
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const Node& nd = nodes[i];
    if (static_cast<std::uint64_t>(nd.edge_begin) + nd.edge_count > n_edges ||
        static_cast<std::uint64_t>(nd.handle_begin) + nd.handle_count >
            n_handles) {
      return r->Corrupt("trie node span out of bounds");
    }
  }
  for (std::size_t i = 0; i < n_edges; ++i) {
    if (edges[i].target >= n_nodes) {
      return r->Corrupt("trie edge target out of bounds");
    }
  }
  // Tree shape, in the DFS preorder BuildNode writes: node i's edges follow
  // node i-1's, each targets a node after i, and every node but the root
  // has exactly one parent edge. A cycle or a shared subtree would make
  // Completions (and with it spelling correction) enumerate without end.
  std::vector<bool> has_parent(n_nodes, false);
  std::uint64_t next_edge = 0;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (nodes[i].edge_begin != next_edge) {
      return r->Corrupt("trie edge spans not in node order");
    }
    next_edge += nodes[i].edge_count;
    for (std::uint64_t e = nodes[i].edge_begin; e < next_edge; ++e) {
      const std::uint32_t target = edges[e].target;
      if (target <= i || has_parent[target]) {
        return r->Corrupt("trie edges do not form a tree");
      }
      has_parent[target] = true;
    }
  }
  if (next_edge != n_edges ||
      n_edges + 1 != std::max<std::size_t>(n_nodes, 1)) {
    return r->Corrupt("trie edges do not form a tree");
  }
  out->nodes_ = common::PodVec<Node>::View(nodes, n_nodes, owner);
  out->edges_ = common::PodVec<Edge>::View(edges, n_edges, owner);
  out->handles_ =
      common::PodVec<std::int32_t>::View(handles, n_handles, owner);
  out->keyword_count_ = static_cast<std::size_t>(keyword_count);
  return Status::OK();
}

// --- WS matrix ---------------------------------------------------------------

void SerdeAccess::WriteWsMatrix(const wordsim::WsMatrix& m, ByteWriter* w) {
  WriteTermDict(m.dict_, w);
  w->WriteU64(m.pair_count_);
  w->WriteDouble(m.max_sim_);
  WriteCsr(m.row_begin_, m.neighbor_, m.sim_, w);
}

Status SerdeAccess::ReadWsMatrix(ByteReader* r, const ArenaPtr& owner,
                                 wordsim::WsMatrix* out) {
  CQADS_RETURN_NOT_OK(ReadTermDict(r, &out->dict_));
  std::uint64_t pair_count = 0;
  CQADS_RETURN_NOT_OK(r->ReadU64(&pair_count));
  CQADS_RETURN_NOT_OK(r->ReadDouble(&out->max_sim_));
  CsrViews csr;
  CQADS_RETURN_NOT_OK(ReadCsr(r, owner, out->dict_.size(), &csr));
  out->row_begin_ = std::move(csr.row_begin);
  out->neighbor_ = std::move(csr.neighbor);
  out->sim_ = std::move(csr.sim);
  out->pair_count_ = static_cast<std::size_t>(pair_count);
  return Status::OK();
}

// --- TI matrix ---------------------------------------------------------------

void SerdeAccess::WriteTiMatrix(const qlog::TiMatrix& m, ByteWriter* w) {
  WriteTermDict(m.dict_, w);
  w->WriteU64(m.pair_count_);
  w->WriteDouble(m.max_sim_);
  WriteCsr(m.row_begin_, m.neighbor_, m.sim_, w);
  // Raw feature accumulators (diagnostics): std::map iterates sorted.
  w->WriteU64(m.features_.size());
  for (const auto& [key, f] : m.features_) {
    w->WriteString(key.first);
    w->WriteString(key.second);
    w->WriteDouble(f.mod_count);
    w->WriteDouble(f.time_sum);
    w->WriteDouble(f.time_pairs);
    w->WriteDouble(f.dwell_sum);
    w->WriteDouble(f.dwell_obs);
    w->WriteDouble(f.rank_sum);
    w->WriteDouble(f.rank_obs);
    w->WriteDouble(f.click_count);
  }
}

Status SerdeAccess::ReadTiMatrix(ByteReader* r, const ArenaPtr& owner,
                                 qlog::TiMatrix* out) {
  CQADS_RETURN_NOT_OK(ReadTermDict(r, &out->dict_));
  std::uint64_t pair_count = 0;
  CQADS_RETURN_NOT_OK(r->ReadU64(&pair_count));
  CQADS_RETURN_NOT_OK(r->ReadDouble(&out->max_sim_));
  CsrViews csr;
  CQADS_RETURN_NOT_OK(ReadCsr(r, owner, out->dict_.size(), &csr));
  out->row_begin_ = std::move(csr.row_begin);
  out->neighbor_ = std::move(csr.neighbor);
  out->sim_ = std::move(csr.sim);
  out->pair_count_ = static_cast<std::size_t>(pair_count);
  std::uint64_t n_features = 0;
  // 2 length prefixes + 8 doubles = 80 bytes minimum per entry.
  CQADS_RETURN_NOT_OK(r->ReadCount(&n_features, 80));
  out->features_.clear();
  for (std::uint64_t i = 0; i < n_features; ++i) {
    std::string a, b;
    CQADS_RETURN_NOT_OK(r->ReadString(&a));
    CQADS_RETURN_NOT_OK(r->ReadString(&b));
    qlog::PairFeatures f;
    CQADS_RETURN_NOT_OK(r->ReadDouble(&f.mod_count));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&f.time_sum));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&f.time_pairs));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&f.dwell_sum));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&f.dwell_obs));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&f.rank_sum));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&f.rank_obs));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&f.click_count));
    out->features_.emplace(qlog::TiMatrix::Key(std::move(a), std::move(b)),
                           f);
  }
  return Status::OK();
}

// --- Value / Schema ----------------------------------------------------------

namespace {
constexpr std::uint8_t kValueNull = 0;
constexpr std::uint8_t kValueInt = 1;
constexpr std::uint8_t kValueReal = 2;
constexpr std::uint8_t kValueText = 3;
}  // namespace

void SerdeAccess::WriteValue(const db::Value& v, ByteWriter* w) {
  if (v.is_int()) {
    w->WriteU8(kValueInt);
    // Exact decimal rendering: int64s beyond 2^53 survive, unlike a double
    // round-trip.
    w->WriteString(v.AsText());
  } else if (v.is_real()) {
    w->WriteU8(kValueReal);
    w->WriteDouble(v.AsDouble());
  } else if (v.is_text()) {
    w->WriteU8(kValueText);
    w->WriteString(v.text());
  } else {
    w->WriteU8(kValueNull);
  }
}

Status SerdeAccess::ReadValue(ByteReader* r, db::Value* out) {
  std::uint8_t tag = 0;
  CQADS_RETURN_NOT_OK(r->ReadU8(&tag));
  switch (tag) {
    case kValueNull:
      *out = db::Value::Null();
      return Status::OK();
    case kValueInt: {
      std::string text;
      CQADS_RETURN_NOT_OK(r->ReadString(&text));
      std::int64_t v = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return r->Corrupt("unparseable integer value");
      }
      *out = db::Value::Int(v);
      return Status::OK();
    }
    case kValueReal: {
      double v = 0.0;
      CQADS_RETURN_NOT_OK(r->ReadDouble(&v));
      *out = db::Value::Real(v);
      return Status::OK();
    }
    case kValueText: {
      std::string text;
      CQADS_RETURN_NOT_OK(r->ReadString(&text));
      *out = db::Value::Text(std::move(text));
      return Status::OK();
    }
    default:
      return r->Corrupt("unknown value tag");
  }
}

void SerdeAccess::WriteSchema(const db::Schema& s, ByteWriter* w) {
  w->WriteString(s.domain());
  w->WriteU64(s.num_attributes());
  for (const auto& a : s.attributes()) {
    w->WriteString(a.name);
    w->WriteU8(static_cast<std::uint8_t>(a.attr_type));
    w->WriteU8(static_cast<std::uint8_t>(a.data_kind));
    w->WriteU64(a.unit_keywords.size());
    for (const auto& k : a.unit_keywords) w->WriteString(k);
    w->WriteU64(a.aliases.size());
    for (const auto& k : a.aliases) w->WriteString(k);
  }
}

Status SerdeAccess::ReadSchema(ByteReader* r, db::Schema* out) {
  std::string domain;
  CQADS_RETURN_NOT_OK(r->ReadString(&domain));
  std::uint64_t n_attrs = 0;
  CQADS_RETURN_NOT_OK(r->ReadCount(&n_attrs, 16));
  std::vector<db::Attribute> attrs;
  attrs.reserve(static_cast<std::size_t>(n_attrs));
  for (std::uint64_t i = 0; i < n_attrs; ++i) {
    db::Attribute a;
    CQADS_RETURN_NOT_OK(r->ReadString(&a.name));
    std::uint8_t attr_type = 0, data_kind = 0;
    CQADS_RETURN_NOT_OK(r->ReadU8(&attr_type));
    CQADS_RETURN_NOT_OK(r->ReadU8(&data_kind));
    if (attr_type > static_cast<std::uint8_t>(db::AttrType::kTypeIII) ||
        data_kind > static_cast<std::uint8_t>(db::DataKind::kTextList)) {
      return r->Corrupt("attribute enum out of range");
    }
    a.attr_type = static_cast<db::AttrType>(attr_type);
    a.data_kind = static_cast<db::DataKind>(data_kind);
    std::uint64_t n = 0;
    CQADS_RETURN_NOT_OK(r->ReadCount(&n, 8));
    for (std::uint64_t k = 0; k < n; ++k) {
      std::string s;
      CQADS_RETURN_NOT_OK(r->ReadString(&s));
      a.unit_keywords.push_back(std::move(s));
    }
    CQADS_RETURN_NOT_OK(r->ReadCount(&n, 8));
    for (std::uint64_t k = 0; k < n; ++k) {
      std::string s;
      CQADS_RETURN_NOT_OK(r->ReadString(&s));
      a.aliases.push_back(std::move(s));
    }
    attrs.push_back(std::move(a));
  }
  *out = db::Schema(std::move(domain), std::move(attrs));
  CQADS_RETURN_NOT_OK(out->Validate());
  return Status::OK();
}

// --- ColumnStore -------------------------------------------------------------

void SerdeAccess::WriteColumnStore(const db::ColumnStore& s, ByteWriter* w) {
  w->WriteU64(s.num_rows_);
  w->WriteU64(s.cols_.size());
  for (const auto& col : s.cols_) {
    w->WriteU64(col.dict.size());
    for (const auto& v : col.dict) WriteValue(v, w);
    WriteStringColumn(w, col.rendered.size(),
                      [&](std::size_t i) -> std::string_view {
                        return col.rendered[i];
                      });
    w->WriteArray(col.codes.data(), col.codes.size());
    w->WriteArray(col.null_bits.data(), col.null_bits.size());
    WriteStringColumn(w, col.elem_dict.size(),
                      [&](std::size_t i) -> std::string_view {
                        return col.elem_dict[i];
                      });
    WriteStringColumn(w, col.elem_norms.size(),
                      [&](std::size_t i) -> std::string_view {
                        return col.elem_norms[i];
                      });
    w->WriteArray(col.elem_codes.data(), col.elem_codes.size());
    w->WriteArray(col.elem_offsets.data(), col.elem_offsets.size());
    w->WriteArray(col.dict_spans.data(), col.dict_spans.size());
    w->WriteArray(col.packed.data(), col.packed.size());
  }
}

Status SerdeAccess::ReadColumnStore(ByteReader* r, const ArenaPtr& owner,
                                    db::ColumnStore* out) {
  std::uint64_t num_rows = 0;
  CQADS_RETURN_NOT_OK(r->ReadU64(&num_rows));
  std::uint64_t n_cols = 0;
  CQADS_RETURN_NOT_OK(r->ReadU64(&n_cols));
  if (n_cols != out->cols_.size()) {
    return r->Corrupt("column count does not match schema");
  }
  for (auto& col : out->cols_) {
    std::uint64_t dict_size = 0;
    CQADS_RETURN_NOT_OK(r->ReadCount(&dict_size, 1));
    col.dict.clear();
    col.dict.reserve(static_cast<std::size_t>(dict_size));
    for (std::uint64_t i = 0; i < dict_size; ++i) {
      db::Value v;
      CQADS_RETURN_NOT_OK(ReadValue(r, &v));
      col.dict.push_back(std::move(v));
    }
    CQADS_RETURN_NOT_OK(ReadStringColumn(r, &col.rendered));

    const std::uint32_t* codes = nullptr;
    std::size_t n_codes = 0;
    CQADS_RETURN_NOT_OK(r->ReadArray(&codes, &n_codes));
    if (n_codes != num_rows) return r->Corrupt("code column row mismatch");
    for (std::size_t i = 0; i < n_codes; ++i) {
      if (codes[i] != db::ColumnStore::kNullCode && codes[i] >= dict_size) {
        return r->Corrupt("dictionary code out of range");
      }
    }
    const std::uint64_t* null_bits = nullptr;
    std::size_t n_null = 0;
    CQADS_RETURN_NOT_OK(r->ReadArray(&null_bits, &n_null));

    CQADS_RETURN_NOT_OK(ReadStringColumn(r, &col.elem_dict));
    CQADS_RETURN_NOT_OK(ReadStringColumn(r, &col.elem_norms));

    const std::uint32_t* elem_codes = nullptr;
    std::size_t n_elem_codes = 0;
    CQADS_RETURN_NOT_OK(r->ReadArray(&elem_codes, &n_elem_codes));
    for (std::size_t i = 0; i < n_elem_codes; ++i) {
      if (elem_codes[i] >= col.elem_dict.size()) {
        return r->Corrupt("element code out of range");
      }
    }
    const std::uint32_t* elem_offsets = nullptr;
    std::size_t n_elem_offsets = 0;
    CQADS_RETURN_NOT_OK(r->ReadArray(&elem_offsets, &n_elem_offsets));
    for (std::size_t i = 0; i < n_elem_offsets; ++i) {
      if (elem_offsets[i] > n_elem_codes ||
          (i > 0 && elem_offsets[i] < elem_offsets[i - 1])) {
        return r->Corrupt("element offsets not monotone");
      }
    }
    const db::ColumnStore::DictSpan* spans = nullptr;
    std::size_t n_spans = 0;
    CQADS_RETURN_NOT_OK(r->ReadArray(&spans, &n_spans));
    for (std::size_t i = 0; i < n_spans; ++i) {
      if (spans[i].begin > spans[i].end || spans[i].end > n_elem_codes) {
        return r->Corrupt("dictionary element span out of bounds");
      }
    }
    const double* packed = nullptr;
    std::size_t n_packed = 0;
    CQADS_RETURN_NOT_OK(r->ReadArray(&packed, &n_packed));

    col.codes = common::PodVec<std::uint32_t>::View(codes, n_codes, owner);
    col.null_bits =
        common::PodVec<std::uint64_t>::View(null_bits, n_null, owner);
    col.elem_codes =
        common::PodVec<std::uint32_t>::View(elem_codes, n_elem_codes, owner);
    col.elem_offsets = common::PodVec<std::uint32_t>::View(
        elem_offsets, n_elem_offsets, owner);
    col.dict_spans = common::PodVec<db::ColumnStore::DictSpan>::View(
        spans, n_spans, owner);
    col.packed = common::PodVec<double>::View(packed, n_packed, owner);
    // Intern tables deliberately stay empty: Append is forbidden on a
    // frozen store; ingest goes through DeltaStore heap generations.
    col.dict_lookup.clear();
    col.elem_lookup.clear();
  }
  out->num_rows_ = static_cast<std::size_t>(num_rows);
  out->frozen_ = true;
  return Status::OK();
}

// --- indexes -----------------------------------------------------------------

void SerdeAccess::WriteHashIndex(const db::HashIndex& idx, ByteWriter* w) {
  auto keys = SortedKeys(idx.postings_);
  w->WriteU64(keys.size());
  for (const auto& k : keys) {
    w->WriteString(k);
    const auto& rows = idx.postings_.at(k);
    w->WritePacked(rows.data(), rows.size());
  }
}

Status SerdeAccess::ReadHashIndex(ByteReader* r, db::HashIndex* out) {
  std::uint64_t n = 0;
  CQADS_RETURN_NOT_OK(r->ReadCount(&n, 16));
  out->postings_.clear();
  out->postings_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    CQADS_RETURN_NOT_OK(r->ReadString(&key));
    db::RowSet rows;
    CQADS_RETURN_NOT_OK(r->ReadPacked(&rows));
    if (!out->postings_.emplace(std::move(key), std::move(rows)).second) {
      return r->Corrupt("duplicate hash index key");
    }
  }
  return Status::OK();
}

void SerdeAccess::WriteSortedIndex(const db::SortedIndex& idx, ByteWriter* w) {
  // entries_ is vector<pair<double, RowId>>; std::pair is not trivially
  // copyable, so the pairs are written as split key/row arrays.
  const std::size_t n = idx.entries_.size();
  std::vector<double> keys(n);
  std::vector<db::RowId> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = idx.entries_[i].first;
    rows[i] = idx.entries_[i].second;
  }
  w->WritePacked(keys.data(), n);
  w->WritePacked(rows.data(), n);
  w->WriteBool(idx.sealed_);
}

Status SerdeAccess::ReadSortedIndex(ByteReader* r, db::SortedIndex* out) {
  std::vector<double> keys;
  std::vector<db::RowId> rows;
  CQADS_RETURN_NOT_OK(r->ReadPacked(&keys));
  CQADS_RETURN_NOT_OK(r->ReadPacked(&rows));
  if (keys.size() != rows.size()) {
    return r->Corrupt("sorted index key/row arrays differ");
  }
  out->entries_.clear();
  out->entries_.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out->entries_.emplace_back(keys[i], rows[i]);
  }
  CQADS_RETURN_NOT_OK(r->ReadBool(&out->sealed_));
  return Status::OK();
}

void SerdeAccess::WriteNGramIndex(const db::NGramIndex& idx, ByteWriter* w) {
  auto keys = SortedKeys(idx.postings_);
  w->WriteU64(keys.size());
  for (const auto& k : keys) {
    w->WriteString(k);
    const auto& rows = idx.postings_.at(k);
    w->WritePacked(rows.data(), rows.size());
  }
}

Status SerdeAccess::ReadNGramIndex(ByteReader* r, db::NGramIndex* out) {
  std::uint64_t n = 0;
  CQADS_RETURN_NOT_OK(r->ReadCount(&n, 16));
  out->postings_.clear();
  out->postings_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    CQADS_RETURN_NOT_OK(r->ReadString(&key));
    db::RowSet rows;
    CQADS_RETURN_NOT_OK(r->ReadPacked(&rows));
    if (!out->postings_.emplace(std::move(key), std::move(rows)).second) {
      return r->Corrupt("duplicate n-gram index key");
    }
  }
  return Status::OK();
}

// --- TableStats --------------------------------------------------------------

void SerdeAccess::WriteStats(const db::exec::TableStats& s, ByteWriter* w) {
  w->WriteU64(s.row_count);
  w->WriteU64(s.columns.size());
  for (const auto& c : s.columns) {
    w->WriteU64(c.row_count);
    w->WriteU64(c.null_count);
    w->WriteU64(c.distinct_count);
    w->WriteU64(c.element_distinct);
    w->WriteU64(c.element_postings);
    w->WriteBool(c.numeric);
    w->WriteDouble(c.min);
    w->WriteDouble(c.max);
    w->WriteDouble(c.histogram.lo);
    w->WriteDouble(c.histogram.hi);
    w->WritePacked(c.histogram.counts.data(), c.histogram.counts.size());
    w->WriteU64(c.histogram.total);
  }
}

Status SerdeAccess::ReadStats(ByteReader* r, db::exec::TableStats* out) {
  std::uint64_t row_count = 0;
  CQADS_RETURN_NOT_OK(r->ReadU64(&row_count));
  out->row_count = static_cast<std::size_t>(row_count);
  std::uint64_t n_cols = 0;
  CQADS_RETURN_NOT_OK(r->ReadCount(&n_cols, 64));
  out->columns.clear();
  out->columns.reserve(static_cast<std::size_t>(n_cols));
  for (std::uint64_t i = 0; i < n_cols; ++i) {
    db::exec::ColumnStats c;
    std::uint64_t v = 0;
    CQADS_RETURN_NOT_OK(r->ReadU64(&v));
    c.row_count = static_cast<std::size_t>(v);
    CQADS_RETURN_NOT_OK(r->ReadU64(&v));
    c.null_count = static_cast<std::size_t>(v);
    CQADS_RETURN_NOT_OK(r->ReadU64(&v));
    c.distinct_count = static_cast<std::size_t>(v);
    CQADS_RETURN_NOT_OK(r->ReadU64(&v));
    c.element_distinct = static_cast<std::size_t>(v);
    CQADS_RETURN_NOT_OK(r->ReadU64(&v));
    c.element_postings = static_cast<std::size_t>(v);
    CQADS_RETURN_NOT_OK(r->ReadBool(&c.numeric));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&c.min));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&c.max));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&c.histogram.lo));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&c.histogram.hi));
    CQADS_RETURN_NOT_OK(r->ReadPacked(&c.histogram.counts));
    CQADS_RETURN_NOT_OK(r->ReadU64(&c.histogram.total));
    out->columns.push_back(std::move(c));
  }
  return Status::OK();
}

// --- Table -------------------------------------------------------------------

void SerdeAccess::WriteTable(const db::Table& t, ByteWriter* w) {
  WriteSchema(t.schema_, w);
  WriteColumnStore(t.store_, w);
  w->WriteU64(t.hash_indexes_.size());
  for (const auto& idx : t.hash_indexes_) WriteHashIndex(idx, w);
  w->WriteU64(t.sorted_indexes_.size());
  for (const auto& idx : t.sorted_indexes_) WriteSortedIndex(idx, w);
  w->WriteU64(t.ngram_indexes_.size());
  for (const auto& idx : t.ngram_indexes_) WriteNGramIndex(idx, w);
  w->WriteBool(t.indexes_built_);
  w->WriteBool(t.stats_ != nullptr);
  if (t.stats_ != nullptr) WriteStats(*t.stats_, w);
}

Status SerdeAccess::ReadTable(ByteReader* r, const ArenaPtr& owner,
                              std::unique_ptr<db::Table>* out) {
  db::Schema schema;
  CQADS_RETURN_NOT_OK(ReadSchema(r, &schema));
  auto table = std::make_unique<db::Table>(std::move(schema));
  CQADS_RETURN_NOT_OK(ReadColumnStore(r, owner, &table->store_));

  const std::size_t n_attrs = table->schema_.num_attributes();
  std::uint64_t n = 0;
  CQADS_RETURN_NOT_OK(r->ReadCount(&n, 8));
  if (n != 0 && n != n_attrs) return r->Corrupt("hash index count mismatch");
  table->hash_indexes_.resize(static_cast<std::size_t>(n));
  for (auto& idx : table->hash_indexes_) {
    CQADS_RETURN_NOT_OK(ReadHashIndex(r, &idx));
  }
  CQADS_RETURN_NOT_OK(r->ReadCount(&n, 8));
  if (n != 0 && n != n_attrs) {
    return r->Corrupt("sorted index count mismatch");
  }
  table->sorted_indexes_.resize(static_cast<std::size_t>(n));
  for (auto& idx : table->sorted_indexes_) {
    CQADS_RETURN_NOT_OK(ReadSortedIndex(r, &idx));
  }
  CQADS_RETURN_NOT_OK(r->ReadCount(&n, 8));
  if (n != 0 && n != n_attrs) return r->Corrupt("n-gram index count mismatch");
  table->ngram_indexes_.resize(static_cast<std::size_t>(n));
  for (auto& idx : table->ngram_indexes_) {
    CQADS_RETURN_NOT_OK(ReadNGramIndex(r, &idx));
  }
  CQADS_RETURN_NOT_OK(r->ReadBool(&table->indexes_built_));
  bool has_stats = false;
  CQADS_RETURN_NOT_OK(r->ReadBool(&has_stats));
  if (has_stats) {
    auto stats = std::make_shared<db::exec::TableStats>();
    CQADS_RETURN_NOT_OK(ReadStats(r, stats.get()));
    table->stats_ = std::move(stats);
  }
  if (table->indexes_built_ &&
      (table->hash_indexes_.size() != n_attrs || table->stats_ == nullptr)) {
    return r->Corrupt("table marked indexed but access paths missing");
  }
  *out = std::move(table);
  return Status::OK();
}

// --- TaggedItem / DomainLexicon ---------------------------------------------

void SerdeAccess::WriteTaggedItem(const core::TaggedItem& item, ByteWriter* w) {
  w->WriteU8(static_cast<std::uint8_t>(item.kind));
  w->WriteU64(item.attr);
  w->WriteString(item.value);
  w->WriteDouble(item.number);
  w->WriteBool(item.is_money);
  w->WriteBool(item.ascending);
  w->WriteU8(static_cast<std::uint8_t>(item.op));
  w->WriteU64(item.token_begin);
  w->WriteU64(item.token_end);
}

Status SerdeAccess::ReadTaggedItem(ByteReader* r, core::TaggedItem* out) {
  std::uint8_t kind = 0;
  CQADS_RETURN_NOT_OK(r->ReadU8(&kind));
  if (kind > static_cast<std::uint8_t>(core::TagKind::kNumber)) {
    return r->Corrupt("tag kind out of range");
  }
  out->kind = static_cast<core::TagKind>(kind);
  std::uint64_t attr = 0;
  CQADS_RETURN_NOT_OK(r->ReadU64(&attr));
  out->attr = static_cast<std::size_t>(attr);
  CQADS_RETURN_NOT_OK(r->ReadString(&out->value));
  CQADS_RETURN_NOT_OK(r->ReadDouble(&out->number));
  CQADS_RETURN_NOT_OK(r->ReadBool(&out->is_money));
  CQADS_RETURN_NOT_OK(r->ReadBool(&out->ascending));
  std::uint8_t op = 0;
  CQADS_RETURN_NOT_OK(r->ReadU8(&op));
  if (op > static_cast<std::uint8_t>(db::CompareOp::kContains)) {
    return r->Corrupt("compare op out of range");
  }
  out->op = static_cast<db::CompareOp>(op);
  std::uint64_t tok = 0;
  CQADS_RETURN_NOT_OK(r->ReadU64(&tok));
  out->token_begin = static_cast<std::size_t>(tok);
  CQADS_RETURN_NOT_OK(r->ReadU64(&tok));
  out->token_end = static_cast<std::size_t>(tok);
  return Status::OK();
}

void SerdeAccess::WriteLexicon(const core::DomainLexicon& lex, ByteWriter* w) {
  WriteTermDict(lex.terms_, w);
  WriteFlatTrie(lex.flat_trie_, w);
  w->WriteU64(lex.entries_.size());
  for (const auto& item : lex.entries_) WriteTaggedItem(item, w);
  w->WriteU64(lex.categorical_values_.size());
  for (const auto& cv : lex.categorical_values_) {
    w->WriteU64(cv.attr);
    w->WriteString(cv.value);
    w->WriteU32(cv.id);
  }
}

Status SerdeAccess::ReadLexicon(
    ByteReader* r, const ArenaPtr& owner, const db::Table* table,
    std::shared_ptr<const core::DomainLexicon>* out) {
  std::shared_ptr<core::DomainLexicon> lex(new core::DomainLexicon());
  CQADS_RETURN_NOT_OK(ReadTermDict(r, &lex->terms_));
  CQADS_RETURN_NOT_OK(ReadFlatTrie(r, owner, &lex->flat_trie_));

  const std::size_t n_attrs = table->schema().num_attributes();
  std::uint64_t n_entries = 0;
  CQADS_RETURN_NOT_OK(r->ReadCount(&n_entries, 32));
  lex->entries_.clear();
  lex->entries_.reserve(static_cast<std::size_t>(n_entries));
  for (std::uint64_t i = 0; i < n_entries; ++i) {
    core::TaggedItem item;
    CQADS_RETURN_NOT_OK(ReadTaggedItem(r, &item));
    if (item.attr != core::kNoAttr && item.attr >= n_attrs) {
      return r->Corrupt("tag prototype attribute out of range");
    }
    lex->entries_.push_back(std::move(item));
  }
  std::uint64_t n_cats = 0;
  CQADS_RETURN_NOT_OK(r->ReadCount(&n_cats, 16));
  lex->categorical_values_.clear();
  lex->categorical_values_.reserve(static_cast<std::size_t>(n_cats));
  for (std::uint64_t i = 0; i < n_cats; ++i) {
    std::uint64_t attr = 0;
    CQADS_RETURN_NOT_OK(r->ReadU64(&attr));
    std::string value;
    CQADS_RETURN_NOT_OK(r->ReadString(&value));
    std::uint32_t id = 0;
    CQADS_RETURN_NOT_OK(r->ReadU32(&id));
    if (attr >= n_attrs || id >= lex->terms_.size()) {
      return r->Corrupt("categorical value attr/id out of range");
    }
    lex->categorical_values_.push_back(
        {static_cast<std::size_t>(attr), std::move(value), id});
  }

  // The tagger indexes entries_ with every handle a trie walk returns.
  for (std::int32_t handle : lex->flat_trie_.handles_) {
    if (static_cast<std::uint32_t>(handle) >= lex->entries_.size()) {
      return r->Corrupt("trie handle out of entry range");
    }
  }

  lex->schema_ = &table->schema();
  *out = std::move(lex);
  return Status::OK();
}

// --- QuestionClassifier ------------------------------------------------------

void SerdeAccess::WriteClassifier(const classify::QuestionClassifier& c,
                                  ByteWriter* w) {
  w->WriteU8(static_cast<std::uint8_t>(c.options_.model));
  w->WriteDouble(c.options_.smoothing);
  w->WriteDouble(c.options_.unseen_mass);
  w->WriteU64(c.classes_.size());
  for (const auto& cls : c.classes_) w->WriteString(cls);
  w->WriteU64(c.models_.size());
  for (const auto& [name, m] : c.models_) {  // std::map: sorted
    w->WriteString(name);
    w->WriteDouble(m.log_prior);
    w->WriteDouble(m.log_unseen);
    w->WriteDouble(m.total_tokens);
    w->WriteDouble(m.unseen_params.alpha);
    w->WriteDouble(m.unseen_params.beta);
    auto word_keys = SortedKeys(m.log_word_prob);
    w->WriteU64(word_keys.size());
    for (const auto& word : word_keys) {
      w->WriteString(word);
      w->WriteDouble(m.log_word_prob.at(word));
    }
    auto param_keys = SortedKeys(m.word_params);
    w->WriteU64(param_keys.size());
    for (const auto& word : param_keys) {
      const auto& p = m.word_params.at(word);
      w->WriteString(word);
      w->WriteDouble(p.alpha);
      w->WriteDouble(p.beta);
    }
  }
  auto vocab_keys = SortedKeys(c.vocab_);
  w->WriteU64(vocab_keys.size());
  for (const auto& word : vocab_keys) {
    w->WriteString(word);
    w->WriteBool(c.vocab_.at(word));
  }
}

Status SerdeAccess::ReadClassifier(ByteReader* r,
                                   classify::QuestionClassifier* out) {
  std::uint8_t model = 0;
  CQADS_RETURN_NOT_OK(r->ReadU8(&model));
  if (model > static_cast<std::uint8_t>(
                  classify::QuestionClassifier::Model::kMultinomial)) {
    return r->Corrupt("classifier model out of range");
  }
  out->options_.model =
      static_cast<classify::QuestionClassifier::Model>(model);
  CQADS_RETURN_NOT_OK(r->ReadDouble(&out->options_.smoothing));
  CQADS_RETURN_NOT_OK(r->ReadDouble(&out->options_.unseen_mass));

  std::uint64_t n = 0;
  CQADS_RETURN_NOT_OK(r->ReadCount(&n, 8));
  out->classes_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string s;
    CQADS_RETURN_NOT_OK(r->ReadString(&s));
    out->classes_.push_back(std::move(s));
  }
  CQADS_RETURN_NOT_OK(r->ReadCount(&n, 48));
  out->models_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    CQADS_RETURN_NOT_OK(r->ReadString(&name));
    classify::QuestionClassifier::ClassModel m;
    CQADS_RETURN_NOT_OK(r->ReadDouble(&m.log_prior));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&m.log_unseen));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&m.total_tokens));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&m.unseen_params.alpha));
    CQADS_RETURN_NOT_OK(r->ReadDouble(&m.unseen_params.beta));
    std::uint64_t n_words = 0;
    CQADS_RETURN_NOT_OK(r->ReadCount(&n_words, 16));
    m.log_word_prob.reserve(static_cast<std::size_t>(n_words));
    for (std::uint64_t k = 0; k < n_words; ++k) {
      std::string word;
      CQADS_RETURN_NOT_OK(r->ReadString(&word));
      double p = 0.0;
      CQADS_RETURN_NOT_OK(r->ReadDouble(&p));
      m.log_word_prob.emplace(std::move(word), p);
    }
    CQADS_RETURN_NOT_OK(r->ReadCount(&n_words, 24));
    m.word_params.reserve(static_cast<std::size_t>(n_words));
    for (std::uint64_t k = 0; k < n_words; ++k) {
      std::string word;
      CQADS_RETURN_NOT_OK(r->ReadString(&word));
      classify::BetaBinomialParams p;
      CQADS_RETURN_NOT_OK(r->ReadDouble(&p.alpha));
      CQADS_RETURN_NOT_OK(r->ReadDouble(&p.beta));
      m.word_params.emplace(std::move(word), p);
    }
    out->models_.emplace(std::move(name), std::move(m));
  }
  CQADS_RETURN_NOT_OK(r->ReadCount(&n, 9));
  out->vocab_.clear();
  out->vocab_.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string word;
    CQADS_RETURN_NOT_OK(r->ReadString(&word));
    bool v = false;
    CQADS_RETURN_NOT_OK(r->ReadBool(&v));
    out->vocab_.emplace(std::move(word), v);
  }
  return Status::OK();
}

// --- EngineOptions -----------------------------------------------------------

void SerdeAccess::WriteOptions(const core::EngineOptions& o, ByteWriter* w) {
  w->WriteU64(o.answer_cap);
  w->WriteU64(o.partial_trigger);
  w->WriteBool(o.enable_partial);
  w->WriteBool(o.explain_plans);
}

Status SerdeAccess::ReadOptions(ByteReader* r, core::EngineOptions* out) {
  std::uint64_t v = 0;
  CQADS_RETURN_NOT_OK(r->ReadU64(&v));
  out->answer_cap = static_cast<std::size_t>(v);
  CQADS_RETURN_NOT_OK(r->ReadU64(&v));
  out->partial_trigger = static_cast<std::size_t>(v);
  CQADS_RETURN_NOT_OK(r->ReadBool(&out->enable_partial));
  CQADS_RETURN_NOT_OK(r->ReadBool(&out->explain_plans));
  return Status::OK();
}

}  // namespace cqads::snapshot
