// The domain keyword trie (§4.1.3-4.1.4) as frozen contiguous arrays. One
// trie is built per ads domain; every node stands for one character, and
// nodes whose root path spells a known keyword are terminal and carry
// payload handles (indices into the lexicon's table of tag prototypes, per
// Table 1). The tagger, segmenter, and spell corrector walk it at serve
// time:
//
//   nodes_    one record per trie node, DFS preorder (root = 0), holding the
//             node's edge span and handle span
//   edges_    all outgoing edges, grouped per node, sorted by label — a Step
//             is a binary search over the node's span
//   handles_  payload handles of terminal nodes, flattened
//
// Build() lays the arrays out straight from (keyword, handle) pairs; a
// snapshot maps them back zero-copy. Nodes are 16 bytes, a walk touches a
// few contiguous cache lines, and the whole structure is immutable and
// shareable across threads. The pointer KeywordTrie in reference/ is the
// test-only oracle every operation is checked against.
#ifndef CQADS_TRIE_FLAT_TRIE_H_
#define CQADS_TRIE_FLAT_TRIE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/pod_vec.h"

namespace cqads::snapshot {
struct SerdeAccess;
}

namespace cqads::trie {

/// Contiguous handle run of one terminal node (iterable, indexable).
struct HandleSpan {
  const std::int32_t* data = nullptr;
  std::size_t count = 0;

  const std::int32_t* begin() const { return data; }
  const std::int32_t* end() const { return data + count; }
  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  std::int32_t operator[](std::size_t i) const { return data[i]; }
};

class FlatTrie {
 public:
  FlatTrie() = default;

  // Movable, not copyable (large arrays; snapshots share by pointer).
  FlatTrie(FlatTrie&&) = default;
  FlatTrie& operator=(FlatTrie&&) = default;
  FlatTrie(const FlatTrie&) = delete;
  FlatTrie& operator=(const FlatTrie&) = delete;

  /// Builds the trie from (keyword, handle) pairs in any order: keywords
  /// non-empty, each pair once (DomainLexicon::Build's pairs are). Each
  /// keyword keeps its handles in input order. Keywords are ordered by
  /// comparing bytes as `char`, the comparison Step's binary search uses.
  static FlatTrie Build(
      std::vector<std::pair<std::string, std::int32_t>> pairs);

  /// Walk state: a node index. A default cursor is invalid.
  class Cursor {
   public:
    Cursor() = default;
    bool valid() const { return node_ != kInvalidNode; }

   private:
    friend class FlatTrie;
    explicit Cursor(std::uint32_t node) : node_(node) {}
    static constexpr std::uint32_t kInvalidNode =
        static_cast<std::uint32_t>(-1);
    std::uint32_t node_ = kInvalidNode;
  };

  /// Root cursor; invalid on a default-constructed (never built) trie,
  /// which makes every downstream operation a safe no-match instead of an
  /// out-of-bounds node access.
  Cursor Root() const {
    return nodes_.empty() ? Cursor() : Cursor(0);
  }
  Cursor Step(Cursor cursor, char c) const;
  Cursor Walk(Cursor cursor, std::string_view s) const;
  bool IsTerminal(Cursor cursor) const;
  HandleSpan Handles(Cursor cursor) const;
  bool HasChildren(Cursor cursor) const;

  bool Contains(std::string_view keyword) const;
  /// Handles of `keyword` (empty span when absent) — the Find analogue.
  HandleSpan Find(std::string_view keyword) const;

  /// All (full keyword, handle) completions reachable from `cursor`, given
  /// the prefix that led to it, capped at `limit`: keywords in `char`
  /// order, each keyword's handles in build order.
  std::vector<std::pair<std::string, std::int32_t>> Completions(
      Cursor cursor, std::string_view prefix, std::size_t limit) const;

  /// Length of the longest keyword that starts at `s[from]`, or 0.
  std::size_t LongestMatchLength(std::string_view s, std::size_t from) const;
  /// Lengths (ascending) of every keyword that is a prefix of `s` starting
  /// at `from` (the segmenter's split points).
  std::vector<std::size_t> AllMatchLengths(std::string_view s,
                                           std::size_t from) const;

  std::size_t size() const { return keyword_count_; }
  bool empty() const { return keyword_count_ == 0; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  /// Exact array footprint (parse_rank compares it with the reference
  /// pointer tree's for the §4.1.3 footprint claim).
  std::size_t MemoryBytes() const {
    return nodes_.size() * sizeof(Node) + edges_.size() * sizeof(Edge) +
           handles_.size() * sizeof(std::int32_t);
  }

 private:
  friend struct cqads::snapshot::SerdeAccess;

  // Node and Edge are written verbatim into persistent snapshots, so their
  // padding is explicit and zero-initialized — the file bytes must be
  // deterministic, not whatever the allocator left behind.
  struct Node {
    std::uint32_t edge_begin = 0;    ///< index into edges_
    std::uint32_t handle_begin = 0;  ///< index into handles_
    /// > 0 iff terminal: Build records at least one handle per keyword, so
    /// "terminal with zero handles" cannot occur. Full width — a narrower
    /// field would silently wrap a pathological keyword with >64Ki handles
    /// into a non-terminal.
    std::uint32_t handle_count = 0;
    /// At most one edge per distinct byte value.
    std::uint16_t edge_count = 0;
    std::uint16_t pad = 0;
  };
  static_assert(sizeof(Node) == 16);
  struct Edge {
    std::uint32_t target = 0;
    char label = 0;
    char pad[3] = {0, 0, 0};
  };
  static_assert(sizeof(Edge) == 8);

  struct BuildKey {
    std::string keyword;
    std::vector<std::int32_t> handles;
  };

  std::uint32_t BuildNode(const std::vector<BuildKey>& keys, std::size_t lo,
                          std::size_t hi, std::size_t depth);

  // PodVec: heap-owned when built in-process, zero-copy views into a
  // mapped snapshot when loaded from disk.
  common::PodVec<Node> nodes_;
  common::PodVec<Edge> edges_;
  common::PodVec<std::int32_t> handles_;
  std::size_t keyword_count_ = 0;
};

}  // namespace cqads::trie

#endif  // CQADS_TRIE_FLAT_TRIE_H_
