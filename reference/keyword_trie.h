// Pointer keyword trie (§4.1.3-4.1.4), the test-only oracle of the serving
// library's trie::FlatTrie. Every node holds one character in a std::map of
// children, and nodes whose root path spells a known keyword are terminal
// and carry payload handles (indices into a caller-side table of
// identifiers, per Table 1). Insert-at-a-time and pointer-chasing, it is
// the obvious implementation the frozen flat arrays are checked against
// (test_flat_trie, test_snapshot), and the structure parse_rank's
// footprint line and ablate_trie_lookup measure.
#ifndef CQADS_REFERENCE_KEYWORD_TRIE_H_
#define CQADS_REFERENCE_KEYWORD_TRIE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cqads::reference {

/// Ordered-tree string dictionary with per-keyword payload handles.
///
/// Keys are expected lower-case; a key may carry several handles (e.g. "gold"
/// can be both a Color and a Material value in the Jewellery domain).
/// Lookup of a length-m key costs O(m) node steps, the property §4.1.3 cites
/// for preferring tries over binary search trees and hash tables.
class KeywordTrie {
 public:
  KeywordTrie() : root_(std::make_unique<Node>()) {}

  // Movable, not copyable (owns a node tree).
  KeywordTrie(KeywordTrie&&) = default;
  KeywordTrie& operator=(KeywordTrie&&) = default;
  KeywordTrie(const KeywordTrie&) = delete;
  KeywordTrie& operator=(const KeywordTrie&) = delete;

  /// Adds `keyword` with a payload handle. Duplicate (keyword, handle) pairs
  /// are ignored; the same keyword may accumulate distinct handles.
  void Insert(std::string_view keyword, std::int32_t handle);

  /// True if `keyword` is a complete entry.
  bool Contains(std::string_view keyword) const;

  /// Handles of `keyword`, or nullptr when absent.
  const std::vector<std::int32_t>* Find(std::string_view keyword) const;

  /// Number of distinct keywords.
  std::size_t size() const { return keyword_count_; }
  bool empty() const { return keyword_count_ == 0; }

  /// Number of trie nodes (for the §4.1.3 footprint claim and tests).
  std::size_t node_count() const { return node_count_; }

  /// Approximate heap footprint of the pointer tree (nodes, red-black map
  /// nodes per edge, handle vectors). The parse_rank bench compares this
  /// against FlatTrie::MemoryBytes for the §4.1.3 footprint claim.
  std::size_t ApproxMemoryBytes() const;

  /// Walk state for incremental scanning. A default cursor is invalid.
  class Cursor {
   public:
    Cursor() = default;
    bool valid() const { return node_ != nullptr; }

   private:
    friend class KeywordTrie;
    explicit Cursor(const void* node) : node_(node) {}
    const void* node_ = nullptr;
  };

  /// Cursor positioned at the root (empty prefix).
  Cursor Root() const { return Cursor(root_.get()); }

  /// Advances the cursor by one character. Returns an invalid cursor when no
  /// edge exists; the input cursor is unchanged.
  Cursor Step(Cursor cursor, char c) const;

  /// Advances the cursor across a whole string; invalid if any step fails.
  Cursor Walk(Cursor cursor, std::string_view s) const;

  /// True when the cursor's prefix is a complete keyword.
  bool IsTerminal(Cursor cursor) const;

  /// Handles at a terminal cursor (empty vector otherwise).
  const std::vector<std::int32_t>& Handles(Cursor cursor) const;

  /// True when the cursor has at least one outgoing edge.
  bool HasChildren(Cursor cursor) const;

  /// All (full keyword, handle) completions reachable from `cursor`, given
  /// the prefix that led to it, capped at `limit`. Keywords come out in
  /// lexicographic order, making corrections deterministic.
  std::vector<std::pair<std::string, std::int32_t>> Completions(
      Cursor cursor, std::string_view prefix, std::size_t limit) const;

  /// Length of the longest keyword that starts at `s[from]`, or 0.
  std::size_t LongestMatchLength(std::string_view s, std::size_t from) const;

  /// Lengths (ascending) of every keyword that is a prefix of `s` starting
  /// at `from`. Used by the segmenter to enumerate split points.
  std::vector<std::size_t> AllMatchLengths(std::string_view s,
                                           std::size_t from) const;

 private:
  struct Node {
    std::map<char, std::unique_ptr<Node>> children;
    std::vector<std::int32_t> handles;
    bool terminal = false;
  };

  static const Node* AsNode(Cursor c) {
    return static_cast<const Node*>(c.node_);
  }

  void CollectFrom(const Node* node, std::string* scratch, std::size_t limit,
                   std::vector<std::pair<std::string, std::int32_t>>* out)
      const;

  std::unique_ptr<Node> root_;
  std::size_t keyword_count_ = 0;
  std::size_t node_count_ = 1;  // root
};

}  // namespace cqads::reference

#endif  // CQADS_REFERENCE_KEYWORD_TRIE_H_
