#include "trie/flat_trie.h"

#include <algorithm>

namespace cqads::trie {

FlatTrie FlatTrie::Build(
    std::vector<std::pair<std::string, std::int32_t>> pairs) {
  // Order keywords by comparing bytes as `char` — lexicographical_compare
  // over std::string's chars, not std::string::operator<, which compares
  // as unsigned char. Step binary-searches edge labels as `char`, so on a
  // signed-char target a keyword with a byte >= 0x80 must sort before
  // ASCII at the same position. The stable sort keeps each keyword's
  // handles in input order.
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) {
                     return std::lexicographical_compare(
                         a.first.begin(), a.first.end(), b.first.begin(),
                         b.first.end());
                   });
  std::vector<BuildKey> keys;
  for (auto& [keyword, handle] : pairs) {
    if (keys.empty() || keys.back().keyword != keyword) {
      keys.push_back(BuildKey{std::move(keyword), {}});
    }
    keys.back().handles.push_back(handle);
  }

  FlatTrie trie;
  trie.keyword_count_ = keys.size();
  trie.handles_.reserve(pairs.size());
  trie.BuildNode(keys, 0, keys.size(), 0);
  return trie;
}

std::uint32_t FlatTrie::BuildNode(const std::vector<BuildKey>& keys,
                                  std::size_t lo, std::size_t hi,
                                  std::size_t depth) {
  auto& nodes = nodes_.vec();
  auto& edges = edges_.vec();
  auto& handles = handles_.vec();
  const std::uint32_t id = static_cast<std::uint32_t>(nodes.size());
  nodes.emplace_back();

  // The keyword equal to this node's path, if any, sorts first in the range.
  if (lo < hi && keys[lo].keyword.size() == depth) {
    nodes[id].handle_begin = static_cast<std::uint32_t>(handles.size());
    nodes[id].handle_count =
        static_cast<std::uint32_t>(keys[lo].handles.size());
    handles.insert(handles.end(), keys[lo].handles.begin(),
                   keys[lo].handles.end());
    ++lo;
  }

  // Group the remaining range by next character (ranges are contiguous:
  // keys are sorted).
  struct ChildRange {
    char label;
    std::size_t lo, hi;
  };
  std::vector<ChildRange> children;
  std::size_t i = lo;
  while (i < hi) {
    const char c = keys[i].keyword[depth];
    std::size_t j = i + 1;
    while (j < hi && keys[j].keyword[depth] == c) ++j;
    children.push_back(ChildRange{c, i, j});
    i = j;
  }

  // Reserve this node's contiguous edge span BEFORE recursing, so child
  // subtrees (which append their own edges) cannot interleave with it.
  const std::uint32_t edge_begin = static_cast<std::uint32_t>(edges.size());
  nodes[id].edge_begin = edge_begin;
  nodes[id].edge_count = static_cast<std::uint16_t>(children.size());
  for (const ChildRange& child : children) {
    edges.push_back(Edge{0, child.label});
  }
  for (std::size_t k = 0; k < children.size(); ++k) {
    // Recursion appends nodes/edges; re-take the reference afterwards in
    // case the vector reallocated.
    const std::uint32_t target =
        BuildNode(keys, children[k].lo, children[k].hi, depth + 1);
    edges_.vec()[edge_begin + k].target = target;
  }
  return id;
}

FlatTrie::Cursor FlatTrie::Step(Cursor cursor, char c) const {
  if (!cursor.valid()) return Cursor();
  const Node& node = nodes_[cursor.node_];
  const Edge* begin = edges_.data() + node.edge_begin;
  const Edge* end = begin + node.edge_count;
  // Binary-searched edge span; labels within a span are sorted (the build
  // walks keys in `char` order).
  const Edge* it = std::lower_bound(
      begin, end, c, [](const Edge& e, char label) { return e.label < label; });
  if (it == end || it->label != c) return Cursor();
  return Cursor(it->target);
}

FlatTrie::Cursor FlatTrie::Walk(Cursor cursor, std::string_view s) const {
  for (char c : s) {
    cursor = Step(cursor, c);
    if (!cursor.valid()) return cursor;
  }
  return cursor;
}

bool FlatTrie::IsTerminal(Cursor cursor) const {
  return cursor.valid() && nodes_[cursor.node_].handle_count > 0;
}

HandleSpan FlatTrie::Handles(Cursor cursor) const {
  if (!IsTerminal(cursor)) return HandleSpan{};
  const Node& node = nodes_[cursor.node_];
  return HandleSpan{handles_.data() + node.handle_begin, node.handle_count};
}

bool FlatTrie::HasChildren(Cursor cursor) const {
  return cursor.valid() && nodes_[cursor.node_].edge_count > 0;
}

bool FlatTrie::Contains(std::string_view keyword) const {
  return IsTerminal(Walk(Root(), keyword));
}

HandleSpan FlatTrie::Find(std::string_view keyword) const {
  return Handles(Walk(Root(), keyword));
}

std::vector<std::pair<std::string, std::int32_t>> FlatTrie::Completions(
    Cursor cursor, std::string_view prefix, std::size_t limit) const {
  std::vector<std::pair<std::string, std::int32_t>> out;
  if (!cursor.valid() || limit == 0) return out;
  std::string scratch(prefix);

  // Iterative preorder: emit this node's handles, then descend edges in
  // label order.
  struct Frame {
    std::uint32_t node;
    std::uint16_t next_edge;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{cursor.node_, 0});
  // Emit the anchor node's handles before any descent.
  auto emit = [&](std::uint32_t node_id) {
    const Node& node = nodes_[node_id];
    for (std::uint32_t h = 0; h < node.handle_count; ++h) {
      if (out.size() >= limit) return false;
      out.emplace_back(scratch, handles_[node.handle_begin + h]);
    }
    return out.size() < limit;
  };
  if (!emit(cursor.node_)) return out;
  while (!stack.empty()) {
    Frame& top = stack.back();
    const Node& node = nodes_[top.node];
    if (top.next_edge >= node.edge_count) {
      stack.pop_back();
      if (!stack.empty()) scratch.pop_back();
      continue;
    }
    const Edge& edge = edges_[node.edge_begin + top.next_edge];
    ++top.next_edge;
    scratch.push_back(edge.label);
    if (!emit(edge.target)) return out;
    stack.push_back(Frame{edge.target, 0});
  }
  return out;
}

std::size_t FlatTrie::LongestMatchLength(std::string_view s,
                                         std::size_t from) const {
  Cursor c = Root();
  std::size_t best = 0;
  for (std::size_t i = from; i < s.size(); ++i) {
    c = Step(c, s[i]);
    if (!c.valid()) break;
    if (IsTerminal(c)) best = i - from + 1;
  }
  return best;
}

std::vector<std::size_t> FlatTrie::AllMatchLengths(std::string_view s,
                                                   std::size_t from) const {
  std::vector<std::size_t> out;
  Cursor c = Root();
  for (std::size_t i = from; i < s.size(); ++i) {
    c = Step(c, s[i]);
    if (!c.valid()) break;
    if (IsTerminal(c)) out.push_back(i - from + 1);
  }
  return out;
}

}  // namespace cqads::trie
