#include "reference/keyword_trie.h"

#include <algorithm>

namespace cqads::reference {

void KeywordTrie::Insert(std::string_view keyword, std::int32_t handle) {
  if (keyword.empty()) return;
  Node* node = root_.get();
  for (char c : keyword) {
    auto it = node->children.find(c);
    if (it == node->children.end()) {
      it = node->children.emplace(c, std::make_unique<Node>()).first;
      ++node_count_;
    }
    node = it->second.get();
  }
  if (!node->terminal) {
    node->terminal = true;
    ++keyword_count_;
  }
  if (std::find(node->handles.begin(), node->handles.end(), handle) ==
      node->handles.end()) {
    node->handles.push_back(handle);
  }
}

bool KeywordTrie::Contains(std::string_view keyword) const {
  Cursor c = Walk(Root(), keyword);
  return c.valid() && IsTerminal(c);
}

const std::vector<std::int32_t>* KeywordTrie::Find(
    std::string_view keyword) const {
  Cursor c = Walk(Root(), keyword);
  if (!c.valid() || !IsTerminal(c)) return nullptr;
  return &AsNode(c)->handles;
}

KeywordTrie::Cursor KeywordTrie::Step(Cursor cursor, char c) const {
  if (!cursor.valid()) return Cursor();
  const Node* node = AsNode(cursor);
  auto it = node->children.find(c);
  if (it == node->children.end()) return Cursor();
  return Cursor(it->second.get());
}

KeywordTrie::Cursor KeywordTrie::Walk(Cursor cursor,
                                      std::string_view s) const {
  for (char c : s) {
    cursor = Step(cursor, c);
    if (!cursor.valid()) return cursor;
  }
  return cursor;
}

bool KeywordTrie::IsTerminal(Cursor cursor) const {
  return cursor.valid() && AsNode(cursor)->terminal;
}

const std::vector<std::int32_t>& KeywordTrie::Handles(Cursor cursor) const {
  static const std::vector<std::int32_t> kEmpty;
  if (!IsTerminal(cursor)) return kEmpty;
  return AsNode(cursor)->handles;
}

bool KeywordTrie::HasChildren(Cursor cursor) const {
  return cursor.valid() && !AsNode(cursor)->children.empty();
}

void KeywordTrie::CollectFrom(
    const Node* node, std::string* scratch, std::size_t limit,
    std::vector<std::pair<std::string, std::int32_t>>* out) const {
  if (out->size() >= limit) return;
  if (node->terminal) {
    for (std::int32_t h : node->handles) {
      if (out->size() >= limit) return;
      out->emplace_back(*scratch, h);
    }
  }
  for (const auto& [c, child] : node->children) {
    scratch->push_back(c);
    CollectFrom(child.get(), scratch, limit, out);
    scratch->pop_back();
    if (out->size() >= limit) return;
  }
}

std::vector<std::pair<std::string, std::int32_t>> KeywordTrie::Completions(
    Cursor cursor, std::string_view prefix, std::size_t limit) const {
  std::vector<std::pair<std::string, std::int32_t>> out;
  if (!cursor.valid() || limit == 0) return out;
  std::string scratch(prefix);
  CollectFrom(AsNode(cursor), &scratch, limit, &out);
  return out;
}

std::size_t KeywordTrie::ApproxMemoryBytes() const {
  // Walk via the public cursor API-equivalent internals: each node costs its
  // struct, each edge a std::map red-black node (payload pair + three
  // pointers + color, ~= 40 bytes of overhead on mainstream allocators),
  // each terminal its handle storage.
  struct Walker {
    static std::size_t Visit(const Node& node) {
      std::size_t bytes = sizeof(Node) + node.handles.capacity() *
                                             sizeof(std::int32_t);
      for (const auto& [c, child] : node.children) {
        (void)c;
        bytes += sizeof(std::pair<const char, std::unique_ptr<Node>>) + 40;
        bytes += Visit(*child);
      }
      return bytes;
    }
  };
  return Walker::Visit(*root_);
}

std::size_t KeywordTrie::LongestMatchLength(std::string_view s,
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

std::vector<std::size_t> KeywordTrie::AllMatchLengths(std::string_view s,
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

}  // namespace cqads::reference
