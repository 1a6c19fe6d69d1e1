#include "trie/segmenter.h"

#include <algorithm>
#include <cctype>

namespace cqads::trie {

namespace {

// Length of the digit run starting at `from` (0 if none).
std::size_t DigitRunLength(std::string_view s, std::size_t from) {
  std::size_t i = from;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  return i - from;
}

struct SearchState {
  const FlatTrie* trie;
  std::string_view word;
  std::vector<bool> dead;  // position known unsegmentable
};

bool SearchFrom(SearchState* st, std::size_t pos,
                std::vector<std::pair<std::size_t, std::size_t>>* spans) {
  if (pos == st->word.size()) return true;
  if (st->dead[pos]) return false;

  std::vector<std::size_t> lengths = st->trie->AllMatchLengths(st->word, pos);
  std::size_t digits = DigitRunLength(st->word, pos);
  if (digits > 0 &&
      std::find(lengths.begin(), lengths.end(), digits) == lengths.end()) {
    lengths.push_back(digits);
  }
  // Longest-first mirrors the paper's end-of-branch heuristic.
  std::sort(lengths.rbegin(), lengths.rend());
  for (std::size_t len : lengths) {
    spans->emplace_back(pos, len);
    if (SearchFrom(st, pos + len, spans)) return true;
    spans->pop_back();
  }
  st->dead[pos] = true;
  return false;
}

}  // namespace

std::vector<std::string> SegmentWord(const FlatTrie& trie,
                                     std::string_view word) {
  if (word.size() < 2) return {};
  SearchState st{&trie, word, std::vector<bool>(word.size(), false)};
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  if (!SearchFrom(&st, 0, &spans)) return {};
  if (spans.size() < 2) return {};  // already a single keyword: no repair
  std::vector<std::string> out;
  out.reserve(spans.size());
  for (auto [pos, len] : spans) out.emplace_back(word.substr(pos, len));
  return out;
}

}  // namespace cqads::trie
