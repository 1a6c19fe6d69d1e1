#include "trie/spell_corrector.h"

#include "text/similar_text.h"

namespace cqads::trie {

std::optional<Correction> SpellCorrector::Correct(std::string_view word) const {
  if (word.empty() || trie_->Contains(word)) return std::nullopt;

  // Walk as deep as the trie agrees with the word.
  FlatTrie::Cursor cursor = trie_->Root();
  std::size_t depth = 0;
  while (depth < word.size()) {
    FlatTrie::Cursor next = trie_->Step(cursor, word[depth]);
    if (!next.valid()) break;
    cursor = next;
    ++depth;
  }

  std::optional<Correction> best =
      BestFrom(cursor, word.substr(0, depth), word);
  if (best) return best;

  // Fallback: alternatives sharing the first letter.
  if (depth == 0) return std::nullopt;
  FlatTrie::Cursor first = trie_->Step(trie_->Root(), word[0]);
  return BestFrom(first, word.substr(0, 1), word);
}

std::optional<Correction> SpellCorrector::BestFrom(
    FlatTrie::Cursor anchor, std::string_view prefix,
    std::string_view word) const {
  if (!anchor.valid()) return std::nullopt;
  auto candidates = trie_->Completions(anchor, prefix, options_.max_candidates);
  std::optional<Correction> best;
  for (const auto& [keyword, handle] : candidates) {
    (void)handle;
    if (keyword == word) continue;
    double pct = text::SimilarTextPercent(word, keyword);
    if (pct < options_.min_percent) continue;
    if (!best || pct > best->percent ||
        (pct == best->percent && keyword < best->keyword)) {
      best = Correction{keyword, pct};
    }
  }
  return best;
}

}  // namespace cqads::trie
