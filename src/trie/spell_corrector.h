// Trie-guided spelling correction (§4.2.1). A keyword the trie does not
// recognize is compared against alternative keywords reachable from the
// deepest matched trie node using PHP-style similar_text; the alternative
// with the highest similarity percentage replaces the misspelling.
#ifndef CQADS_TRIE_SPELL_CORRECTOR_H_
#define CQADS_TRIE_SPELL_CORRECTOR_H_

#include <optional>
#include <string>
#include <string_view>

#include "trie/flat_trie.h"

namespace cqads::trie {

/// Outcome of a correction attempt.
struct Correction {
  std::string keyword;   ///< the corrected (trie-recognized) keyword
  double percent = 0.0;  ///< similar_text percentage against the input
};

/// Correction thresholds (SpellCorrector::Options).
struct SpellCorrectorOptions {
  /// Minimum similar_text percentage for a correction to be accepted.
  /// 70 accepts real typos (transpositions/omissions score 80+) while
  /// rejecting short-word coincidences ("cars" vs "camry" scores 67).
  double min_percent = 70.0;
  /// Cap on alternatives examined per anchor node (keeps worst case flat).
  std::size_t max_candidates = 512;
};

/// Corrects misspelled keywords against one domain trie.
class SpellCorrector {
 public:
  using Options = SpellCorrectorOptions;

  explicit SpellCorrector(const FlatTrie* trie)
      : SpellCorrector(trie, Options()) {}
  SpellCorrector(const FlatTrie* trie, Options options)
      : trie_(trie), options_(options) {}

  /// Attempts to correct `word` (lower-case). Returns nullopt when `word` is
  /// already a trie keyword or when no alternative clears min_percent.
  ///
  /// Search anchors: the deepest trie node reached by `word`'s prefix
  /// (per the paper, "starting from the current node in the trie where W is
  /// encountered"); when that subtree offers nothing acceptable, the
  /// first-letter subtree is tried as a fallback.
  std::optional<Correction> Correct(std::string_view word) const;

 private:
  std::optional<Correction> BestFrom(FlatTrie::Cursor anchor,
                                     std::string_view prefix,
                                     std::string_view word) const;

  const FlatTrie* trie_;
  Options options_;
};

}  // namespace cqads::trie

#endif  // CQADS_TRIE_SPELL_CORRECTOR_H_
