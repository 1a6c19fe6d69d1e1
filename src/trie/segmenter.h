// Missing-space repair (§4.2.1): "Hondaaccord" is split into trie keywords
// by inserting spaces where a keyword ends and characters remain. The
// segmenter searches for a full decomposition of the run into keywords
// (digit runs count as implicit keywords, so "2004accord" also splits),
// preferring longer keywords first, which matches the paper's greedy
// end-of-branch rule while still recovering from greedy dead ends.
#ifndef CQADS_TRIE_SEGMENTER_H_
#define CQADS_TRIE_SEGMENTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "trie/flat_trie.h"

namespace cqads::trie {

/// Splits `word` into a sequence of >= 2 segments where every segment is a
/// trie keyword or a digit run. Returns an empty vector when no such
/// decomposition exists (callers then treat the word as one unit and hand it
/// to the spell corrector).
std::vector<std::string> SegmentWord(const FlatTrie& trie,
                                     std::string_view word);

}  // namespace cqads::trie

#endif  // CQADS_TRIE_SEGMENTER_H_
