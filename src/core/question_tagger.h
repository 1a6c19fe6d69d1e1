// Question tagging (§4.1.3, §4.2.1): tokenizes a question, removes
// non-essential keywords, repairs missing spaces and misspellings with the
// domain trie, resolves shorthand notations, and emits the tagged items the
// condition builder consumes.
//
// Every trie step (phrase matching, segmentation, spelling correction)
// walks the domain's FlatTrie.
#ifndef CQADS_CORE_QUESTION_TAGGER_H_
#define CQADS_CORE_QUESTION_TAGGER_H_

#include <string>
#include <vector>

#include "core/domain_lexicon.h"
#include "core/tags.h"
#include "trie/spell_corrector.h"

namespace cqads::core {

/// Tagging outcome plus a trace of the repairs performed (for tests, the
/// HTML-style result explanation, and debugging).
struct TaggingResult {
  std::vector<TaggedItem> items;
  std::vector<std::string> corrections;   ///< "hnda -> honda (83%)"
  std::vector<std::string> segmentations; ///< "hondaaccord -> honda accord"
  std::vector<std::string> shorthands;    ///< "2dr -> 2 door"
  std::vector<std::string> dropped;       ///< removed non-essential keywords
};

class QuestionTagger {
 public:
  struct Options {
    /// Minimum word length eligible for spelling correction. Three-letter
    /// words ("car") coincide too easily with value keywords ("camry").
    std::size_t min_correction_length = 4;
    /// similar_text acceptance threshold (percent).
    double min_correction_percent = 70.0;
  };

  explicit QuestionTagger(const DomainLexicon* lexicon)
      : QuestionTagger(lexicon, Options()) {}
  QuestionTagger(const DomainLexicon* lexicon, Options options);

  /// Tags a raw question (tokenizes internally).
  TaggingResult Tag(const std::string& question) const;

  /// Tags pre-tokenized input — the pipeline tokenizes each question ONCE
  /// into QueryContext and hands the tokens here.
  TaggingResult TagTokens(text::TokenList tokens) const;

 private:
  /// Picks the preferred handle when a keyword is ambiguous: Type I beats
  /// Type II beats everything else (identity is the stronger signal).
  const TaggedItem& PreferredEntry(const std::int32_t* handles,
                                   std::size_t count) const;

  const DomainLexicon* lexicon_;
  Options options_;
  trie::SpellCorrector corrector_;
};

}  // namespace cqads::core

#endif  // CQADS_CORE_QUESTION_TAGGER_H_
