// Per-domain lexicon: the domain trie (§4.1.4) plus the side table of tag
// prototypes its handles point at. Built from the domain's relational schema
// and the distinct attribute values observed in its ads table, plus the
// shared identifiers table — exactly the ingredients §4.1.4 lists.
//
// Build() collects every keyword with a fresh handle into its tag
// prototype and lays the (keyword, handle) pairs out as one immutable
// FlatTrie, whose contiguous node/edge arrays the tagger walks and a
// snapshot maps back zero-copy. Every keyword is also interned into the
// per-domain TermDict, which caches each term's Porter stem, stopword
// flag, and normalized shorthand form — shorthand probes read the cached
// norms instead of re-normalizing every categorical value per unknown
// token.
#ifndef CQADS_CORE_DOMAIN_LEXICON_H_
#define CQADS_CORE_DOMAIN_LEXICON_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/tags.h"
#include "db/table.h"
#include "text/term_dict.h"
#include "text/token.h"
#include "trie/flat_trie.h"

namespace cqads::snapshot {
struct SerdeAccess;
}

namespace cqads::core {

class DomainLexicon {
 public:
  /// Builds a lexicon from a table whose indexes are built (distinct
  /// categorical values are read from the hash indexes, mirroring the
  /// paper's extraction of attribute values from collected ads).
  static Result<DomainLexicon> Build(const db::Table* table);

  const db::Schema& schema() const { return *schema_; }
  /// The domain trie: keywords to handles into entry().
  const trie::FlatTrie& flat_trie() const { return flat_trie_; }
  /// Interned keywords/values with cached stems, stopword flags, and
  /// shorthand norms. Frozen; snapshots publish it per domain.
  const text::TermDict& terms() const { return terms_; }

  /// Tag prototype behind a trie handle.
  const TaggedItem& entry(std::int32_t handle) const {
    return entries_[static_cast<std::size_t>(handle)];
  }
  std::size_t entry_count() const { return entries_.size(); }

  /// Longest multi-token phrase match starting at tokens[i], walked over
  /// the flat trie (phrases are stored space-joined: "less than",
  /// "4 wheel drive").
  struct PhraseMatch {
    std::size_t token_count = 0;
    std::vector<std::int32_t> handles;
  };
  std::optional<PhraseMatch> LongestPhraseMatch(
      const text::TokenList& tokens, std::size_t i,
      std::size_t max_tokens = 5) const;

  /// Shorthand-notation resolution (§4.2.3): finds a categorical value of
  /// which `token` is a shorthand ("2dr" -> "2 door"). Longest value wins.
  /// Value norms come precomputed from the TermDict; only the probe token
  /// is normalized per call.
  std::optional<TaggedItem> FindShorthand(const std::string& token) const;

  /// All categorical values of one attribute (sorted), for generators and
  /// tests.
  std::vector<std::string> ValuesOf(std::size_t attr) const;

 private:
  /// Snapshot serde restores terms_/flat_trie_/entries_/categorical_values_
  /// directly and rewires schema_ to the loaded table.
  friend struct cqads::snapshot::SerdeAccess;

  /// (keyword, handle) pairs collected for FlatTrie::Build.
  using KeywordPairs = std::vector<std::pair<std::string, std::int32_t>>;

  DomainLexicon() = default;

  /// Adds `item` as a new entry and records (keyword, its handle); empty
  /// keywords are skipped.
  void InsertKeyword(const std::string& keyword, TaggedItem item,
                     KeywordPairs* pairs);

  const db::Schema* schema_ = nullptr;
  trie::FlatTrie flat_trie_;
  text::TermDict terms_;
  std::vector<TaggedItem> entries_;
  /// One categorical value: its attribute, surface form, and interned id
  /// (the id indexes the cached shorthand norm). Sorted by (attr, value).
  struct CatValue {
    std::size_t attr = 0;
    std::string value;
    text::TermId id = text::kInvalidTerm;
  };
  std::vector<CatValue> categorical_values_;
};

}  // namespace cqads::core

#endif  // CQADS_CORE_DOMAIN_LEXICON_H_
