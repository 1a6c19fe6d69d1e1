#include "core/domain_lexicon.h"

#include <algorithm>

#include "core/identifiers_table.h"
#include "text/shorthand.h"

namespace cqads::core {

void DomainLexicon::InsertKeyword(const std::string& keyword,
                                  TaggedItem item, KeywordPairs* pairs) {
  if (keyword.empty()) return;
  terms_.Intern(keyword);
  pairs->emplace_back(keyword, static_cast<std::int32_t>(entries_.size()));
  entries_.push_back(std::move(item));
}

Result<DomainLexicon> DomainLexicon::Build(const db::Table* table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (!table->indexes_built()) {
    return Status::FailedPrecondition(
        "table indexes must be built before lexicon construction");
  }
  DomainLexicon lex;
  KeywordPairs pairs;
  lex.schema_ = &table->schema();
  const db::Schema& schema = *lex.schema_;

  // 1. Attribute values from the ads themselves (the domain-specific table
  //    of §4.1.4): every distinct categorical value becomes a keyword whose
  //    identifier is '"attr" = value'.
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const db::Attribute& attr = schema.attribute(a);
    if (attr.data_kind == db::DataKind::kNumeric) continue;
    const db::HashIndex* idx = table->hash_index(a);
    if (idx == nullptr) continue;
    for (const auto& value : idx->Keys()) {
      TaggedItem item;
      item.kind = attr.attr_type == db::AttrType::kTypeI
                      ? TagKind::kTypeIValue
                      : TagKind::kTypeIIValue;
      item.attr = a;
      item.value = value;
      lex.categorical_values_.push_back(
          CatValue{a, value, lex.terms_.Intern(value)});
      lex.InsertKeyword(value, std::move(item), &pairs);
    }
  }

  // 2. Quantitative attribute names, aliases, and unit keywords.
  for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
    const db::Attribute& attr = schema.attribute(a);
    if (attr.data_kind != db::DataKind::kNumeric) continue;
    TaggedItem name_item;
    name_item.kind = TagKind::kTypeIIIAttr;
    name_item.attr = a;
    name_item.value = attr.name;
    lex.InsertKeyword(attr.name, name_item, &pairs);
    for (const auto& alias : attr.aliases) {
      TaggedItem it = name_item;
      it.value = alias;
      lex.InsertKeyword(alias, std::move(it), &pairs);
    }
    for (const auto& unit : attr.unit_keywords) {
      TaggedItem it;
      it.kind = TagKind::kUnit;
      it.attr = a;
      it.value = unit;
      lex.InsertKeyword(unit, std::move(it), &pairs);
    }
  }

  // 3. The shared identifiers table (Table 1). Rules bound to an attribute
  //    alias are skipped when this schema has no such attribute.
  for (const IdentifierRule& rule : BuiltinIdentifierRules()) {
    TaggedItem item;
    item.kind = rule.kind;
    item.ascending = rule.ascending;
    item.op = rule.op;
    item.value = rule.keyword;
    if (!rule.attr_alias.empty()) {
      auto resolved = schema.Resolve(rule.attr_alias);
      if (!resolved) continue;
      item.attr = *resolved;
    }
    lex.InsertKeyword(rule.keyword, std::move(item), &pairs);
  }

  std::sort(lex.categorical_values_.begin(), lex.categorical_values_.end(),
            [](const CatValue& x, const CatValue& y) {
              if (x.attr != y.attr) return x.attr < y.attr;
              return x.value < y.value;
            });

  // Freeze the term substrate: build the trie from the collected pairs
  // (handles are fresh and ascending, so each keyword keeps its handles in
  // insertion order) and seal the dict (resolving stem links).
  lex.flat_trie_ = trie::FlatTrie::Build(std::move(pairs));
  lex.terms_.Freeze();
  return lex;
}

std::optional<DomainLexicon::PhraseMatch> DomainLexicon::LongestPhraseMatch(
    const text::TokenList& tokens, std::size_t i,
    std::size_t max_tokens) const {
  if (i >= tokens.size()) return std::nullopt;
  trie::FlatTrie::Cursor cursor = flat_trie_.Root();
  std::optional<PhraseMatch> best;
  const std::size_t end = std::min(tokens.size(), i + max_tokens);
  for (std::size_t j = i; j < end; ++j) {
    if (j > i) {
      cursor = flat_trie_.Step(cursor, ' ');
      if (!cursor.valid()) break;
    }
    cursor = flat_trie_.Walk(cursor, tokens[j].text);
    if (!cursor.valid()) break;
    if (flat_trie_.IsTerminal(cursor)) {
      PhraseMatch m;
      m.token_count = j - i + 1;
      const auto& handles = flat_trie_.Handles(cursor);
      m.handles.assign(handles.begin(), handles.end());
      best = std::move(m);
    }
  }
  return best;
}

std::optional<TaggedItem> DomainLexicon::FindShorthand(
    const std::string& token) const {
  const TaggedItem* best = nullptr;
  std::size_t best_len = 0;
  const std::string norm_token = text::NormalizeForShorthand(token);
  for (const CatValue& cat : categorical_values_) {
    const std::string& value = cat.value;
    if (value == token) continue;
    // Cached norm: the per-value NormalizeForShorthand the seed recomputed
    // on every probe.
    const std::string& norm_value = terms_.shorthand_norm(cat.id);
    // A shorthand abbreviates: the token must not be longer than the value
    // it stands for (longer unknown tokens are missing-space or misspelling
    // cases, handled elsewhere).
    if (norm_token.size() > norm_value.size()) continue;
    if (!text::IsShorthandMatchNormalized(norm_token, token, norm_value,
                                          value)) {
      continue;
    }
    if (value.size() > best_len) {
      const trie::HandleSpan handles = flat_trie_.Find(value);
      if (handles.empty()) continue;
      best = &entries_[static_cast<std::size_t>(handles[0])];
      best_len = value.size();
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::vector<std::string> DomainLexicon::ValuesOf(std::size_t attr) const {
  std::vector<std::string> out;
  for (const CatValue& cat : categorical_values_) {
    if (cat.attr == attr) out.push_back(cat.value);
  }
  return out;
}

}  // namespace cqads::core
