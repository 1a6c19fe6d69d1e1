#include "core/question_tagger.h"

#include <algorithm>

#include "common/string_util.h"
#include "text/number_parser.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "trie/segmenter.h"

namespace cqads::core {

namespace {

int KindPriority(TagKind kind) {
  switch (kind) {
    case TagKind::kTypeIValue:
      return 0;
    case TagKind::kTypeIIValue:
      return 1;
    default:
      return 2;
  }
}

}  // namespace

QuestionTagger::QuestionTagger(const DomainLexicon* lexicon, Options options)
    : lexicon_(lexicon),
      options_(options),
      corrector_(&lexicon->flat_trie(),
                 trie::SpellCorrectorOptions{options.min_correction_percent,
                                             512}) {}

const TaggedItem& QuestionTagger::PreferredEntry(const std::int32_t* handles,
                                                 std::size_t count) const {
  const TaggedItem* best = &lexicon_->entry(handles[0]);
  for (std::size_t i = 0; i < count; ++i) {
    const TaggedItem& e = lexicon_->entry(handles[i]);
    if (KindPriority(e.kind) < KindPriority(best->kind)) best = &e;
  }
  return *best;
}

TaggingResult QuestionTagger::TagTokens(text::TokenList tokens) const {
  const trie::FlatTrie& trie = lexicon_->flat_trie();
  TaggingResult result;

  std::size_t i = 0;
  while (i < tokens.size()) {
    // 1. Longest trie phrase starting here (values, operators, attr names).
    if (auto match = lexicon_->LongestPhraseMatch(tokens, i)) {
      TaggedItem item =
          PreferredEntry(match->handles.data(), match->handles.size());
      item.token_begin = i;
      item.token_end = i + match->token_count;
      result.items.push_back(std::move(item));
      i += match->token_count;
      continue;
    }

    const text::Token& tok = tokens[i];

    // 2. Stopword: non-essential, drop silently. This precedes number
    //    parsing so pronoun-like number words ("a blue one") don't become
    //    quantities.
    if (tok.kind == text::TokenKind::kWord && text::IsStopword(tok.text)) {
      ++i;
      continue;
    }

    // 3. Numeric literal — but first check whether the number plus the next
    //    token abbreviate a categorical value ("2 dr" -> "2 door", "four
    //    door" -> "4 door").
    if (auto num = text::ParseNumberToken(tok)) {
      if (i + 1 < tokens.size()) {
        if (auto joined =
                lexicon_->FindShorthand(tok.text + tokens[i + 1].text)) {
          TaggedItem item = *joined;
          item.token_begin = i;
          item.token_end = i + 2;
          result.shorthands.push_back(tok.text + " " + tokens[i + 1].text +
                                      " -> " + joined->value);
          result.items.push_back(std::move(item));
          i += 2;
          continue;
        }
      }
      TaggedItem item;
      item.kind = TagKind::kNumber;
      item.number = num->value;
      item.is_money = num->is_money;
      item.token_begin = i;
      item.token_end = i + 1;
      result.items.push_back(std::move(item));
      ++i;
      continue;
    }

    // 4. Missing-space repair: splice the segments back into the stream and
    //    reprocess from the same position. This runs before shorthand
    //    resolution: "hondaaccord" is a missing space, not an abbreviation,
    //    and segmentation demands a full keyword decomposition (higher
    //    precision than subsequence matching).
    auto segments = trie::SegmentWord(trie, tok.text);
    if (!segments.empty()) {
      result.segmentations.push_back(tok.text + " -> " +
                                     Join(segments, " "));
      text::TokenList spliced;
      spliced.reserve(tokens.size() + segments.size() - 1);
      spliced.insert(spliced.end(), tokens.begin(),
                     tokens.begin() + static_cast<std::ptrdiff_t>(i));
      for (const auto& seg : segments) {
        text::Token t;
        t.text = seg;
        t.kind = IsDigits(seg) ? text::TokenKind::kNumber
                               : text::TokenKind::kWord;
        t.offset = tok.offset;
        spliced.push_back(std::move(t));
      }
      spliced.insert(spliced.end(),
                     tokens.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                     tokens.end());
      tokens = std::move(spliced);
      continue;  // reprocess at position i
    }

    // 5. Shorthand notation of a known categorical value ("2dr").
    if (auto shorthand = lexicon_->FindShorthand(tok.text)) {
      TaggedItem item = *shorthand;
      item.token_begin = i;
      item.token_end = i + 1;
      result.shorthands.push_back(tok.text + " -> " + shorthand->value);
      result.items.push_back(std::move(item));
      ++i;
      continue;
    }

    // 6. Spelling correction against the trie.
    if (tok.text.size() >= options_.min_correction_length) {
      if (auto corrected = corrector_.Correct(tok.text)) {
        result.corrections.push_back(
            tok.text + " -> " + corrected->keyword + " (" +
            FormatDouble(corrected->percent, 0) + "%)");
        const trie::HandleSpan handles = trie.Find(corrected->keyword);
        if (!handles.empty()) {
          TaggedItem item = PreferredEntry(handles.begin(), handles.size());
          item.token_begin = i;
          item.token_end = i + 1;
          result.items.push_back(std::move(item));
          ++i;
          continue;
        }
      }
    }

    // 7. Unknown and unrepairable: a non-essential keyword (§4.1.4).
    result.dropped.push_back(tok.text);
    ++i;
  }
  return result;
}

TaggingResult QuestionTagger::Tag(const std::string& question) const {
  return TagTokens(text::Tokenize(question));
}

}  // namespace cqads::core
