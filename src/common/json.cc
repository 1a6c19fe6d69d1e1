#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstring>

namespace cqads {

void JsonValue::Set(std::string key, JsonValue v) {
  kind_ = Kind::kObject;
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value()
                                          : std::move(fallback);
}

double JsonValue::GetNumber(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : fallback;
}

namespace {

/// True for the bytes a JSON string literal cannot hold raw: the quote, the
/// backslash and every control byte below 0x20.
bool NeedsEscape(unsigned char c) { return c == '"' || c == '\\' || c < 0x20; }

/// Offset of the first byte at or after `pos` that NeedsEscape, or
/// s.size() when there is none; the writer and the parser both scan with
/// it. It tests eight bytes per step with the borrow trick: for k <= 0x80,
/// `(x - 0x0101..01 * k) & ~x & 0x8080..80` is nonzero exactly when some
/// byte of x is below k. Applied with k = 0x20 to the word, and with k = 1
/// to the word xored with quotes and with backslashes, it says whether the
/// word holds a byte to escape but not which one, so a byte loop finds it
/// and no byte order is assumed. Words are loaded only while all eight
/// bytes lie inside `s`.
std::size_t FindEscapeByte(std::string_view s, std::size_t pos) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHighBits = kOnes * 0x80;
  for (; pos + 8 <= s.size(); pos += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + pos, 8);
    const std::uint64_t quote = w ^ (kOnes * '"');
    const std::uint64_t backslash = w ^ (kOnes * '\\');
    if ((((w - kOnes * 0x20) & ~w) | ((quote - kOnes) & ~quote) |
         ((backslash - kOnes) & ~backslash)) &
        kHighBits) {
      break;
    }
  }
  while (pos < s.size() && !NeedsEscape(static_cast<unsigned char>(s[pos]))) {
    ++pos;
  }
  return pos;
}

void AppendEscape(unsigned char c, std::string* out) {
  switch (c) {
    case '"':
      out->append("\\\"");
      break;
    case '\\':
      out->append("\\\\");
      break;
    case '\b':
      out->append("\\b");
      break;
    case '\f':
      out->append("\\f");
      break;
    case '\n':
      out->append("\\n");
      break;
    case '\r':
      out->append("\\r");
      break;
    case '\t':
      out->append("\\t");
      break;
    default: {
      static constexpr char kHex[] = "0123456789abcdef";
      const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
      out->append(u, sizeof(u));
    }
  }
}

}  // namespace

void JsonEscape(std::string_view s, std::string* out) {
  out->push_back('"');
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = FindEscapeByte(s, pos);
    out->append(s.substr(pos, next - pos));
    if (next == s.size()) break;
    AppendEscape(static_cast<unsigned char>(s[next]), out);
    pos = next + 1;
  }
  out->push_back('"');
}

void JsonAppendNumber(double d, std::string* out) {
  if (!std::isfinite(d)) {
    // JSON has no inf/nan literal; null is the conventional degradation.
    out->append("null");
    return;
  }
  // Integral values inside the exact-double range print as integers so
  // request ids and counters round-trip byte-exactly; the rest print the
  // bytes of printf's "%.17g".
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  char buf[32];
  char* end = nullptr;
  if (d == std::floor(d) && std::fabs(d) < kExactLimit) {
    end = std::to_chars(buf, buf + sizeof(buf), static_cast<std::int64_t>(d))
              .ptr;
  } else {
    end = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general,
                        17)
              .ptr;
  }
  out->append(buf, end);
}

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Kind::kNumber:
      JsonAppendNumber(number_, out);
      return;
    case Kind::kString:
      JsonEscape(string_, out);
      return;
    case Kind::kArray: {
      out->push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        array_[i].DumpTo(out);
      }
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        JsonEscape(object_[i].first, out);
        out->push_back(':');
        object_[i].second.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {

/// Recursive-descent parser over untrusted bytes. Every advance is bounds-
/// checked; errors carry the byte offset so protocol tests can pin them.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Run() {
    SkipWhitespace();
    JsonValue v;
    CQADS_RETURN_NOT_OK(ParseValue(0, &v));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing bytes after JSON document");
    }
    return v;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  Status ParseValue(int depth, JsonValue* out) {
    if (depth > JsonValue::kMaxDepth) return Fail("nesting too deep");
    if (AtEnd()) return Fail("unexpected end of input");
    switch (Peek()) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        CQADS_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue::Str(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view word, JsonValue value, JsonValue* out) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    while (!AtEnd()) {
      const char c = Peek();
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double d = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc() || end != text_.data() + pos_ || pos_ == start) {
      return Fail("invalid number");
    }
    *out = JsonValue::Number(d);
    return Status::OK();
  }

  Status ParseHex4(std::uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(std::uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (true) {
      const std::size_t next = FindEscapeByte(text_, pos_);
      out->append(text_.substr(pos_, next - pos_));
      pos_ = next;
      if (AtEnd()) return Fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Fail("raw control byte in string");
      ++pos_;  // past the backslash
      if (AtEnd()) return Fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          std::uint32_t cp = 0;
          CQADS_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (!Consume('\\') || !Consume('u')) {
              return Fail("unpaired high surrogate");
            }
            std::uint32_t low = 0;
            CQADS_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("invalid escape");
      }
    }
  }

  Status ParseArray(int depth, JsonValue* out) {
    Consume('[');
    *out = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue item;
      SkipWhitespace();
      CQADS_RETURN_NOT_OK(ParseValue(depth + 1, &item));
      out->Append(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
  }

  Status ParseObject(int depth, JsonValue* out) {
    Consume('{');
    *out = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      CQADS_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' in object");
      SkipWhitespace();
      JsonValue value;
      CQADS_RETURN_NOT_OK(ParseValue(depth + 1, &value));
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace cqads
