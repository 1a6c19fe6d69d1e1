// A minimal JSON value type with a strict parser and a deterministic
// writer — the control-plane codec of the network serving layer
// (serve/net/protocol.h frames carry one JSON document each) and of the
// machine-readable stats dumps (ConcurrentServer::StatsJson).
//
// Scope is deliberately small: objects keep insertion order (so dumps are
// deterministic and diffable), numbers are doubles (integral values within
// the exact-double range print as integers — request ids round-trip),
// strings are byte sequences assumed UTF-8 (the writer escapes quotes,
// backslashes, and control bytes; the parser decodes every \u escape
// including surrogate pairs). The parser treats input as UNTRUSTED network
// bytes: it rejects trailing garbage, caps nesting depth, and never reads
// past the buffer — malformed input costs an error Status, not undefined
// behavior. No external dependency.
#ifndef CQADS_COMMON_JSON_H_
#define CQADS_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cqads {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Members of an object, in insertion order. Lookups are linear — the
  /// documents this layer carries have a handful of keys.
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  ///< null

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(double d) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = d;
    return v;
  }
  static JsonValue Str(std::string s) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; precondition: matching kind (callers route through the
  // kind checks or the defaulted Get* helpers below).
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  std::vector<JsonValue>& array_items() { return array_; }
  const std::vector<Member>& object_members() const { return object_; }

  /// Array append / object set (replaces an existing key).
  void Append(JsonValue v) { array_.push_back(std::move(v)); }
  void Set(std::string key, JsonValue v);

  /// Member lookup; nullptr when absent or when this is not an object.
  const JsonValue* Find(std::string_view key) const;

  // Defaulted lookups for the common "read a field of an object" pattern.
  // A missing key or a kind mismatch yields the fallback.
  std::string GetString(std::string_view key, std::string fallback = "") const;
  double GetNumber(std::string_view key, double fallback = 0.0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  /// Compact single-line serialization (no insignificant whitespace).
  /// Deterministic: member order is insertion order.
  std::string Dump() const;
  void DumpTo(std::string* out) const;

  /// Strict parse of exactly one JSON document (leading/trailing whitespace
  /// allowed, anything else after the value is an error). Depth is capped
  /// (kMaxDepth) so adversarial nesting cannot overflow the stack.
  static Result<JsonValue> Parse(std::string_view text);

  static constexpr int kMaxDepth = 96;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
};

/// Appends `s` as a quoted JSON string literal (escaping `"`, `\`, and
/// control bytes; other bytes pass through as UTF-8). Exposed for callers
/// that build JSON text directly.
void JsonEscape(std::string_view s, std::string* out);

/// Appends `d` as JsonValue::DumpTo writes a number: integral values below
/// 2^53 in magnitude as integers, other finite values as "%.17g", and
/// inf/nan as null.
void JsonAppendNumber(double d, std::string* out);

}  // namespace cqads

#endif  // CQADS_COMMON_JSON_H_
