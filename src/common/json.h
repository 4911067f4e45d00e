#ifndef IDEBENCH_COMMON_JSON_H_
#define IDEBENCH_COMMON_JSON_H_

/// \file json.h
/// A small self-contained JSON document model, parser and writer.
///
/// IDEBench workflow specifications are exchanged as JSON (paper Figure 4).
/// This module implements the subset of JSON needed for that format plus
/// configuration files: objects, arrays, strings, numbers, booleans, null.
/// Object key order is preserved so serialized workflows diff cleanly.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace idebench {

/// A JSON value (object / array / string / number / bool / null).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Ordered key/value list; keys are unique (later `Set` overwrites).
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : type_(Type::kNull) {}
  JsonValue(std::nullptr_t) : type_(Type::kNull) {}          // NOLINT
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}        // NOLINT
  JsonValue(double d) : type_(Type::kNumber), number_(d) {}  // NOLINT
  JsonValue(int i)                                           // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(int64_t i)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(uint64_t i)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  JsonValue(std::string s)                                        // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}

  /// Creates an empty object.
  static JsonValue Object();
  /// Creates an empty array.
  static JsonValue Array();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Accessors; each requires the corresponding type.
  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  int64_t AsInt() const { return static_cast<int64_t>(number_); }
  const std::string& AsString() const { return string_; }

  /// Array access.
  size_t size() const;
  const JsonValue& at(size_t i) const;
  void Append(JsonValue v);

  /// Object access.  `Get` returns null-value reference for missing keys.
  bool Has(const std::string& key) const;
  const JsonValue& Get(const std::string& key) const;
  void Set(const std::string& key, JsonValue v);
  const std::vector<Member>& members() const { return members_; }

  /// Typed lookups with defaults, for configuration reading.
  double GetDouble(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

  /// Serializes to a compact JSON string.
  std::string Dump() const;

  /// Appends the compact serialization to `*out`.
  void DumpTo(std::string* out) const {
    DumpTo(out, /*indent=*/0, /*depth=*/0);
  }

  /// Serializes with 2-space indentation.
  std::string DumpPretty() const;

  /// Parses a JSON document; rejects trailing garbage.
  static Result<JsonValue> Parse(const std::string& text);

  bool operator==(const JsonValue& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> members_;
};

/// Appends `d` as a JSON number.  Integral values below 1e15 in
/// magnitude print as integers (`-0.0` as `-0`), other finite values
/// with 17 significant digits (printf's `%.17g`, so they parse back
/// bit-identically), and NaN/±Inf as `null`, which JSON has no number
/// for.  The one number writer: `JsonValue` and the wire's update-frame
/// writer (net/protocol.h) both call it.
void AppendJsonNumber(double d, std::string* out);

/// Appends `s` as a quoted JSON string, escaping `"`, `\` and control
/// characters.  The one string writer, shared like AppendJsonNumber.
void AppendJsonString(std::string_view s, std::string* out);

}  // namespace idebench

#endif  // IDEBENCH_COMMON_JSON_H_
