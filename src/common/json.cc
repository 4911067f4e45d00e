#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace idebench {

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

size_t JsonValue::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return members_.size();
  return 0;
}

const JsonValue& JsonValue::at(size_t i) const {
  static const JsonValue kNull;
  if (type_ != Type::kArray || i >= array_.size()) return kNull;
  return array_[i];
}

void JsonValue::Append(JsonValue v) {
  if (type_ != Type::kArray) {
    type_ = Type::kArray;
    array_.clear();
  }
  array_.push_back(std::move(v));
}

bool JsonValue::Has(const std::string& key) const {
  for (const auto& m : members_) {
    if (m.first == key) return true;
  }
  return false;
}

const JsonValue& JsonValue::Get(const std::string& key) const {
  static const JsonValue kNull;
  for (const auto& m : members_) {
    if (m.first == key) return m.second;
  }
  return kNull;
}

void JsonValue::Set(const std::string& key, JsonValue v) {
  if (type_ != Type::kObject) {
    type_ = Type::kObject;
    members_.clear();
  }
  for (auto& m : members_) {
    if (m.first == key) {
      m.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

double JsonValue::GetDouble(const std::string& key, double fallback) const {
  const JsonValue& v = Get(key);
  return v.is_number() ? v.AsDouble() : fallback;
}

int64_t JsonValue::GetInt(const std::string& key, int64_t fallback) const {
  const JsonValue& v = Get(key);
  return v.is_number() ? v.AsInt() : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue& v = Get(key);
  return v.is_bool() ? v.AsBool() : fallback;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue& v = Get(key);
  return v.is_string() ? v.AsString() : fallback;
}

void AppendJsonString(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char escape[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xF],
                                 kHex[c & 0xF]};
          out->append(escape, sizeof(escape));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(double d, std::string* out) {
  if (!std::isfinite(d)) {  // JSON has no Inf/NaN; emit null.
    *out += "null";
    return;
  }
  // std::to_chars with an explicit format is specified as printf's
  // ("%lld" / "%.17g" here), without printf's format parsing and locale.
  const bool integral = d == std::floor(d) && std::fabs(d) < 1e15;
  if (integral && d == 0.0 && std::signbit(d)) {  // "%lld" would drop it
    *out += "-0";
    return;
  }
  char buf[32];
  const std::to_chars_result r =
      integral ? std::to_chars(buf, buf + sizeof(buf),
                               static_cast<long long>(d))
               : std::to_chars(buf, buf + sizeof(buf), d,
                               std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

namespace {

void Indent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent * depth), ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      AppendJsonNumber(number_, out);
      return;
    case Type::kString:
      AppendJsonString(string_, out);
      return;
    case Type::kArray: {
      if (array_.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        Indent(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      Indent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        Indent(out, indent, depth + 1);
        AppendJsonString(members_[i].first, out);
        *out += indent > 0 ? ": " : ":";
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      Indent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string JsonValue::DumpPretty() const {
  std::string out;
  DumpTo(&out, /*indent=*/2, /*depth=*/0);
  return out;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return members_ == other.members_;
  }
  return false;
}

namespace {

/// Recursive-descent JSON parser over a string view.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    SkipWs();
    JsonValue v;
    IDB_RETURN_NOT_OK(ParseValue(&v));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::Invalid("JSON parse error at offset " +
                           std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    if (++depth_ > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    Status st;
    switch (text_[pos_]) {
      case '{':
        st = ParseObject(out);
        break;
      case '[':
        st = ParseArray(out);
        break;
      case '"': {
        std::string s;
        st = ParseString(&s);
        if (st.ok()) *out = JsonValue(std::move(s));
        break;
      }
      case 't':
        st = ParseLiteral("true");
        if (st.ok()) *out = JsonValue(true);
        break;
      case 'f':
        st = ParseLiteral("false");
        if (st.ok()) *out = JsonValue(false);
        break;
      case 'n':
        st = ParseLiteral("null");
        if (st.ok()) *out = JsonValue(nullptr);
        break;
      default:
        st = ParseNumber(out);
    }
    --depth_;
    return st;
  }

  Status ParseLiteral(const char* lit) {
    size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return Error("invalid literal");
    pos_ += n;
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("invalid number");
    // std::from_chars: locale-independent (strtod honors the C locale's
    // decimal separator), and out-of-range input is an explicit error
    // instead of a silent ±HUGE_VAL.  The full token must be consumed.
    double d = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, d);
    if (ec == std::errc::result_out_of_range) {
      return Error("number out of range");
    }
    if (ec != std::errc() || ptr != last) return Error("invalid number");
    *out = JsonValue(d);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
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
            if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("bad \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are passed
            // through as-is; workflow specs are ASCII in practice).
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(JsonValue* out) {
    Consume('[');
    *out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue elem;
      IDB_RETURN_NOT_OK(ParseValue(&elem));
      out->Append(std::move(elem));
      SkipWs();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Status ParseObject(JsonValue* out) {
    Consume('{');
    *out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string key;
      IDB_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      IDB_RETURN_NOT_OK(ParseValue(&value));
      out->Set(key, std::move(value));
      SkipWs();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  static constexpr int kMaxDepth = 128;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  Parser p(text);
  return p.ParseDocument();
}

}  // namespace idebench
