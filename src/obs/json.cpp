#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace atacsim::obs::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool parse(Value& out, std::string* err) {
    skip_ws();
    if (!value(out)) {
      if (err) *err = err_ + " at byte " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != s_.size()) {
      if (err) *err = "trailing content at byte " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool fail(const char* what) {
    if (err_.empty()) err_ = what;
    return false;
  }

  bool literal(const char* word, Value& out, Value::Type t, bool bval) {
    const std::size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return fail("invalid literal");
    pos_ += len;
    out.type = t;
    out.b = bval;
    return true;
  }

  bool value(Value& out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"':
        out.type = Value::Type::kString;
        return string(out.str);
      case 't': return literal("true", out, Value::Type::kBool, true);
      case 'f': return literal("false", out, Value::Type::kBool, false);
      case 'n': return literal("null", out, Value::Type::kNull, false);
      default: return number(out);
    }
  }

  bool object(Value& out) {
    out.type = Value::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"')
        return fail("expected object key");
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      Value v;
      if (!value(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(Value& out) {
    out.type = Value::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      Value v;
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool hex4(unsigned& out) {
    if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = s_[pos_ + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("bad \\u escape");
    }
    pos_ += 4;
    return true;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return fail("truncated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned cp = 0;
            if (!hex4(cp)) return false;
            // Surrogate pairs collapse to '?': the obs emitters never
            // produce astral-plane strings, and the validators only need
            // well-formed round-tripping of what we write.
            if (cp >= 0xD800 && cp <= 0xDFFF) {
              if (s_.compare(pos_, 2, "\\u") == 0) {
                pos_ += 2;
                unsigned lo = 0;
                if (!hex4(lo)) return false;
              }
              out += '?';
            } else {
              append_utf8(out, cp);
            }
            break;
          }
          default: return fail("bad escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      } else {
        out += c;
        ++pos_;
      }
    }
    return fail("unterminated string");
  }

  bool number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
    }
    if (pos_ == start) return fail("invalid value");
    const std::string tok = s_.substr(start, pos_ - start);
    char* end = nullptr;
    out.number = std::strtod(tok.c_str(), &end);
    if (!end || *end != '\0') {
      pos_ = start;
      return fail("invalid number");
    }
    out.type = Value::Type::kNumber;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string err_;
};

}  // namespace

bool parse(const std::string& text, Value& out, std::string* err) {
  return Parser(text).parse(out, err);
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace atacsim::obs::json
