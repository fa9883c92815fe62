// Minimal recursive-descent JSON parser for the obs schema validators and
// the atacsim-obs-check tool. Parses the full RFC 8259 grammar into a
// simple ordered DOM; not performance-critical (artifacts are small).
// Also the one scalar writer (string escaping, number formatting) that
// every JSON and CSV artifact of the simulator is written with.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace atacsim::obs::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool b = false;
  double number = 0;
  std::string str;
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;  ///< insertion order kept

  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// First member with key `key`, or nullptr.
  const Value* find(const std::string& key) const {
    for (const auto& [k, v] : obj)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Parses `text` into `out`. On failure returns false and, when `err` is
/// non-null, describes the first problem (with byte offset).
bool parse(const std::string& text, Value& out, std::string* err = nullptr);

/// String escaping per RFC 8259 (quotes, backslash, control chars); the
/// caller adds the surrounding quotes.
std::string escape(const std::string& s);

/// %.17g, which round-trips doubles exactly; JSON has no Inf/NaN literals,
/// so those are written as null.
std::string num(double v);

}  // namespace atacsim::obs::json
