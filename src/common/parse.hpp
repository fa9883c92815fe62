// The one parser for values the simulator takes from outside: environment
// variables, command-line flags, config-file values and scenario-cache
// entries. Every ATACSIM_* variable is read here and every text-to-number
// conversion is std::from_chars over the whole text, so one value follows
// one rule wherever it is read: no space, sign '+', hex form or trailing
// text, nothing outside the type, and an empty variable means "unset".
#pragma once

#include <charconv>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace atacsim {

/// The whole of `s` as a T, or nullopt when any byte of it is not part of
/// one T in plain decimal or the value lies outside T.
template <class T>
std::optional<T> parse_whole(std::string_view s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || p != end) return std::nullopt;
  return v;
}

/// The value of environment variable `name`, or null when it is unset or
/// empty: an empty variable means the default everywhere.
inline const char* env_value(const char* name) {
  const char* e = std::getenv(name);
  return e && *e ? e : nullptr;
}

/// An on/off variable: unset, empty or "0" is off and "1" is on. Any other
/// value throws std::invalid_argument naming the variable and the value.
inline bool env_switch(const char* name) {
  const char* e = env_value(name);
  const std::string_view v = e ? e : "0";
  if (v != "0" && v != "1")
    throw std::invalid_argument(std::string(name) + "=\"" + e +
                                "\": expected 0 or 1");
  return v == "1";
}

}  // namespace atacsim
