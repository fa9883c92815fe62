#include "harness/config_file.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/parse.hpp"

namespace atacsim::harness {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  const auto e = s.find_last_not_of(" \t\r");
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

[[noreturn]] void fail(const std::string& line, const std::string& why) {
  throw std::invalid_argument("config line '" + line + "': " + why);
}

/// Sets `field` from `val`, the value on config line `line`: an enumerator
/// from its token, a number parsed whole and checked against [lo, hi]
/// (spelled `range`) before it is stored, so a negative value never wraps
/// into a Cycle.
template <class T, class L, class H>
void set(T& field, const std::string& line, const std::string& val, L lo,
         H hi, const char* range) {
  if constexpr (std::is_enum_v<T>) {
    const auto names = enum_names(field);
    std::string tokens;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (val == names[i].token) {
        field = static_cast<T>(i);
        return;
      }
      tokens += (i ? "|" : "") + std::string(names[i].token);
    }
    fail(line, "expected " + tokens);
  } else {
    using Wide = std::conditional_t<std::is_integral_v<T>, long long, double>;
    const auto v = parse_whole<Wide>(val);
    if (!v)
      fail(line, std::is_integral_v<T> ? "not an integer" : "not a number");
    if (!in_range(*v, lo, hi)) fail(line, std::string("outside ") + range);
    field = static_cast<T>(*v);
  }
}

}  // namespace

MachineParams parse_machine_config(const std::string& text,
                                   MachineParams base) {
  MachineParams mp = base;
  std::istringstream is(text);
  std::string raw;
  while (std::getline(is, raw)) {
    const std::string line = trim(raw.substr(0, raw.find('#')));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(raw, "expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (key.empty() || val.empty()) fail(raw, "empty key or value");

    if (key == "num_cores") fail(raw, "num_cores follows mesh_width");
#define ATACSIM_X(type, name, def, use, lo, hi) \
  else if (key == #name) set(mp.name, raw, val, lo, hi, "[" #lo ", " #hi "]");
    ATACSIM_MACHINE_FIELDS(ATACSIM_X)
#undef ATACSIM_X
    else fail(raw, "unknown key");
    if (key == "mesh_width") mp.num_cores = mp.mesh_width * mp.mesh_width;
  }
  mp.validate();
  return mp;
}

MachineParams load_machine_config(const std::string& path,
                                  MachineParams base) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read config file: " + path);
  std::stringstream ss;
  ss << is.rdbuf();
  return parse_machine_config(ss.str(), base);
}

}  // namespace atacsim::harness
