#include "obs/options.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "obs/log.hpp"

namespace atacsim::obs {

namespace {

Options from_env() {
  Options o;
  const char* on = std::getenv("ATACSIM_OBS");
  o.enabled = on && on[0] != '\0' && on[0] != '0';
  if (const char* d = std::getenv("ATACSIM_OBS_DIR")) {
    o.dir = d;
  } else {
    const char* rep = std::getenv("ATACSIM_REPORT_DIR");
    o.dir = std::string(rep ? rep : "bench_reports") + "/obs";
  }
  if (const char* e = std::getenv("ATACSIM_OBS_EPOCH")) {
    // Parsed whole: a sign, a space or trailing text is refused ("-1"
    // must not wrap to 2^64 - 1).
    Cycle v = 0;
    const char* last = e + std::strlen(e);
    const auto [p, ec] = std::from_chars(e, last, v);
    if (ec == std::errc() && p == last && v > 0) {
      o.epoch_cycles = v;
    } else {
      log::warnf("ATACSIM_OBS_EPOCH=\"%s\" is not a positive integer; using %llu",
                 e, static_cast<unsigned long long>(o.epoch_cycles));
    }
  }
  return o;
}

Options& cell() {
  static Options o = from_env();
  return o;
}

}  // namespace

const Options& options() { return cell(); }

void set_options(const Options& o) { cell() = o; }

}  // namespace atacsim::obs
