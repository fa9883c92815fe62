#include "obs/options.hpp"

#include "common/parse.hpp"

namespace atacsim::obs {

namespace {

Options from_env() {
  Options o;
  o.enabled = env_switch("ATACSIM_OBS");
  const char* d = env_value("ATACSIM_OBS_DIR");
  o.dir = d ? std::string(d) : report_dir() + "/obs";
  return o;
}

Options& cell() {
  static Options o = from_env();
  return o;
}

}  // namespace

std::string report_dir() {
  const char* e = env_value("ATACSIM_REPORT_DIR");
  return e ? e : "bench_reports";
}

const Options& options() { return cell(); }

void set_options(const Options& o) { cell() = o; }

}  // namespace atacsim::obs
