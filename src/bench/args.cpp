#include "bench/args.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace atacsim::bench {

namespace {

int parse_positive_int(const std::string& flag, const std::string& value) {
  char* end = nullptr;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || !end || *end != '\0' || v < 1 || v > 1 << 20)
    throw std::invalid_argument(flag + " expects a positive integer, got \"" +
                                value + "\"");
  return static_cast<int>(v);
}

}  // namespace

Args parse_args(int argc, const char* const* argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag, std::size_t prefix) -> std::string {
      if (arg.size() > prefix && arg[prefix] == '=')
        return arg.substr(prefix + 1);
      if (i + 1 >= argc)
        throw std::invalid_argument(std::string(flag) + " expects a value");
      return argv[++i];
    };
    if (arg == "--list") {
      a.list = true;
    } else if (arg == "--all") {
      a.all = true;
    } else if (arg == "--help" || arg == "-h") {
      a.help = true;
    } else if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
      a.jobs = parse_positive_int("--jobs", value_of("--jobs", 6));
    } else if (arg == "--obs-dir" || arg.rfind("--obs-dir=", 0) == 0) {
      a.obs_dir = value_of("--obs-dir", 9);
      if (a.obs_dir.empty())
        throw std::invalid_argument("--obs-dir expects a directory path");
    } else if (arg == "--filter" || arg.rfind("--filter=", 0) == 0) {
      a.filters.push_back(value_of("--filter", 8));
    } else if (!arg.empty() && arg[0] == '-') {
      throw std::invalid_argument("unknown flag: " + arg);
    } else {
      a.filters.push_back(arg);  // positional entry name / glob
    }
  }
  return a;
}

const char* usage() {
  return
      "usage: atacsim-bench [--list] [--all] [--filter=<glob>] [<name>...]\n"
      "                     [--jobs N] [--obs-dir=<path>]\n"
      "\n"
      "  --list           list every registered figure/table bench\n"
      "  --all            run every registered bench\n"
      "  --filter=<glob>  run benches whose name matches the glob\n"
      "                   (e.g. --filter='fig0*'); repeatable; a bare\n"
      "                   <name> argument is shorthand for an exact match\n"
      "  --jobs N         worker-pool size for scenario execution\n"
      "                   (default: ATACSIM_JOBS or all host cores)\n"
      "  --obs-dir=<path> arm the telemetry layer: per-run epoch series\n"
      "                   (JSON/CSV), Perfetto timeline traces and a host\n"
      "                   self-profile are written under <path>\n"
      "\n"
      "environment: ATACSIM_SCALE (problem-size multiplier, > 0),\n"
      "  ATACSIM_BENCH_MESH=<mesh_width>x<cluster_width> (smoke-size the\n"
      "  machine, e.g. 8x2), ATACSIM_JOBS, ATACSIM_CACHE,\n"
      "  ATACSIM_REPORT_DIR, ATACSIM_VALIDATE=1,\n"
      "  ATACSIM_OBS=1 / ATACSIM_OBS_DIR / ATACSIM_OBS_EPOCH (telemetry),\n"
      "  ATACSIM_LOG=error|warn|info (log level, default info)\n";
}

}  // namespace atacsim::bench
