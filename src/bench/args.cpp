#include "bench/args.hpp"

#include <stdexcept>
#include <string>

#include "common/parse.hpp"

namespace atacsim::bench {

Args parse_args(int argc, const char* const* argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      a.list = true;
    } else if (arg == "--all") {
      a.all = true;
    } else if (arg == "--help" || arg == "-h") {
      a.help = true;
    } else if (arg == "--jobs" || arg.rfind("--jobs=", 0) == 0) {
      if (arg == "--jobs" && i + 1 >= argc)
        throw std::invalid_argument("--jobs expects a value");
      const std::string value = arg == "--jobs" ? argv[++i] : arg.substr(7);
      const auto v = parse_whole<int>(value);
      if (!v || *v < 1 || *v > 1 << 20)
        throw std::invalid_argument("--jobs expects a positive integer, got \"" +
                                    value + "\"");
      a.jobs = *v;
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
      "usage: atacsim-bench [--list] [--all] [<glob>...] [--jobs N]\n"
      "\n"
      "  --list    list every registered figure/table bench\n"
      "  --all     run every registered bench\n"
      "  <glob>    run the benches whose name matches the glob (e.g.\n"
      "            'fig0*'; a plain name is an exact match); repeatable\n"
      "  --jobs N  worker-pool size for scenario execution\n"
      "            (default: all host cores)\n"
      "\n"
      "environment (empty means the default; a malformed value exits 2\n"
      "before any bench runs; see README): ATACSIM_SCALE (> 0),\n"
      "  ATACSIM_BENCH_MESH=<mesh_width>x<cluster_width> (e.g. 8x2),\n"
      "  ATACSIM_CACHE, ATACSIM_REPORT_DIR, ATACSIM_VALIDATE=0|1,\n"
      "  ATACSIM_OBS=0|1, ATACSIM_OBS_DIR, ATACSIM_LOG=error|warn|info\n";
}

}  // namespace atacsim::bench
