// perfbench: the simulator benchmark's measuring binary. run.py builds it,
// runs it once with ATACSIM_VALIDATE=1 (--validate) and once timed. Prints
// one "digest <scenario> <hex>" line per scenario, then a single JSON line
// with the counts, errors and metrics.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: perfbench --workload <name> --seed <n> [--seconds <s>] "
      "[--trace] [--validate] [--small] [--fail-verify] "
      "[--out <dir>]\nworkloads:");
  for (const auto& w : perfbench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end && end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    double v = 0;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value && parse_number(argv[i + 1], v) &&
               v >= 0) {
      o.seed = static_cast<std::uint64_t>(v);
      ++i;
    } else if (a == "--seconds" && has_value && parse_number(argv[i + 1], v) &&
               v >= 0) {
      o.seconds = v;
      ++i;
    } else if (a == "--out" && has_value) {
      o.out_dir = argv[++i];
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--validate") {
      o.validate = true;
    } else if (a == "--small") {
      o.small = true;
    } else if (a == "--fail-verify") {
      o.fail_verify = true;
    } else {
      usage();
      return 2;
    }
  }
  if (o.workload.empty()) {
    usage();
    return 2;
  }

  perfbench::Tracer tracer(o.trace);
  perfbench::Result r;
  try {
    std::filesystem::create_directories(o.out_dir);
    r = perfbench::run_workload(o, tracer);
  } catch (const std::exception& e) {
    r.fail(e.what());
  }
  if (!o.validate && !o.trace) r.set("peak_rss_mb", peak_rss_mb());

  if (o.trace) {
    const std::string path = (std::filesystem::path(o.out_dir) /
                              ("trace_" + o.workload + "_seed" +
                               std::to_string(o.seed) + ".json"))
                                 .string();
    std::ofstream os(path);
    tracer.write_chrome(os);
    if (!os.good()) r.fail("cannot write trace file " + path);
    r.set("obs.spans", static_cast<double>(tracer.size()));
    std::fprintf(stderr, "trace: %s (%zu spans)\n", path.c_str(),
                 tracer.size());
  }

  for (const auto& [id, hex] : r.digests)
    std::printf("digest %s %s\n", id.c_str(), hex.c_str());
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"errors\": [",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    std::printf("%s%s", i ? ", " : "", json_string(r.errors[i]).c_str());
  std::printf("], \"digests\": {");
  for (std::size_t i = 0; i < r.digests.size(); ++i)
    std::printf("%s%s: \"%s\"", i ? ", " : "",
                json_string(r.digests[i].first).c_str(),
                r.digests[i].second.c_str());
  std::printf("}, \"metrics\": {");
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s%s: %.17g", i ? ", " : "",
                json_string(r.metrics[i].first).c_str(), r.metrics[i].second);
  std::printf("}}\n");
  return r.failed ? 1 : 0;
}
