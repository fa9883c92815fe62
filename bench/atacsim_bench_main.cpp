// Unified bench driver: every paper figure/table/ablation registers itself
// (ATACSIM_BENCH in its translation unit) and this binary lists, filters
// and runs them. Replaces the one-binary-per-figure scheme; each entry
// prints the same human-readable table its standalone binary did and
// returns its rows, which bench::run_entry writes as the machine-readable
// JSON/CSV report under bench_reports/ (plus one `digest` line per row).
//
//   atacsim-bench --list
//   atacsim-bench fig08_edp tab05_swmr_util
//   atacsim-bench 'fig1*' --jobs=8
//   ATACSIM_OBS=1 atacsim-bench --all
//
// Every setting, flags and ATACSIM_* variables alike, is checked before
// any entry runs: a malformed one exits 2 with no report written.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/args.hpp"
#include "bench/common.hpp"
#include "bench/registry.hpp"
#include "check/invariant.hpp"
#include "obs/log.hpp"
#include "obs/options.hpp"
#include "obs/profile.hpp"

namespace {

using atacsim::bench::Args;
using atacsim::bench::Entry;
using atacsim::bench::Registry;
namespace log = atacsim::obs::log;

/// Entries selected by the command line, in registry (name) order, deduped.
std::vector<const Entry*> select(const Args& args) {
  const auto& reg = Registry::instance();
  if (args.all) return reg.all();
  std::vector<const Entry*> out;
  for (const auto& f : args.filters)
    for (const Entry* e : reg.match(f)) out.push_back(e);
  std::sort(out.begin(), out.end(),
            [](const Entry* a, const Entry* b) { return a->name < b->name; });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int list_entries() {
  for (const Entry* e : Registry::instance().all())
    std::printf("%-24s %s\n", e->name.c_str(), e->description.c_str());
  return 0;
}

/// One self-profile document per entry: written after the entry finishes,
/// then reset so phases/worker stats never bleed across entries. The file
/// is explicitly nondeterministic (host wall time) and lives apart from the
/// deterministic series/trace artifacts.
void flush_profile(const std::string& entry) {
  auto& prof = atacsim::obs::SelfProfile::instance();
  if (!atacsim::obs::options().enabled) return;
  if (prof.empty()) {
    prof.reset();
    return;
  }
  namespace fs = std::filesystem;
  const std::string dir = atacsim::obs::options().dir;
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path =
      (fs::path(dir) / (entry + ".profile.json")).string();
  std::ofstream os(path);
  prof.write_json(os, entry);
  if (!os.good())
    log::warnf("obs: failed writing %s", path.c_str());
  else
    log::infof("obs: wrote %s", path.c_str());
  prof.reset();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = atacsim::bench::parse_args(argc, argv);
    log::level();
    atacsim::check::env_validation_enabled();
    atacsim::obs::options();
    atacsim::bench::bench_scale();
    atacsim::bench::base_machine();
  } catch (const std::exception& ex) {
    // Not log::errorf: ATACSIM_LOG may itself be the malformed setting.
    std::fprintf(stderr, "atacsim-bench: %s\n", ex.what());
    std::fputs(atacsim::bench::usage(), stderr);
    return 2;
  }
  if (args.help) {
    std::printf("%s", atacsim::bench::usage());
    return 0;
  }
  if (args.list) return list_entries();
  if (!args.all && args.filters.empty()) {
    log::errorf("atacsim-bench: nothing selected");
    std::fputs(atacsim::bench::usage(), stderr);
    return 2;
  }

  const auto selected = select(args);
  if (selected.empty()) {
    log::errorf("atacsim-bench: no entry matches the filter(s)");
    return 2;
  }

  atacsim::exp::ExecOptions opt;
  opt.jobs = args.jobs;
  int failures = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Entry* e = selected[i];
    if (selected.size() > 1)
      log::infof("[%zu/%zu] %s", i + 1, selected.size(), e->name.c_str());
    try {
      atacsim::bench::run_entry(*e, opt);
    } catch (const std::exception& ex) {
      log::errorf("atacsim-bench: %s failed: %s", e->name.c_str(), ex.what());
      ++failures;
    }
    flush_profile(e->name);
    if (i + 1 < selected.size()) std::printf("\n");
  }
  return failures ? 1 : 0;
}
