// The benchmark's workloads. Each drives the simulator through its public
// functions, times every call into a layer, checks the outputs, and returns
// the measured metrics by name (units live in BENCHMARK.json).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;       ///< minimum measured time of the timed loop
  bool trace = false;        ///< traced run: per-layer metrics + span trace
  bool validate = false;     ///< one untimed pass (run with ATACSIM_VALIDATE=1)
  bool small = false;        ///< 8x2 machine, tiny inputs: validation, tests
  bool fail_verify = false;  ///< app workloads: App::verify reports a failure
  std::string out_dir;       ///< trace file, telemetry and scratch caches
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Digest of every simulated statistic, per scenario id, in first-seen
  /// order.
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<std::pair<std::string, double>> metrics;

  void fail(std::string why);
  /// Records `hex` for scenario `id`; a different digest for an id already
  /// seen is a determinism failure.
  void digest(const std::string& id, const std::string& hex);
  void set(std::string name, double value);
};

const std::vector<std::string>& workload_names();

/// Runs `o.workload`. Throws on an unknown workload; failures of the
/// simulated operations are counted in the result instead.
Result run_workload(const Options& o, Tracer& tracer);

}  // namespace perfbench
