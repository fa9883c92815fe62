// Process-wide arming of the telemetry layer.
//
// Everything in src/obs is off by default; a run is armed either from the
// environment (ATACSIM_OBS=1, ATACSIM_OBS_DIR) or programmatically
// (set_options: perfbench, tests). When off, no observer is ever
// constructed, so the simulation hot paths only pay a null-pointer test.
#pragma once

#include <string>

#include "common/types.hpp"

namespace atacsim::obs {

struct Options {
  bool enabled = false;
  /// Artifact directory for series/trace/profile files.
  std::string dir;
  /// Simulated-cycle sampling period of the epoch series.
  Cycle epoch_cycles = 10000;
};

/// The directory reports are written to: $ATACSIM_REPORT_DIR, or
/// "bench_reports" when it is unset or empty. Read at every call.
std::string report_dir();

/// The active options. First call reads the environment:
///   ATACSIM_OBS      armed when "1"; unset, empty or "0" is off
///   ATACSIM_OBS_DIR  artifact directory (default: report_dir() + "/obs")
/// and throws std::invalid_argument when ATACSIM_OBS is any other value.
/// The epoch period has no variable: it is 10000 unless set_options
/// changes it.
const Options& options();

/// Programmatic override; wins over the environment from then on. Call
/// before spawning exp workers — the snapshot is not locked against
/// concurrent readers.
void set_options(const Options& o);

}  // namespace atacsim::obs
