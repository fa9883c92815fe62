// The one bench argument parser: the unified driver and every registry
// entry share this CLI surface (the per-binary `parse_jobs` loops it
// replaces silently ignored unknown flags; here they are errors).
#pragma once

#include <string>
#include <vector>

namespace atacsim::bench {

struct Args {
  bool list = false;   ///< --list: print entries and exit
  bool all = false;    ///< --all: run every entry
  bool help = false;   ///< --help / -h
  int jobs = 0;        ///< --jobs N; 0 = one worker per hardware thread
  /// Positional entry names and globs.
  std::vector<std::string> filters;
};

/// Parses the driver command line. Throws std::invalid_argument on an
/// unknown flag or a malformed value (e.g. --jobs without a positive
/// integer, parsed whole: no space, sign or trailing text).
Args parse_args(int argc, const char* const* argv);

/// Usage text for --help and error messages.
const char* usage();

}  // namespace atacsim::bench
