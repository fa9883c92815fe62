// Plain-text configuration files for MachineParams: `key = value` lines,
// `#` comments. Lets experiments be described as files instead of flag
// soups (see examples/run_experiment.cpp --config).
//
//   # 256-core ATAC+ with Dir_8B
//   mesh_width   = 16
//   cluster_width = 4
//   network      = atac
//   coherence    = dirkb
//   num_hw_sharers = 8
#pragma once

#include <string>

#include "common/params.hpp"

namespace atacsim::harness {

/// Applies `key = value` settings from `text` on top of `base`.
/// Unknown keys or malformed values throw std::invalid_argument with the
/// offending line. Geometry keys re-derive num_cores.
MachineParams parse_machine_config(const std::string& text,
                                   MachineParams base = MachineParams::paper());

/// Reads and parses a config file; throws std::runtime_error if unreadable.
MachineParams load_machine_config(const std::string& path,
                                  MachineParams base = MachineParams::paper());

}  // namespace atacsim::harness
