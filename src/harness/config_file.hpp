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
//
// The 22 keys are the fields of ATACSIM_MACHINE_FIELDS (common/params.hpp)
// but num_cores, which follows mesh_width; each value must lie in its
// field's range there. An enum field takes the tokens of its table in
// params.hpp (network = atac|emesh-bcast|emesh-pure, ...).
#pragma once

#include <string>

#include "common/params.hpp"

namespace atacsim::harness {

/// Applies `key = value` settings from `text` on top of `base`. An unknown
/// key, a malformed value or one outside the field's range in the list
/// throws std::invalid_argument naming the offending line; mesh_width
/// re-derives num_cores.
MachineParams parse_machine_config(const std::string& text,
                                   MachineParams base = MachineParams::paper());

/// Reads and parses a config file; throws std::runtime_error if unreadable.
MachineParams load_machine_config(const std::string& path,
                                  MachineParams base = MachineParams::paper());

}  // namespace atacsim::harness
