// Opt-in run validation: the invariant vocabulary.
//
// The paper's results are only as good as what the simulator conserves:
// every flit injected must be delivered, directory state must agree with
// cache states (ACKwise_k's entire point is *bounding* tracked sharers,
// Sec. IV), and the energy components must sum to the totals plotted in
// Figs. 7-8. Graphite-lineage simulators ship a debug-assert layer for
// exactly these properties; this module is ours. It is opt-in, armed by
// ATACSIM_VALIDATE=1 or the constructor argument (Machine, Program,
// EventQueue), so the hot path stays clean in production runs.
//
// A failed probe raises InvariantViolation, a structured exception carrying
// the probe family, simulated cycle, core and a human-readable detail, so
// tests can assert on *which* invariant fired and where.
#pragma once

#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace atacsim::check {

/// The probe families of the validation layer.
enum class Probe {
  kCoherence,  ///< directory state vs cached copies (ACKwise_k / Dir_kB)
  kFlow,       ///< network flow conservation + channel busy-cycle bounds
  kEnergy,     ///< energy components finite, non-negative, summing to totals
  kClock,      ///< event dispatch timestamps monotone
  kObs,        ///< telemetry epoch deltas must sum to end-of-run totals
  kAddress,    ///< every simulated access lies in the running body's space
};

const char* to_string(Probe p);

class InvariantViolation : public std::runtime_error {
 public:
  InvariantViolation(Probe probe, std::string subsystem, Cycle cycle,
                     CoreId core, std::string detail);

  Probe probe;
  std::string subsystem;  ///< e.g. "directory", "enet.links", "EnergyBreakdown"
  Cycle cycle;            ///< simulated cycle at detection (0 if end-of-run)
  CoreId core;            ///< offending core, or kInvalidCore
  std::string detail;
};

/// True when the process opted into validation via ATACSIM_VALIDATE=1
/// (read once; the default of the Machine, Program and EventQueue
/// constructors' `validate` argument). Throws std::invalid_argument when
/// the variable is neither unset, empty, 0 nor 1.
bool env_validation_enabled();

/// Raises an InvariantViolation (out-of-line so probe call sites stay small).
[[noreturn]] void raise(Probe probe, std::string subsystem, Cycle cycle,
                        CoreId core, std::string detail);

}  // namespace atacsim::check
