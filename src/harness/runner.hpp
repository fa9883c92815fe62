// Experiment harness: standard machine configurations, the application
// scenario runner (simulate -> verify -> integrate energy), and small
// helpers shared by every per-figure bench binary.
#pragma once

#include <string>

#include "apps/app.hpp"
#include "common/stats.hpp"
#include "core/program.hpp"
#include "power/energy_model.hpp"

namespace atacsim::harness {

/// One simulated experiment: an application on a machine configuration.
struct Scenario {
  std::string app;
  MachineParams mp = MachineParams::paper();
  double scale = 1.0;
  std::uint64_t seed = 12345;
  Cycle max_cycles = 5'000'000'000ull;
};

struct Outcome {
  std::string app;
  std::string config;
  bool finished = false;
  std::string verify_msg;  ///< empty when the application result is correct
  core::RunResult run;
  power::EnergyBreakdown energy;
  double wall_seconds = 0;

  // ATAC+-only link statistics (zero on electrical machines).
  double swmr_utilization = 0;
  std::uint64_t onet_unicasts = 0;
  std::uint64_t onet_bcasts = 0;

  /// Telemetry summary stats (latency-histogram percentiles); empty unless
  /// the run executed with obs armed, so reports stay byte-identical when
  /// telemetry is off.
  StatList obs_stats;

  double seconds() const;  ///< simulated completion time
  /// Energy-delay product over chip (network + caches), the paper's Fig. 8
  /// metric (core energy is studied separately in Sec. V-G).
  double edp() const { return energy.chip_no_core() * seconds(); }
  double offered_load_flits_per_cycle_per_core(int num_cores) const;
  double bcast_recv_fraction() const;
};

/// Runs one scenario end to end. Neither an app that fails verification
/// nor one cut off by `max_cycles` throws: the outcome's `verify_msg` says
/// what went wrong ("did not complete" for the latter).
Outcome run_scenario(const Scenario& s);

/// Integrates an outcome's counters into energy under `tb`: the one energy
/// computation. run_scenario and the plan pass the default bundle; the
/// waveguide-loss sweep of Fig. 9 varies it without re-running the
/// simulation.
power::EnergyBreakdown recompute_energy(const Outcome& o,
                                        const MachineParams& mp,
                                        const TechBundle& tb);

// --- standard paper configurations -------------------------------------
// The paper's three networks on `base` (the 1024-core machine by default;
// bench:: passes its possibly smaller bench machine).
MachineParams atac_plus(PhotonicFlavor f = PhotonicFlavor::kDefault,
                        MachineParams base = MachineParams::paper());
MachineParams emesh_bcast(MachineParams base = MachineParams::paper());
MachineParams emesh_pure(MachineParams base = MachineParams::paper());
/// Short human-readable config label ("ATAC+", "EMesh-BCast", ...).
std::string config_name(const MachineParams& mp);

}  // namespace atacsim::harness
