// First-order in-order core power model (paper Sec. V-G).
//
// A core has a fixed peak power (20 mW default, obtained in the paper by
// scaling an FPU energy/flop to 11 nm). A configurable fraction of peak is
// non-data-dependent (NDD: leakage + ungated clocks) and burns regardless of
// activity; the data-dependent remainder scales with achieved IPC.
#pragma once

#include "common/params.hpp"

namespace atacsim::power {

class CoreEnergyModel {
 public:
  explicit CoreEnergyModel(const MachineParams& mp)
      : peak_W_(mp.core_peak_mW * 1e-3),
        ndd_fraction_(mp.core_ndd_fraction),
        num_cores_(mp.num_cores) {}

  /// NDD energy of all cores over `cycles` of wall-clock runtime, joules.
  double ndd_J(double cycles) const {
    return peak_W_ * ndd_fraction_ * (cycles / kFreqHz) * num_cores_;
  }

  /// DD energy: peak DD power scaled by average achieved IPC, joules.
  /// `total_instructions` is summed over all cores.
  double dd_J(double cycles, double total_instructions) const {
    if (cycles <= 0) return 0.0;
    const double ipc_avg = total_instructions / (cycles * num_cores_);
    return peak_W_ * (1.0 - ndd_fraction_) * ipc_avg * (cycles / kFreqHz) *
           num_cores_;
  }

 private:
  static constexpr double kFreqHz = kFreqGHz * 1e9;
  double peak_W_;
  double ndd_fraction_;
  int num_cores_;
};

}  // namespace atacsim::power
