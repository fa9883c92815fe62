// Photonic link model for the ONet adaptive SWMR link (DSENT-lite photonics).
//
// Implements the optical loss budget and laser-power solver, the ring-
// resonator census (used for thermal-tuning power), and the optical area
// estimate, from the technology parameters of paper Table II and the four
// technology flavours of Table IV.
#pragma once

#include "common/params.hpp"

namespace atacsim::phy {

/// Physical geometry of the ONet serpentine ring bus.
struct OnetGeometry {
  int num_hubs = 64;
  int data_width_bits = 64;    ///< waveguides in the data link (= flit width)
  int select_width_bits = 6;   ///< log2(num_hubs)
  double ring_length_cm = 0;   ///< length of the waveguide loop
  double die_side_mm = 0;

  /// Derives geometry from machine parameters: die side from tile size, loop
  /// length from a serpentine that visits every cluster row and returns.
  static OnetGeometry from(const MachineParams& mp);
};

class PhotonicLinkModel {
 public:
  PhotonicLinkModel(const PhotonicParams& pp, const OnetGeometry& geo,
                    PhotonicFlavor flavor);

  // --- laser electrical powers (per sending hub, all data bits), mW ---
  double laser_unicast_mW() const { return laser_unicast_mW_; }
  double laser_broadcast_mW() const { return laser_broadcast_mW_; }
  /// Select-link laser burst power (always a broadcast), mW.
  double laser_select_mW() const { return laser_select_mW_; }

  /// True when the on-chip Ge laser can be power gated between messages
  /// (Default/RingTuned/Ideal); false pins the laser at broadcast power.
  bool laser_power_gated() const { return power_gated_; }

  // --- per-event dynamic energies, picojoules ---
  double modulation_pJ_per_flit() const { return mod_pJ_per_flit_; }
  /// Receiver energy for one flit arriving at `receivers` tuned-in hubs.
  double receive_pJ_per_flit(int receivers) const {
    return rx_pJ_per_bit_ * geo_.data_width_bits * receivers;
  }
  double select_pJ_per_notification() const { return select_pJ_; }

  // --- static photonic overheads ---
  /// Total thermal-tuning (heater) power across all rings, watts.
  /// Zero for athermal flavours.
  double tuning_power_W() const { return tuning_W_; }
  int total_rings() const { return total_rings_; }

  /// Area occupied by waveguides (rings sit within the waveguide pitch).
  double optical_area_mm2() const;

  /// Worst-case optical power launched into a single data waveguide, mW;
  /// must stay below the non-linearity limit.
  double max_waveguide_power_mW() const { return max_wg_power_mW_; }
  bool within_nonlinearity_limit() const {
    return max_wg_power_mW_ <= pp_.waveguide_nonlinearity_mW + 1e-12;
  }

 private:
  double unicast_optical_per_bit_mW(int hops_worst) const;
  double broadcast_optical_per_bit_mW() const;
  double path_loss_dB(double distance_cm, int rings_passed) const;

  PhotonicParams pp_;
  OnetGeometry geo_;
  bool power_gated_ = true;
  double laser_unicast_mW_ = 0;
  double laser_broadcast_mW_ = 0;
  double laser_select_mW_ = 0;
  double mod_pJ_per_flit_ = 0;
  double rx_pJ_per_bit_ = 0;
  double select_pJ_ = 0;
  double tuning_W_ = 0;
  double max_wg_power_mW_ = 0;
  int total_rings_ = 0;
};

}  // namespace atacsim::phy
