#include "phy/optical_link.hpp"

#include <cmath>

namespace atacsim::phy {

OnetGeometry OnetGeometry::from(const MachineParams& mp) {
  OnetGeometry g;
  g.num_hubs = mp.num_clusters();
  g.data_width_bits = mp.flit_bits;
  g.select_width_bits = 1;
  while ((1 << g.select_width_bits) < g.num_hubs) ++g.select_width_bits;
  g.die_side_mm = mp.mesh_width * kCoreTileMm;
  // Serpentine: one horizontal pass per cluster row plus a vertical return.
  const double length_mm =
      mp.clusters_per_row() * g.die_side_mm + g.die_side_mm;
  g.ring_length_cm = length_mm / 10.0;
  return g;
}

PhotonicLinkModel::PhotonicLinkModel(const PhotonicParams& pp,
                                     const OnetGeometry& geo,
                                     PhotonicFlavor flavor)
    : pp_(pp), geo_(geo) {
  if (flavor == PhotonicFlavor::kIdeal) {
    // Lossless devices, perfectly efficient laser; keep detector sensitivity
    // (you still need photons at the receiver).
    pp_.laser_efficiency = 1.0;
    pp_.waveguide_loss_dB_per_cm = 0.0;
    pp_.ring_through_loss_dB = 0.0;
    pp_.ring_drop_loss_dB = 0.0;
    pp_.coupling_loss_dB = 0.0;
  }
  power_gated_ = (flavor != PhotonicFlavor::kCons);

  const bool athermal = (flavor == PhotonicFlavor::kIdeal ||
                         flavor == PhotonicFlavor::kDefault);

  // Ring census (drives tuning power): every hub carries a modulator ring
  // per waveguide for its own wavelength plus a filter ring per waveguide
  // for each other hub's wavelength, on both the data and select links.
  const int per_wg_rings = geo_.num_hubs +                      // modulators
                           geo_.num_hubs * (geo_.num_hubs - 1); // filters
  total_rings_ =
      per_wg_rings * (geo_.data_width_bits + geo_.select_width_bits);
  tuning_W_ =
      athermal ? 0.0 : total_rings_ * pp_.ring_tuning_uW_per_ring * 1e-6;

  // Laser powers. Unicast is provisioned for the worst-case (farthest)
  // receiver; broadcast sums the per-receiver requirement along the loop.
  const double uni_opt_bit = unicast_optical_per_bit_mW(geo_.num_hubs - 1);
  const double bc_opt_bit = broadcast_optical_per_bit_mW();
  laser_unicast_mW_ =
      uni_opt_bit * geo_.data_width_bits / pp_.laser_efficiency;
  laser_broadcast_mW_ =
      bc_opt_bit * geo_.data_width_bits / pp_.laser_efficiency;
  laser_select_mW_ =
      bc_opt_bit * geo_.select_width_bits / pp_.laser_efficiency;
  max_wg_power_mW_ = bc_opt_bit;

  mod_pJ_per_flit_ = pp_.modulator_fJ_per_bit * geo_.data_width_bits * 1e-3;
  rx_pJ_per_bit_ = pp_.receiver_fJ_per_bit * 1e-3;
  select_pJ_ = (pp_.modulator_fJ_per_bit + pp_.receiver_fJ_per_bit *
                geo_.num_hubs) * geo_.select_width_bits * 1e-3;
}

double PhotonicLinkModel::path_loss_dB(double distance_cm,
                                       int rings_passed) const {
  return pp_.coupling_loss_dB + pp_.waveguide_loss_dB_per_cm * distance_cm +
         pp_.ring_through_loss_dB * rings_passed + pp_.ring_drop_loss_dB;
}

double PhotonicLinkModel::unicast_optical_per_bit_mW(int hops_worst) const {
  // Farthest receiver is (num_hubs-1)/num_hubs of the loop away and the
  // light passes every intermediate hub's rings on each waveguide.
  const double frac = static_cast<double>(hops_worst) / geo_.num_hubs;
  const double dist_cm = geo_.ring_length_cm * frac;
  const int rings_per_hub = geo_.num_hubs;  // 1 modulator + (H-1) filters
  const int rings = rings_per_hub * hops_worst;
  const double loss = path_loss_dB(dist_cm, rings);
  return pp_.detector_sensitivity_uW * 1e-3 * std::pow(10.0, loss / 10.0);
}

double PhotonicLinkModel::broadcast_optical_per_bit_mW() const {
  // Each receiver's drop filter extracts only the power it needs; the source
  // must launch the sum of per-receiver requirements inflated by the loss on
  // the way to each of them.
  double total = 0.0;
  const int rings_per_hub = geo_.num_hubs;
  for (int r = 1; r < geo_.num_hubs; ++r) {
    const double dist_cm =
        geo_.ring_length_cm * static_cast<double>(r) / geo_.num_hubs;
    const double loss = path_loss_dB(dist_cm, rings_per_hub * r);
    total += pp_.detector_sensitivity_uW * 1e-3 * std::pow(10.0, loss / 10.0);
  }
  return total;
}

double PhotonicLinkModel::optical_area_mm2() const {
  const int waveguides = geo_.data_width_bits + geo_.select_width_bits;
  return waveguides * (pp_.waveguide_pitch_um * 1e-3) *
         (geo_.ring_length_cm * 10.0);
}

}  // namespace atacsim::phy
