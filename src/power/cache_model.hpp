// McPAT-lite analytical SRAM cache power/area model at the 11 nm node.
//
// Per-access dynamic energy follows a CACTI-style decomposition: bitline +
// sense energy per bit read/written (growing with the square root of array
// size, as subarray wordlines/bitlines lengthen), plus tag compares per way
// and decode overhead. Leakage scales with bit count, with an HVT cell
// leakage derived from the tri-gate model. A small always-on clock component
// models the ungated clock tree of the cache controller.
#pragma once

#include "phy/tri_gate.hpp"

namespace atacsim::power {

struct CacheGeometry {
  int size_KB = 32;
  int assoc = 4;
  int line_B = 64;
  int access_bits = 64;  ///< bits moved per access (word for L1, line for L2)
  int tag_bits = 36;
};

class CacheEnergyModel {
 public:
  CacheEnergyModel(const phy::TriGateModel& dev, const CacheGeometry& g);

  double read_pJ() const { return read_pJ_; }
  double write_pJ() const { return write_pJ_; }
  double leakage_mW() const { return leakage_mW_; }
  double clock_mW(double freq_GHz) const { return clock_mW_per_GHz_ * freq_GHz; }
  double area_mm2() const { return area_mm2_; }

 private:
  double read_pJ_ = 0;
  double write_pJ_ = 0;
  double leakage_mW_ = 0;
  double clock_mW_per_GHz_ = 0;
  double area_mm2_ = 0;
};

}  // namespace atacsim::power
