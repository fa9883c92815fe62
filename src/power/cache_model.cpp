#include "power/cache_model.hpp"

#include <cmath>

namespace atacsim::power {
namespace {

// Calibration constants for the 11 nm SRAM model.
// Bitline+sense energy per bit for a 32 KB reference array; scales with
// sqrt(size) as subarrays lengthen.
constexpr double kBitEnergyRef_fJ = 2.0;
constexpr double kRefSizeKB = 32.0;
// Decode + wordline overhead per access, as a fraction of the bit energy.
constexpr double kDecodeOverhead = 0.25;
// Writes drive full-swing bitlines: costlier than reads.
constexpr double kWriteFactor = 1.2;
// Effective leaking device width per 6T cell (both pull-down stacks), um.
constexpr double kCellLeakWidthUm = 0.08;
// Peripheral leakage as a fraction of array leakage.
constexpr double kPeripheralLeakFraction = 0.35;
// Clocked capacitance of the cache controller per KB of array, fF.
constexpr double kClockCapPerKB_fF = 8.0;
// SRAM cell area at the 11 nm node, um^2/bit (incl. array overheads).
constexpr double kCellAreaUm2 = 0.10;

}  // namespace

CacheEnergyModel::CacheEnergyModel(const phy::TriGateModel& dev,
                                   const CacheGeometry& g) {
  const double bits = g.size_KB * 1024.0 * 8.0;
  const double size_scale = std::sqrt(g.size_KB / kRefSizeKB);
  const double e_bit_fJ = kBitEnergyRef_fJ * size_scale;

  const double data_fJ = e_bit_fJ * g.access_bits;
  const double tag_fJ = e_bit_fJ * g.tag_bits * g.assoc;
  read_pJ_ = (data_fJ + tag_fJ) * (1.0 + kDecodeOverhead) * 1e-3;
  write_pJ_ = read_pJ_ * kWriteFactor;

  const double tag_array_bits =
      bits / (g.line_B * 8.0) * g.tag_bits;  // one tag per line
  const double leak_width_um = (bits + tag_array_bits) * kCellLeakWidthUm;
  leakage_mW_ = leak_width_um * dev.leakage_uW_per_um() * 1e-3 *
                (1.0 + kPeripheralLeakFraction);

  const double v = dev.params().vdd_V;
  clock_mW_per_GHz_ = kClockCapPerKB_fF * g.size_KB * v * v * 1e-3;

  area_mm2_ = (bits + tag_array_bits) * kCellAreaUm2 * 1e-6;
}

}  // namespace atacsim::power
