// Whole-chip energy and area aggregation.
//
// Mirrors the paper's toolflow: the functional simulation produces event
// counters and a completion time; this model combines them with per-event
// energies (DSENT-lite, McPAT-lite) and static powers to produce the energy
// breakdowns of Figs. 7, 12, 16, 17 and the area breakdown of Fig. 10.
#pragma once

#include <memory>

#include "common/counters.hpp"
#include "common/params.hpp"
#include "phy/electrical_energy.hpp"
#include "phy/optical_link.hpp"
#include "phy/tri_gate.hpp"
#include "power/cache_model.hpp"
#include "power/core_model.hpp"

// X-macro lists of the EnergyBreakdown components in declaration order, the
// counterpart of counters.hpp's counter lists: the subtotals below, the
// report columns, the energy probes and the Fig. 7 average expand these, and
// the static_assert after the struct fails to compile when a component is
// missing from ATACSIM_ENERGY_FIELDS. Adding a component is one line in the
// list of its group (network, caches, off-chip or cores).
#define ATACSIM_NETWORK_ENERGY_FIELDS(X) \
  X(laser)                               \
  X(ring_tuning)                         \
  X(optical_other)                       \
  X(enet_dynamic)                        \
  X(enet_static)                         \
  X(recvnet)                             \
  X(hub)

#define ATACSIM_CACHE_ENERGY_FIELDS(X) \
  X(l1i)                               \
  X(l1d)                               \
  X(l2)                                \
  X(directory)

#define ATACSIM_CORE_ENERGY_FIELDS(X) \
  X(core_dd)                          \
  X(core_ndd)

#define ATACSIM_ENERGY_FIELDS(X)   \
  ATACSIM_NETWORK_ENERGY_FIELDS(X) \
  ATACSIM_CACHE_ENERGY_FIELDS(X)   \
  X(dram)                          \
  ATACSIM_CORE_ENERGY_FIELDS(X)

namespace atacsim::power {

/// Joules per component over one application run.
struct EnergyBreakdown {
  // network: optical
  double laser = 0;
  double ring_tuning = 0;
  double optical_other = 0;  ///< modulators + receivers + select link
  // network: electrical
  double enet_dynamic = 0;   ///< mesh router + link traversals
  double enet_static = 0;    ///< router leakage + ungated clock
  double recvnet = 0;        ///< StarNet or BNet fanout energy
  double hub = 0;            ///< electrical hub crossings
  // memory hierarchy (dynamic + leakage + clock, per cache class)
  double l1i = 0;
  double l1d = 0;
  double l2 = 0;
  double directory = 0;
  // off-chip
  double dram = 0;
  // cores
  double core_dd = 0;
  double core_ndd = 0;

#define ATACSIM_X(f) +f
  double network() const {
    return 0.0 ATACSIM_NETWORK_ENERGY_FIELDS(ATACSIM_X);
  }
  double caches() const { return 0.0 ATACSIM_CACHE_ENERGY_FIELDS(ATACSIM_X); }
  double chip_no_core() const { return network() + caches(); }
  double chip() const {
    return chip_no_core() ATACSIM_CORE_ENERGY_FIELDS(ATACSIM_X);
  }
#undef ATACSIM_X
};

#define ATACSIM_X(f) +sizeof(double)
static_assert(0 ATACSIM_ENERGY_FIELDS(ATACSIM_X) == sizeof(EnergyBreakdown),
              "ATACSIM_ENERGY_FIELDS must list every EnergyBreakdown field");
#undef ATACSIM_X

/// Square millimetres per chip component (Fig. 10).
struct AreaBreakdown {
  double l1i = 0, l1d = 0, l2 = 0, directory = 0;
  double enet = 0, recvnet = 0, hubs = 0, optical = 0;
  double caches() const { return l1i + l1d + l2 + directory; }
  double network() const { return enet + recvnet + hubs + optical; }
  double total() const { return caches() + network(); }
};

class EnergyModel {
 public:
  explicit EnergyModel(const MachineParams& mp, const TechBundle& tb = {});

  /// Integrates counters over a run of `completion_cycles`.
  EnergyBreakdown compute(const NetCounters& net, const MemCounters& mem,
                          const CoreCounters& core,
                          double completion_cycles) const;

  AreaBreakdown area() const;

 private:
  MachineParams mp_;
  phy::TriGateModel dev_;
  phy::RouterEnergyModel mesh_router_;
  phy::RouterEnergyModel hub_router_;
  phy::LinkEnergyModel mesh_link_;
  phy::LinkEnergyModel recvnet_link_;
  CacheEnergyModel l1i_, l1d_, l2_, dir_;
  CoreEnergyModel core_model_;
  // Photonic model only meaningful for ATAC+ machines, but constructed
  // unconditionally (cheap).
  std::unique_ptr<phy::PhotonicLinkModel> photonic_;
};

/// Number of directory entries and bits per entry for a k-pointer directory
/// slice covering one core's home lines (used for both energy and area).
struct DirectorySizing {
  int entries = 0;
  int entry_bits = 0;
  int size_KB() const {
    return static_cast<int>(
        (static_cast<long long>(entries) * entry_bits + 8191) / 8192);
  }
  static DirectorySizing from(const MachineParams& mp);
};

}  // namespace atacsim::power
