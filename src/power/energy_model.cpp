#include "power/energy_model.hpp"

#include <algorithm>
#include <cmath>

namespace atacsim::power {
namespace {

CacheGeometry l1i_geom(const MachineParams& mp) {
  return {mp.l1i_size_KB, mp.l1_assoc, kLineBytes, /*access_bits=*/64,
          /*tag_bits=*/36};
}
CacheGeometry l1d_geom(const MachineParams& mp) {
  return {mp.l1d_size_KB, mp.l1_assoc, kLineBytes, /*access_bits=*/64,
          /*tag_bits=*/36};
}
CacheGeometry l2_geom(const MachineParams& mp) {
  return {mp.l2_size_KB, mp.l2_assoc, kLineBytes,
          /*access_bits=*/kLineBytes * 8, /*tag_bits=*/30};
}
CacheGeometry dir_geom(const MachineParams& mp) {
  const auto s = DirectorySizing::from(mp);
  return {std::max(1, s.size_KB()), /*assoc=*/4, kLineBytes,
          /*access_bits=*/s.entry_bits, /*tag_bits=*/30};
}

// Per-access dynamic DRAM energy (pJ per bit moved over the optical I/O and
// DRAM core) — off-chip, reported separately from chip energy.
constexpr double kDramPjPerBit = 4.0;

constexpr double kSecondsPerCycle = 1.0 / (kFreqGHz * 1e9);

}  // namespace

DirectorySizing DirectorySizing::from(const MachineParams& mp) {
  DirectorySizing s;
  // One slice tracks the home lines that fit in the aggregate L2 share of
  // one core: L2 size / line size entries (same provisioning as ACKwise [6]).
  s.entries = mp.l2_size_KB * 1024 / kLineBytes;
  int bits = 1;
  while ((1 << bits) < mp.num_cores) ++bits;
  // Sharer tracking: k pointers, or a full bit-vector once that is smaller
  // (k = num_cores degenerates to the classic full-map directory).
  const int sharer_bits =
      std::min(mp.num_hw_sharers * bits, mp.num_cores);
  // state (3) + global bit (1) + sharers + sharer count + seqnum.
  s.entry_bits = 3 + 1 + sharer_bits + (bits + 1) + 16;
  return s;
}

EnergyModel::EnergyModel(const MachineParams& mp, const TechBundle& tb)
    : mp_(mp),
      dev_(tb.tech),
      mesh_router_(dev_, /*ports=*/5, mp.flit_bits),
      hub_router_(dev_, /*ports=*/4 + mp.cores_per_cluster() / 4,
                  mp.flit_bits),
      mesh_link_(dev_, kCoreTileMm, mp.flit_bits),
      recvnet_link_(dev_, kCoreTileMm * mp.cluster_width * 0.5,
                    mp.flit_bits),
      l1i_(dev_, l1i_geom(mp)),
      l1d_(dev_, l1d_geom(mp)),
      l2_(dev_, l2_geom(mp)),
      dir_(dev_, dir_geom(mp)),
      core_model_(mp) {
  auto pp = tb.photonics;
  photonic_ = std::make_unique<phy::PhotonicLinkModel>(
      pp, phy::OnetGeometry::from(mp), mp.photonics);
}

EnergyBreakdown EnergyModel::compute(const NetCounters& net,
                                     const MemCounters& mem,
                                     const CoreCounters& core,
                                     double completion_cycles) const {
  EnergyBreakdown e;
  const double T = completion_cycles * kSecondsPerCycle;
  const double f = kFreqGHz;
  const bool atac = (mp_.network == NetworkKind::kAtacPlus);

  // ---- electrical network ----
  e.enet_dynamic = (net.enet_router_flits * mesh_router_.per_flit_pJ() +
                    net.enet_link_flits * mesh_link_.per_flit_pJ()) *
                   1e-12;
  const double routers = mp_.num_cores;
  e.enet_static = (mesh_router_.leakage_mW() + mesh_router_.clock_mW(f)) *
                  1e-3 * T * routers;
  if (atac) {
    e.recvnet = net.recvnet_link_flits * recvnet_link_.per_flit_pJ() * 1e-12;
    e.hub = net.hub_flits * hub_router_.per_flit_pJ() * 1e-12 +
            (hub_router_.leakage_mW() + hub_router_.clock_mW(f)) * 1e-3 * T *
                mp_.num_clusters();
  }

  // ---- optical network ----
  if (atac) {
    const auto& ph = *photonic_;
    if (ph.laser_power_gated()) {
      e.laser = (net.laser_unicast_cycles * ph.laser_unicast_mW() +
                 net.laser_bcast_cycles * ph.laser_broadcast_mW()) *
                    1e-3 * kSecondsPerCycle +
                net.onet_selects * ph.laser_select_mW() * 1e-3 *
                    kSecondsPerCycle;
    } else {
      // Conservative flavour: every hub laser pinned at broadcast power for
      // the whole run (plus select lasers, also always on).
      e.laser = (ph.laser_broadcast_mW() + ph.laser_select_mW()) * 1e-3 * T *
                mp_.num_clusters();
    }
    e.ring_tuning = ph.tuning_power_W() * T;
    e.optical_other =
        (net.onet_flits_sent * ph.modulation_pJ_per_flit() +
         net.onet_flit_receptions * ph.receive_pJ_per_flit(1) +
         net.onet_selects * ph.select_pJ_per_notification()) *
        1e-12;
  }

  // ---- caches ----
  auto cache_energy = [&](const CacheEnergyModel& m, double reads,
                          double writes, int instances) {
    const double dyn = (reads * m.read_pJ() + writes * m.write_pJ()) * 1e-12;
    const double stat = (m.leakage_mW() + m.clock_mW(f)) * 1e-3 * T * instances;
    return dyn + stat;
  };
  e.l1i = cache_energy(l1i_, mem.l1i_accesses, 0, mp_.num_cores);
  e.l1d = cache_energy(l1d_, mem.l1d_reads, mem.l1d_writes, mp_.num_cores);
  e.l2 = cache_energy(l2_, mem.l2_reads, mem.l2_writes, mp_.num_cores);
  e.directory = cache_energy(dir_, mem.dir_reads, mem.dir_writes,
                             mp_.num_cores);

  // ---- DRAM (off-chip; reported separately) ----
  e.dram = (mem.dram_reads + mem.dram_writes) * kLineBytes * 8.0 *
           kDramPjPerBit * 1e-12;

  // ---- cores ----
  e.core_ndd = core_model_.ndd_J(completion_cycles);
  e.core_dd = core_model_.dd_J(completion_cycles,
                               static_cast<double>(core.instructions));
  return e;
}

AreaBreakdown EnergyModel::area() const {
  AreaBreakdown a;
  const int n = mp_.num_cores;
  a.l1i = l1i_.area_mm2() * n;
  a.l1d = l1d_.area_mm2() * n;
  a.l2 = l2_.area_mm2() * n;
  a.directory = dir_.area_mm2() * n;
  a.enet = (mesh_router_.area_mm2() + 2 * mesh_link_.area_mm2()) * n;
  if (mp_.network == NetworkKind::kAtacPlus) {
    a.hubs = hub_router_.area_mm2() * mp_.num_clusters();
    a.recvnet = recvnet_link_.area_mm2() * mp_.cores_per_cluster() *
                mp_.starnets_per_cluster * mp_.num_clusters() /
                4.0;  // short demux stubs, quarter-length on average
    a.optical = photonic_->optical_area_mm2();
  }
  return a;
}

}  // namespace atacsim::power
