// Open-loop synthetic traffic driver (uniform-random unicasts plus a
// configurable broadcast fraction), used for the latency-vs-offered-load
// study of Fig. 3 and for network unit/property tests.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "network/mesh_geom.hpp"
#include "network/packet.hpp"

namespace atacsim::net {

struct SyntheticConfig {
  double offered_load = 0.05;   ///< flits/cycle/core injected
  double bcast_fraction = 0.001;  ///< fraction of packets that broadcast
  int packet_flits = 1;         ///< unicast packet size (flits)
  Cycle warmup_cycles = 5000;
  Cycle measure_cycles = 20000;
  std::uint64_t seed = 42;
};

struct SyntheticResult {
  double avg_latency_cycles = 0;
  double max_latency_cycles = 0;
  std::uint64_t packets_measured = 0;
  double accepted_flits_per_cycle_per_core = 0;
};

/// Drives `net` open-loop and reports mean packet latency in the measurement
/// window. Injections are issued in cycle order, then core id (the order of
/// a min-heap of (cycle, core) pairs), so the link ledgers see monotone
/// arrivals and a seed always draws the same packets. Throws
/// std::invalid_argument for packet_flits < 1, a NaN or negative
/// offered_load, offered_load / packet_flits > 1 or measure_cycles == 0.
SyntheticResult run_synthetic(NetworkModel& net, const MeshGeom& geom,
                              const SyntheticConfig& cfg);

}  // namespace atacsim::net
