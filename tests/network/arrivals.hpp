// Test helpers: inject one packet and look at the arrivals it produced.
#pragma once

#include <algorithm>
#include <vector>

#include "network/packet.hpp"

namespace atacsim::net {

/// Injects `p` at `t` and returns its arrivals in delivery order.
inline std::vector<Arrival> arrivals_of(NetworkModel& m, Cycle t,
                                        const NetPacket& p) {
  std::vector<Arrival> out;
  m.inject(t, p, out);
  return out;
}

/// The cycle the last of `arrivals` is delivered (0 if there are none).
inline Cycle latest(const std::vector<Arrival>& arrivals) {
  Cycle t = 0;
  for (const Arrival& a : arrivals) t = std::max(t, a.at);
  return t;
}

}  // namespace atacsim::net
