#include "network/packet.hpp"

#include "obs/series.hpp"

namespace atacsim::net {

void NetworkModel::count_unicast(Cycle t, Cycle tail, int flits,
                                 MsgClass cls) {
  ++counters_.unicast_packets;
  counters_.flits_injected += flits;
  counters_.unicast_flits_offered += flits;
  counters_.recv_unicast_flits += flits;
  counters_.packet_latency.sample(static_cast<double>(tail - t));
  if (obs_)
    obs_->record_net(static_cast<int>(cls), /*bcast=*/false,
                     static_cast<std::uint64_t>(tail - t));
}

void NetworkModel::count_broadcast(Cycle t, Cycle latest, int flits,
                                   std::uint64_t injected, int receivers,
                                   MsgClass cls) {
  ++counters_.bcast_packets;
  counters_.flits_injected += injected;
  counters_.bcast_flits_offered += flits;
  counters_.recv_bcast_flits += static_cast<std::uint64_t>(flits) * receivers;
  counters_.packet_latency.sample(static_cast<double>(latest - t));
  if (obs_)
    obs_->record_net(static_cast<int>(cls), /*bcast=*/true,
                     static_cast<std::uint64_t>(latest - t));
}

}  // namespace atacsim::net
