#include "network/atac_model.hpp"

#include <algorithm>

namespace atacsim::net {

AtacModel::AtacModel(const MachineParams& mp)
    : mp_(mp),
      geom_(mp),
      enet_(mp, /*hw_broadcast=*/false, &counters_),
      hub_data_link_(static_cast<std::size_t>(geom_.num_clusters())),
      starnets_(static_cast<std::size_t>(geom_.num_clusters()) *
                static_cast<std::size_t>(mp_.starnets_per_cluster)) {}

bool AtacModel::unicast_uses_onet(CoreId src, CoreId dst) const {
  if (geom_.same_cluster(src, dst)) return false;  // always pure ENet
  switch (mp_.routing) {
    case RoutingPolicy::kCluster:
      return true;
    case RoutingPolicy::kDistance:
      return geom_.manhattan(src, dst) >= mp_.r_thres;
    case RoutingPolicy::kDistanceAll:
      return false;
  }
  return true;
}

Cycle AtacModel::receive_leg(HubId cluster, Cycle head_at_hub, int flits,
                             CoreId src, bool bcast) {
  // StarNet/BNet: single-cycle from hub to core (Sec. IV-B). A packet takes
  // one channel of one receive net for its serialization time: a unicast
  // toggles one of its links, a broadcast all 16; BNet's fanout tree
  // toggles ~half the cluster either way. The channel is keyed by sender so
  // messages from one source never reorder (a short coherence message
  // overtaking a data reply on the sibling StarNet would break the
  // directory protocol's per-pair FIFO assumption). A cluster's StarNets
  // are `starnets_per_cluster` adjacent slots.
  const auto k = static_cast<std::size_t>(mp_.starnets_per_cluster);
  const Cycle start = starnets_.acquire(
      static_cast<std::size_t>(cluster) * k + static_cast<std::size_t>(src) % k,
      head_at_hub, static_cast<Cycle>(flits));
  const int links_toggled = (mp_.receive_net == ReceiveNet::kBNet)
                                ? mp_.cores_per_cluster() / 2
                                : (bcast ? mp_.cores_per_cluster() : 1);
  counters_.recvnet_link_flits +=
      static_cast<std::uint64_t>(flits) * links_toggled;
  counters_.hub_flits += flits;
  return start + kStarnetLinkDelay + flits - 1;
}

AtacModel::OnetLeg AtacModel::onet_leg(Cycle t, CoreId src, int flits) {
  const HubId sh = geom_.cluster_of(src);
  const CoreId hub_core = geom_.hub_core(sh);

  // ENet leg to the sending hub (none if the source sits on the hub tile).
  Cycle head_at_hub = t;
  Cycle sender_free = t + static_cast<Cycle>(flits);
  if (src != hub_core) {
    const auto leg = enet_.unicast_leg(t, src, hub_core, flits);
    sender_free = leg.sender_free;
    head_at_hub = leg.tail - (flits - 1);  // head precedes tail
  }

  // Select notification fires `onet_select_data_lag` before the data link;
  // the SWMR data channel then serializes the packet.
  const Cycle start = hub_data_link_.acquire(
      static_cast<std::size_t>(sh),
      head_at_hub + kRouterDelay + mp_.onet_select_data_lag,
      static_cast<Cycle>(flits));
  counters_.hub_flits += flits;
  ++counters_.onet_selects;
  counters_.onet_flits_sent += flits;
  return {sender_free, start + mp_.onet_link_delay};
}

Cycle AtacModel::onet_broadcast(Cycle t, CoreId src, int flits, MsgClass cls,
                                std::vector<Arrival>& out) {
  const OnetLeg leg = onet_leg(t, src, flits);
  counters_.onet_flit_receptions +=
      static_cast<std::uint64_t>(flits) * (geom_.num_clusters() - 1);
  counters_.laser_bcast_cycles += flits;
  ++onet_bcasts_;

  const int cw = mp_.cluster_width;
  Cycle latest = leg.head_at_recv_hub;
  for (HubId h = 0; h < geom_.num_clusters(); ++h) {
    // The sending hub forwards to its own cluster electrically (its filters
    // are not tuned to its own wavelength), with the same single-cycle cost.
    const Cycle tail =
        receive_leg(h, leg.head_at_recv_hub, flits, src, /*bcast=*/true);
    latest = std::max(latest, tail);
    const int bx = geom_.cluster_x(h) * cw;
    const int by = geom_.cluster_y(h) * cw;
    for (int yy = by; yy < by + cw; ++yy)
      for (int xx = bx; xx < bx + cw; ++xx) {
        const CoreId c = geom_.core_at(xx, yy);
        if (c != src) out.push_back({c, tail});
      }
  }

  count_broadcast(t, latest, flits, static_cast<std::uint64_t>(flits),
                  geom_.num_cores() - 1, cls);
  return leg.sender_free;
}

Cycle AtacModel::inject(Cycle t, const NetPacket& p,
                        std::vector<Arrival>& out) {
  const int flits = flits_of(p);
  if (p.is_broadcast()) return onet_broadcast(t, p.src, flits, p.cls, out);

  if (!unicast_uses_onet(p.src, p.dst)) {
    const auto leg = enet_.unicast_leg(t, p.src, p.dst, flits);
    out.push_back({p.dst, leg.tail});
    count_unicast(t, leg.tail, flits, p.cls);
    return leg.sender_free;
  }

  const OnetLeg leg = onet_leg(t, p.src, flits);
  counters_.onet_flit_receptions += flits;
  counters_.laser_unicast_cycles += flits;
  ++onet_unicasts_;
  const Cycle tail = receive_leg(geom_.cluster_of(p.dst), leg.head_at_recv_hub,
                                 flits, p.src, /*bcast=*/false);
  out.push_back({p.dst, tail});
  count_unicast(t, tail, flits, p.cls);
  // Sender is free once its flits have left the source NIC; approximate
  // with the ENet leg's injection serialization.
  return t + flits;
}

void AtacModel::append_channel_usage(std::vector<ChannelUsage>& out) const {
  enet_.append_channel_usage(out);
  out.push_back({"onet.hub_data", hub_data_link_.busy_cycles(),
                 hub_data_link_.size()});
  out.push_back(
      {"recvnet.starnets", starnets_.busy_cycles(), starnets_.size()});
}

double AtacModel::link_utilization(Cycle total_cycles) const {
  if (total_cycles == 0) return 0.0;
  return static_cast<double>(hub_data_link_.busy_cycles()) /
         (static_cast<double>(total_cycles) * hub_data_link_.size());
}

std::unique_ptr<NetworkModel> make_network(const MachineParams& mp) {
  mp.validate();  // the first use of the geometry; throws on a bad one
  switch (mp.network) {
    case NetworkKind::kEMeshPure:
      return std::make_unique<EMeshModel>(mp, /*hw_broadcast=*/false);
    case NetworkKind::kEMeshBCast:
      return std::make_unique<EMeshModel>(mp, /*hw_broadcast=*/true);
    case NetworkKind::kAtacPlus:
      return std::make_unique<AtacModel>(mp);
  }
  return nullptr;
}

}  // namespace atacsim::net
