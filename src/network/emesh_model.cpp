#include "network/emesh_model.hpp"

#include <algorithm>
#include <cstdint>

namespace atacsim::net {

EMeshModel::EMeshModel(const MachineParams& mp, bool hw_broadcast,
                       NetCounters* sink)
    : mp_(mp),
      geom_(mp),
      links_(static_cast<std::size_t>(geom_.num_cores()) * kPorts),
      hw_broadcast_(hw_broadcast),
      sink_(sink ? sink : &counters_) {}

int EMeshModel::flits_of(const NetPacket& p) const {
  int bits = p.bits;
  if (p.cls == MsgClass::kCoherence) bits = kCoherenceMsgBits;
  if (p.cls == MsgClass::kData) bits = kDataMsgBits;
  return (bits + mp_.flit_bits - 1) / mp_.flit_bits;
}

Cycle EMeshModel::route_head(CoreId from, CoreId to, Cycle head, int flits) {
  // XY dimension-order routing: the X leg walks the links of `from`'s row,
  // the Y leg those of `to`'s column; each leg's horizons lie side by side.
  const int w = geom_.width();
  const int fx = geom_.x(from), fy = geom_.y(from);
  const int tx = geom_.x(to), ty = geom_.y(to);
  const auto leg = [&](std::size_t first, int n, std::ptrdiff_t step) {
    Cycle* until = links_.horizons() + first;
    for (int i = 0; i < n; ++i, until += step) {
      const Cycle start = std::max(head + kRouterDelay, *until);
      *until = start + static_cast<Cycle>(flits);
      head = start + kLinkDelay;
    }
  };
  if (tx >= fx)
    leg(link_id(kE, fy * w + fx), tx - fx, +1);
  else
    leg(link_id(kW, fy * w + fx), fx - tx, -1);
  if (ty >= fy)
    leg(link_id(kS, tx * w + fy), ty - fy, +1);
  else
    leg(link_id(kN, tx * w + fy), fy - ty, -1);
  // Every hop passes one router and one link.
  const std::uint64_t flit_hops =
      static_cast<std::uint64_t>(geom_.manhattan(from, to)) *
      static_cast<std::uint64_t>(flits);
  sink().enet_router_flits += flit_hops;
  sink().enet_link_flits += flit_hops;
  links_.add_busy(flit_hops);  // each link is held `flits` cycles
  return head;
}

Cycle EMeshModel::eject(CoreId dst, Cycle head_arrival, int flits) {
  const Cycle start = links_.acquire(link_id(kEject, dst),
                                     head_arrival + kRouterDelay,
                                     static_cast<Cycle>(flits));
  sink().enet_router_flits += flits;
  return start + kLinkDelay + flits - 1;
}

EMeshModel::UnicastLeg EMeshModel::unicast_leg(Cycle t, CoreId src,
                                               CoreId dst, int flits) {
  const Cycle start =
      links_.acquire(link_id(kInject, src), t, static_cast<Cycle>(flits));
  const Cycle head = route_head(src, dst, start, flits);
  return {start + flits, eject(dst, head, flits)};
}

Cycle EMeshModel::bcast_tree(Cycle t, CoreId src, int flits, MsgClass cls,
                             std::vector<Arrival>& out) {
  const Cycle start =
      links_.acquire(link_id(kInject, src), t, static_cast<Cycle>(flits));

  Cycle latest = start;
  const auto arrive = [&](CoreId c, Cycle head) {
    const Cycle tail = eject(c, head, flits);
    out.push_back({c, tail});
    latest = std::max(latest, tail);
  };
  const int sy = geom_.y(src);
  // Walks the column of `row_node` up and down from the source row.
  const auto column_walks = [&](CoreId row_node, Cycle head) {
    const int x = geom_.x(row_node);
    for (int dir : {-1, +1}) {
      Cycle h = head;
      for (int yy = sy; yy + dir >= 0 && yy + dir < geom_.width();
           yy += dir) {
        const CoreId to = geom_.core_at(x, yy + dir);
        h = route_head(geom_.core_at(x, yy), to, h, flits);
        arrive(to, h);
      }
    }
  };

  // Source column first (the source node itself is NOT a receiver), then
  // the row walks east and west, spawning columns at each visited node.
  column_walks(src, start);
  for (int dir : {-1, +1}) {
    Cycle h = start;
    for (int xx = geom_.x(src); xx + dir >= 0 && xx + dir < geom_.width();
         xx += dir) {
      const CoreId to = geom_.core_at(xx + dir, sy);
      h = route_head(geom_.core_at(xx, sy), to, h, flits);
      arrive(to, h);
      column_walks(to, h);
    }
  }

  count_broadcast(t, latest, flits, static_cast<std::uint64_t>(flits),
                  geom_.num_cores() - 1, cls);
  return start + flits;
}

Cycle EMeshModel::inject(Cycle t, const NetPacket& p,
                         std::vector<Arrival>& out) {
  const int flits = flits_of(p);
  if (!p.is_broadcast()) {
    const UnicastLeg leg = unicast_leg(t, p.src, p.dst, flits);
    out.push_back({p.dst, leg.tail});
    count_unicast(t, leg.tail, flits, p.cls);
    return leg.sender_free;
  }

  if (hw_broadcast_) return bcast_tree(t, p.src, flits, p.cls, out);

  // EMesh-Pure: a broadcast degrades into N-1 unicasts serialized through
  // the source injection port (Sec. V-B).
  Cycle sender_free = t;
  Cycle latest = t;
  for (CoreId dst = 0; dst < geom_.num_cores(); ++dst) {
    if (dst == p.src) continue;
    const UnicastLeg leg = unicast_leg(sender_free, p.src, dst, flits);
    out.push_back({dst, leg.tail});
    latest = std::max(latest, leg.tail);
    sender_free = leg.sender_free;
  }
  count_broadcast(t, latest, flits,
                  static_cast<std::uint64_t>(flits) * (geom_.num_cores() - 1),
                  geom_.num_cores() - 1, p.cls);
  return sender_free;
}

void EMeshModel::append_channel_usage(std::vector<ChannelUsage>& out) const {
  out.push_back({"enet.links", links_.busy_cycles(), links_.size()});
}

}  // namespace atacsim::net
