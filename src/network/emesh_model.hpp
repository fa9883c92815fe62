// Electrical 2-D mesh network models: EMesh-Pure and EMesh-BCast.
//
// Wormhole cut-through is approximated at flow level: the packet head
// propagates hop by hop (router + link delay); every traversed link is
// reserved for the packet's serialization time; the tail arrives
// `flits - 1` cycles after the head. EMesh-BCast forwards broadcasts along
// an XY multicast tree (row first, then columns); EMesh-Pure serializes
// N-1 unicasts through the source injection port.
#pragma once

#include "common/params.hpp"
#include "network/ledger.hpp"
#include "network/mesh_geom.hpp"
#include "network/packet.hpp"

namespace atacsim::net {

class EMeshModel : public NetworkModel {
 public:
  /// `sink` redirects the flit-hop counters (used when the mesh is the ENet
  /// inside an AtacModel and must share the owner's counter block);
  /// nullptr = own.
  EMeshModel(const MachineParams& mp, bool hw_broadcast,
             NetCounters* sink = nullptr);

  Cycle inject(Cycle t, const NetPacket& p,
               std::vector<Arrival>& out) override;

  void append_channel_usage(std::vector<ChannelUsage>& out) const override;

  const MeshGeom& geom() const { return geom_; }

  /// Flits for a packet of `bits` at the configured flit width.
  int flits_of(const NetPacket& p) const;

  /// When one unicast frees its sender's injection port and when its tail
  /// reaches the destination.
  struct UnicastLeg {
    Cycle sender_free;
    Cycle tail;
  };
  /// Routes one unicast through injection port, XY path and ejection port.
  /// Records flit-hop activity only; packet-level statistics are left to
  /// the caller (composite networks count the whole packet once).
  UnicastLeg unicast_leg(Cycle t, CoreId src, CoreId dst, int flits);

 private:
  NetCounters& sink() { return *sink_; }

  // Directed link ids, direction-major: each port's N = width^2 horizons
  // form one block, `port * N + slot`. E, W, inject and eject links sit in
  // row-major slots (`y * width + x`, the core id), N and S links in
  // column-major slots (`x * width + y`). The E/W links a route's X leg
  // crosses then have adjacent horizons along its row, and the N/S links of
  // its Y leg adjacent horizons along its column. Link (x, y) of port
  // E/W/S/N leaves core (x, y) in that direction.
  enum Port { kE = 0, kW, kS, kN, kInject, kEject, kPorts };

  std::size_t link_id(Port port, int slot) const {
    return static_cast<std::size_t>(port) *
               static_cast<std::size_t>(geom_.num_cores()) +
           static_cast<std::size_t>(slot);
  }

  /// Advances the packet head from `from` to `to` along the XY route,
  /// reserving each link it crosses; returns the head-arrival cycle at `to`.
  Cycle route_head(CoreId from, CoreId to, Cycle head_at_from, int flits);

  /// Reserves `dst`'s ejection port; returns the tail-delivery cycle.
  Cycle eject(CoreId dst, Cycle head_arrival, int flits);

  /// XY multicast tree; returns the sender-free cycle.
  Cycle bcast_tree(Cycle t, CoreId src, int flits, MsgClass cls,
                   std::vector<Arrival>& out);

  MachineParams mp_;
  MeshGeom geom_;
  ChannelArray links_;
  bool hw_broadcast_;
  NetCounters* sink_ = nullptr;
};

}  // namespace atacsim::net
