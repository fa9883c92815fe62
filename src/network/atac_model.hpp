// The ATAC / ATAC+ opto-electronic network model.
//
// Composition (paper Figs. 1-2):
//   * ENet:    full-chip electrical mesh (reuses the EMesh flow model).
//   * ONet:    per-hub adaptive SWMR optical link — a select link notifies
//              receivers one cycle before the data link fires; the on-chip
//              laser runs in idle/unicast/broadcast modes.
//   * Receive: StarNet (1-to-16 demux; ATAC+) or BNet (fanout tree; ATAC)
//              forwards from the hub into the destination cluster.
// Unicast routing: Cluster (all inter-cluster over ONet), Distance-i
// (ENet when manhattan distance < r_thres), or Distance-All (ENet only).
#pragma once

#include <memory>

#include "common/params.hpp"
#include "network/emesh_model.hpp"
#include "network/ledger.hpp"
#include "network/mesh_geom.hpp"
#include "network/packet.hpp"

namespace atacsim::net {

class AtacModel : public NetworkModel {
 public:
  explicit AtacModel(const MachineParams& mp);

  Cycle inject(Cycle t, const NetPacket& p,
               std::vector<Arrival>& out) override;

  void append_channel_usage(std::vector<ChannelUsage>& out) const override;

  const MeshGeom& geom() const { return geom_; }
  int flits_of(const NetPacket& p) const { return enet_.flits_of(p); }

  /// True when this unicast would ride the ONet under the configured policy.
  bool unicast_uses_onet(CoreId src, CoreId dst) const;

  /// Fraction of cycles each hub's SWMR link spent in unicast+broadcast mode
  /// (Table V), given the run length.
  double link_utilization(Cycle total_cycles) const;
  std::uint64_t onet_unicast_packets() const { return onet_unicasts_; }
  std::uint64_t onet_bcast_packets() const { return onet_bcasts_; }

 private:
  /// When the sender's injection port frees and when the packet head
  /// reaches the receiving hubs.
  struct OnetLeg {
    Cycle sender_free;
    Cycle head_at_recv_hub;
  };
  /// ENet leg to the sending hub, then that hub's SWMR data link.
  OnetLeg onet_leg(Cycle t, CoreId src, int flits);
  Cycle onet_broadcast(Cycle t, CoreId src, int flits, MsgClass cls,
                       std::vector<Arrival>& out);

  /// Forwards from a receiving hub into its cluster over one receive net;
  /// returns the tail-delivery cycle there.
  Cycle receive_leg(HubId cluster, Cycle head_at_hub, int flits, CoreId src,
                    bool bcast);

  MachineParams mp_;
  MeshGeom geom_;
  EMeshModel enet_;                       // ENet (counts into our counters_)
  ChannelArray hub_data_link_;  // one SWMR data link per hub
  ChannelArray starnets_;       // receive networks, cluster-major
  std::uint64_t onet_unicasts_ = 0;
  std::uint64_t onet_bcasts_ = 0;
};

/// Builds the network the MachineParams ask for; throws
/// std::invalid_argument if `mp` fails MachineParams::validate().
std::unique_ptr<NetworkModel> make_network(const MachineParams& mp);

}  // namespace atacsim::net
