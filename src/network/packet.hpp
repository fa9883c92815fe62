// Network packet description and the network-model interface.
#pragma once

#include <cstddef>
#include <vector>

#include "common/counters.hpp"
#include "common/types.hpp"

namespace atacsim::obs {
class RunObserver;
}

namespace atacsim::net {

enum class MsgClass : std::uint8_t {
  kCoherence,  ///< 88-bit control message (+16-bit seqnum)
  kData,       ///< 600-bit cache-line message (+16-bit seqnum)
  kSynthetic,  ///< raw bits as given (synthetic traffic drivers)
};

struct NetPacket {
  CoreId src = kInvalidCore;
  CoreId dst = kInvalidCore;  ///< kBroadcastCore for a broadcast
  int bits = 64;
  MsgClass cls = MsgClass::kSynthetic;

  bool is_broadcast() const { return dst == kBroadcastCore; }
};

/// One receiver's copy of a packet: the cycle its tail flit is delivered.
struct Arrival {
  CoreId receiver;
  Cycle at;
};

/// Aggregate busy time of one named channel group, exported for the
/// validation layer's ledger probe (src/check): total busy cycles can never
/// exceed elapsed cycles x channel count once the event queue drains.
struct ChannelUsage {
  const char* name;       ///< e.g. "enet.links", "onet.hub_data", "starnets"
  Cycle busy_cycles = 0;  ///< summed over all channels in the group
  std::size_t channels = 0;
};

/// Flow-level network model. Thread-hostile by design: the simulation is a
/// deterministic single-threaded event program.
class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  /// Injects `p` no earlier than cycle `t` and appends one Arrival per
  /// receiver to `out` (for a broadcast, every core except src), in the
  /// order the model computes them; the caller turns them into events.
  /// Returns the cycle at which the sender's injection port is free again —
  /// callers must not inject from the same source before then (this is the
  /// back-pressure path).
  virtual Cycle inject(Cycle t, const NetPacket& p,
                       std::vector<Arrival>& out) = 0;

  NetCounters& counters() { return counters_; }
  const NetCounters& counters() const { return counters_; }

  /// Appends one ChannelUsage entry per contention resource the model owns
  /// (validation-layer introspection; the base model owns none).
  virtual void append_channel_usage(std::vector<ChannelUsage>&) const {}

  /// Telemetry (src/obs), not owned; null (the default) keeps the latency
  /// recording sites at a single pointer test.
  void set_observer(obs::RunObserver* o) { obs_ = o; }

 protected:
  /// Packet-level statistics of one unicast injected at `t` whose tail
  /// arrives at `tail`.
  void count_unicast(Cycle t, Cycle tail, int flits, MsgClass cls);
  /// Packet-level statistics of one broadcast of `flits` flits to
  /// `receivers` cores, injected at `t`, whose last copy arrives at
  /// `latest`; `injected` is the flits the source put into the network.
  void count_broadcast(Cycle t, Cycle latest, int flits,
                       std::uint64_t injected, int receivers, MsgClass cls);

  NetCounters counters_;
  obs::RunObserver* obs_ = nullptr;
};

}  // namespace atacsim::net
