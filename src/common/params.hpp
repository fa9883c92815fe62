// Machine, network, and technology parameters.
//
// Defaults mirror the paper's Table I (architecture), Table II (optical
// technology) and Table III (projected 11 nm tri-gate transistors), plus the
// message-format constants from Sec. IV-C-1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/types.hpp"

namespace atacsim {

// ---------------------------------------------------------------------------
// Enumerations selecting architecture variants under study, each with one
// table of names in enumerator order.
// ---------------------------------------------------------------------------

/// An enumerator's display name (reports, labels) and config-file token.
struct EnumName {
  const char* display;
  const char* token;
};

/// Which on-chip network the machine uses.
enum class NetworkKind {
  kEMeshPure,   ///< plain electrical mesh; broadcasts = N-1 serialized unicasts
  kEMeshBCast,  ///< electrical mesh with router-level multicast (XY tree)
  kAtacPlus,    ///< ENet mesh + ONet adaptive SWMR + StarNet/BNet
};
inline std::span<const EnumName> enum_names(NetworkKind) {
  static constexpr EnumName k[] = {{"EMesh-Pure", "emesh-pure"},
                                   {"EMesh-BCast", "emesh-bcast"},
                                   {"ATAC+", "atac"}};
  return k;
}

/// Receive-side network inside a cluster (ATAC vs ATAC+; Sec. IV-B).
enum class ReceiveNet {
  kBNet,     ///< fanout tree: a unicast is delivered to all 16 cores
  kStarNet,  ///< 1-to-16 demux: a unicast uses exactly one link
};
inline std::span<const EnumName> enum_names(ReceiveNet) {
  static constexpr EnumName k[] = {{"BNet", "bnet"}, {"StarNet", "starnet"}};
  return k;
}

/// Unicast routing policy on ATAC+ (Sec. IV-C).
enum class RoutingPolicy {
  kCluster,      ///< all inter-cluster unicasts over the ONet (original ATAC)
  kDistance,     ///< ENet if manhattan distance < r_thres else ONet
  kDistanceAll,  ///< all unicasts over the ENet; ONet only for broadcasts
};
inline std::span<const EnumName> enum_names(RoutingPolicy) {
  static constexpr EnumName k[] = {
      {"Cluster", "cluster"}, {"Distance", "distance"}, {"Distance-All", "all"}};
  return k;
}

/// Optical technology flavours of Table IV.
enum class PhotonicFlavor {
  kIdeal,      ///< lossless devices, 100% efficient laser, power-gated, athermal
  kDefault,    ///< practical devices, power-gated laser, athermal rings (ATAC+)
  kRingTuned,  ///< practical devices, power-gated laser, thermally tuned rings
  kCons,       ///< practical devices, always-on broadcast-power laser, tuned rings
};
inline std::span<const EnumName> enum_names(PhotonicFlavor) {
  static constexpr EnumName k[] = {{"ATAC+(Ideal)", "ideal"},
                                   {"ATAC+", "default"},
                                   {"ATAC+(RingTuned)", "ringtuned"},
                                   {"ATAC+(Cons)", "cons"}};
  return k;
}

/// Cache coherence protocol (Sec. V-F).
enum class CoherenceKind {
  kAckwise,  ///< ACKwise_k: counts sharers past k; acks from actual sharers only
  kDirKB,    ///< Dir_kB: broadcast past k; acks from every core in the system
};
inline std::span<const EnumName> enum_names(CoherenceKind) {
  static constexpr EnumName k[] = {{"ACKwise", "ackwise"}, {"DirkB", "dirkb"}};
  return k;
}

/// The enumerator's entry in its table.
template <class E>
const EnumName& name_of(E e) {
  return enum_names(e)[static_cast<std::size_t>(e)];
}

template <class E>
const char* to_string(E e) {
  return name_of(e).display;
}

// ---------------------------------------------------------------------------
// Table III: projected transistor parameters for 11 nm tri-gate.
// ---------------------------------------------------------------------------
struct TechParams {
  double vdd_V = 0.6;                ///< process supply voltage
  double gate_length_nm = 14.0;      ///< physical gate length
  double contacted_gate_pitch_nm = 44.0;
  double cap_gate_fF_per_um = 2.420;   ///< gate capacitance per device width
  double cap_drain_fF_per_um = 1.150;  ///< drain parasitic cap per width
  double ion_n_uA_per_um = 739.0;      ///< effective on-current, NMOS
  double ion_p_uA_per_um = 668.0;      ///< effective on-current, PMOS
  double ioff_nA_per_um = 1.0;         ///< off-current (HVT leakage)
  /// Global wire capacitance per mm at the 11 nm node (derived constant used
  /// by the DSENT-lite link model; includes ground + coupling components).
  double wire_cap_fF_per_mm = 180.0;
  /// Fraction of wire swing energy charged per transition (activity 0.5 and
  /// repeater overhead folded in).
  double wire_energy_scale = 1.0;
};

// ---------------------------------------------------------------------------
// Table II: optical technology parameters.
// ---------------------------------------------------------------------------
struct PhotonicParams {
  double laser_efficiency = 0.30;        ///< wall-plug efficiency
  double waveguide_pitch_um = 4.0;
  double waveguide_loss_dB_per_cm = 0.2;
  double waveguide_nonlinearity_mW = 30.0;  ///< max power per waveguide
  double ring_through_loss_dB = 0.0001;  ///< loss per ring passed in-line
  double ring_drop_loss_dB = 1.0;        ///< loss through the drop filter
  double ring_area_um2 = 100.0;
  double photodetector_responsivity_A_per_W = 1.1;
  /// Minimum average optical power at the detector for error-free reception
  /// at 1 GHz signalling (receiver sensitivity; [28]-style link budget).
  double detector_sensitivity_uW = 1.0;
  /// Coupler/misc. fixed loss from laser into the waveguide.
  double coupling_loss_dB = 1.0;
  /// Heater power per thermally tuned ring (RingTuned/Cons flavours).
  double ring_tuning_uW_per_ring = 20.0;
  /// Modulator + driver dynamic energy per bit.
  double modulator_fJ_per_bit = 35.0;
  /// Receiver (TIA + clocked sense) dynamic energy per bit.
  double receiver_fJ_per_bit = 25.0;
  /// Laser on/off and bias-adjust latency (on-chip Ge laser; Sec. II-A).
  double laser_switch_ns = 1.0;
};

// ---------------------------------------------------------------------------
// Table I parameters no study varies (plus the message formats of Sec. IV-C-1).
// ---------------------------------------------------------------------------
inline constexpr double kCoreTileMm = 0.58;  ///< tile edge; 32x32 tiles ~ 345 mm^2
inline constexpr double kFreqGHz = 1.0;      ///< cores and network
inline constexpr int kLineBytes = 64;        ///< cache line
inline constexpr Cycle kL1HitCycles = 1;
inline constexpr Cycle kL2HitCycles = 8;
inline constexpr Cycle kRouterDelay = 1;       ///< mesh router
inline constexpr Cycle kLinkDelay = 1;         ///< mesh link
inline constexpr Cycle kStarnetLinkDelay = 1;  ///< hub -> core receive link
// Message sizes in bits, before flit rounding:
inline constexpr int kCoherenceMsgBits = 88 + 16;  ///< addr 64 + ids 20 + type 4 + seqnum 16
inline constexpr int kDataMsgBits = 600 + 16;      ///< + 512-bit cache line

/// Whether lo <= v <= hi, with the bounds taken as v's type (NaN is never).
template <class T, class L, class H>
constexpr bool in_range(T v, L lo, H hi) {
  return static_cast<T>(lo) <= v && v <= static_cast<T>(hi);
}

/// What a machine field feeds: the simulation (and so the scenario cache
/// key), or only the energy model, which every consumer recomputes.
enum class FieldUse { kSim, kEnergy };

// Table I: every MachineParams field, X(type, name, default, use, lo, hi),
// with the inclusive range [lo, hi] that validate() and the config parser
// enforce (written as literals: error messages quote them). The struct,
// validate(), the config parser and harness::scenario_key expand it, so a
// field is named here once. Every field but num_cores, which follows
// mesh_width, is a config key.
#define ATACSIM_MACHINE_FIELDS(X)                                                \
  /* geometry: num_cores = mesh_width^2, cluster_width^2 cores per cluster */    \
  X(int, num_cores, 1024, kSim, 1, 65536)                                        \
  X(int, mesh_width, 32, kSim, 1, 256)                                           \
  X(int, cluster_width, 4, kSim, 1, 256)                                         \
  /* caches of the in-order, single-issue cores */                               \
  X(int, l1i_size_KB, 32, kEnergy, 1, 1048576)                                   \
  X(int, l1d_size_KB, 32, kSim, 1, 1048576)                                      \
  X(int, l2_size_KB, 256, kSim, 1, 1048576)                                      \
  X(int, l1_assoc, 4, kSim, 1, 1024)                                             \
  X(int, l2_assoc, 8, kSim, 1, 1024)                                             \
  /* memory: 100 ns latency at 1 GHz */                                          \
  X(double, mem_bw_GBps_per_ctrl, 5.0, kSim, 1e-3, 1e6)                          \
  X(Cycle, mem_latency_cycles, 100, kSim, 1, 1000000)                            \
  /* network; the ONet and StarNet fields apply to ATAC+ only */                 \
  X(int, flit_bits, 64, kSim, 8, 4096)                                           \
  X(Cycle, onet_link_delay, 3, kSim, 1, 1000)                                    \
  X(Cycle, onet_select_data_lag, 1, kSim, 0, 1000)                               \
  X(int, starnets_per_cluster, 2, kSim, 1, 1024)                                 \
  /* architecture variant; r_thres is the Distance-i threshold in hops */        \
  X(NetworkKind, network, NetworkKind::kAtacPlus, kSim, NetworkKind::kEMeshPure, \
    NetworkKind::kAtacPlus)                                                      \
  X(ReceiveNet, receive_net, ReceiveNet::kStarNet, kSim, ReceiveNet::kBNet,      \
    ReceiveNet::kStarNet)                                                        \
  X(RoutingPolicy, routing, RoutingPolicy::kDistance, kSim,                      \
    RoutingPolicy::kCluster, RoutingPolicy::kDistanceAll)                        \
  X(int, r_thres, 15, kSim, 0, 4096)                                             \
  X(PhotonicFlavor, photonics, PhotonicFlavor::kDefault, kEnergy,                \
    PhotonicFlavor::kIdeal, PhotonicFlavor::kCons)                               \
  /* coherence: k in ACKwise_k / Dir_kB */                                       \
  X(CoherenceKind, coherence, CoherenceKind::kAckwise, kSim,                     \
    CoherenceKind::kAckwise, CoherenceKind::kDirKB)                              \
  X(int, num_hw_sharers, 4, kSim, 1, 1048576)                                    \
  /* core power model (Sec. V-G): NDD share of peak, 10% or 40% */               \
  X(double, core_peak_mW, 20.0, kEnergy, 0.0, 1e6)                               \
  X(double, core_ndd_fraction, 0.10, kEnergy, 0.0, 1.0)

struct MachineParams {
#define ATACSIM_X(type, name, def, use, lo, hi) type name = def;
  ATACSIM_MACHINE_FIELDS(ATACSIM_X)
#undef ATACSIM_X

  int num_clusters() const { return num_cores / cores_per_cluster(); }
  int cores_per_cluster() const { return cluster_width * cluster_width; }
  int clusters_per_row() const { return mesh_width / cluster_width; }
  int coherence_flits() const {
    return (kCoherenceMsgBits + flit_bits - 1) / flit_bits;
  }
  int data_flits() const { return (kDataMsgBits + flit_bits - 1) / flit_bits; }

  /// Convenience: shrink to a small square machine for unit tests.
  static MachineParams small(int mesh_w = 8, int cluster_w = 2);
  /// The paper's full-scale 1024-core configuration.
  static MachineParams paper();

  /// Checks every field against its range in ATACSIM_MACHINE_FIELDS, then
  /// the geometry; throws std::invalid_argument on error.
  void validate() const;
};

// A field declared in the struct outside the list fails the build: the
// list must name every member.
namespace machine_fields {
struct Any {
  template <class T>
  operator T() const;
};
template <class T, class... A>  // the members of aggregate T, by brace-init
constexpr std::size_t count() {
  if constexpr (requires { T{A{}..., Any{}}; }) return count<T, A..., Any>();
  else return sizeof...(A);
}
#define ATACSIM_X(type, name, def, use, lo, hi) +1
static_assert(count<MachineParams>() == 0 ATACSIM_MACHINE_FIELDS(ATACSIM_X),
              "every MachineParams field must be in ATACSIM_MACHINE_FIELDS");
#undef ATACSIM_X
}  // namespace machine_fields

/// Bundle passed to power models.
struct TechBundle {
  TechParams tech;
  PhotonicParams photonics;
};

}  // namespace atacsim
