// Machine, network, and technology parameters.
//
// Defaults mirror the paper's Table I (architecture), Table II (optical
// technology) and Table III (projected 11 nm tri-gate transistors), plus the
// message-format constants from Sec. IV-C-1.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace atacsim {

// ---------------------------------------------------------------------------
// Enumerations selecting architecture variants under study.
// ---------------------------------------------------------------------------

/// Which on-chip network the machine uses.
enum class NetworkKind {
  kEMeshPure,   ///< plain electrical mesh; broadcasts = N-1 serialized unicasts
  kEMeshBCast,  ///< electrical mesh with router-level multicast (XY tree)
  kAtacPlus,    ///< ENet mesh + ONet adaptive SWMR + StarNet/BNet
};

/// Receive-side network inside a cluster (ATAC vs ATAC+; Sec. IV-B).
enum class ReceiveNet {
  kBNet,     ///< fanout tree: a unicast is delivered to all 16 cores
  kStarNet,  ///< 1-to-16 demux: a unicast uses exactly one link
};

/// Unicast routing policy on ATAC+ (Sec. IV-C).
enum class RoutingPolicy {
  kCluster,      ///< all inter-cluster unicasts over the ONet (original ATAC)
  kDistance,     ///< ENet if manhattan distance < r_thres else ONet
  kDistanceAll,  ///< all unicasts over the ENet; ONet only for broadcasts
};

/// Optical technology flavours of Table IV.
enum class PhotonicFlavor {
  kIdeal,      ///< lossless devices, 100% efficient laser, power-gated, athermal
  kDefault,    ///< practical devices, power-gated laser, athermal rings (ATAC+)
  kRingTuned,  ///< practical devices, power-gated laser, thermally tuned rings
  kCons,       ///< practical devices, always-on broadcast-power laser, tuned rings
};

/// Cache coherence protocol (Sec. V-F).
enum class CoherenceKind {
  kAckwise,  ///< ACKwise_k: counts sharers past k; acks from actual sharers only
  kDirKB,    ///< Dir_kB: broadcast past k; acks from every core in the system
};

const char* to_string(NetworkKind k);
const char* to_string(ReceiveNet r);
const char* to_string(RoutingPolicy p);
const char* to_string(PhotonicFlavor f);
const char* to_string(CoherenceKind c);

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
// Table I: architecture parameters (plus message formats of Sec. IV-C-1).
// ---------------------------------------------------------------------------
struct MachineParams {
  // --- geometry ---
  int num_cores = 1024;        ///< must be mesh_width^2
  int mesh_width = 32;         ///< cores per row/column
  int cluster_width = 4;       ///< cores per cluster row/column (16/cluster)
  int num_clusters() const { return num_cores / cores_per_cluster(); }
  int cores_per_cluster() const { return cluster_width * cluster_width; }
  int clusters_per_row() const { return mesh_width / cluster_width; }
  double core_tile_mm = 0.58;  ///< tile edge; 32x32 tiles ~ 345 mm^2 die

  // --- clocks & cores ---
  double freq_GHz = 1.0;       ///< cores and network
  // in-order, single-issue core (fixed in this study)

  // --- caches ---
  int l1i_size_KB = 32;
  int l1d_size_KB = 32;
  int l2_size_KB = 256;
  int l1_assoc = 4;
  int l2_assoc = 8;
  int line_size_B = 64;
  Cycle l1_hit_cycles = 1;
  Cycle l2_hit_cycles = 8;

  // --- memory ---
  double mem_bw_GBps_per_ctrl = 5.0;
  Cycle mem_latency_cycles = 100;  ///< 100 ns at 1 GHz

  // --- network common ---
  int flit_bits = 64;
  Cycle router_delay = 1;
  Cycle link_delay = 1;

  // --- ATAC+ specific ---
  Cycle onet_link_delay = 3;
  Cycle onet_select_data_lag = 1;
  Cycle starnet_link_delay = 1;
  int starnets_per_cluster = 2;

  // --- message formats (bits, before flit rounding; Sec. IV-C-1) ---
  int coherence_msg_bits = 88 + 16;  ///< addr 64 + ids 20 + type 4 + seqnum 16
  int data_msg_bits = 600 + 16;      ///< + 512-bit cache line

  // --- architecture variant selection ---
  NetworkKind network = NetworkKind::kAtacPlus;
  ReceiveNet receive_net = ReceiveNet::kStarNet;
  RoutingPolicy routing = RoutingPolicy::kDistance;
  int r_thres = 15;  ///< Distance-i threshold (mesh hops)
  PhotonicFlavor photonics = PhotonicFlavor::kDefault;

  // --- coherence ---
  CoherenceKind coherence = CoherenceKind::kAckwise;
  int num_hw_sharers = 4;  ///< k in ACKwise_k / Dir_kB

  // --- core power model (Sec. V-G) ---
  double core_peak_mW = 20.0;
  double core_ndd_fraction = 0.10;  ///< 10% or 40% scenarios

  int coherence_flits() const {
    return (coherence_msg_bits + flit_bits - 1) / flit_bits;
  }
  int data_flits() const { return (data_msg_bits + flit_bits - 1) / flit_bits; }

  /// Convenience: shrink to a small square machine for unit tests.
  static MachineParams small(int mesh_w = 8, int cluster_w = 2);
  /// The paper's full-scale 1024-core configuration.
  static MachineParams paper();

  /// Validates geometric invariants; throws std::invalid_argument on error.
  void validate() const;
};

/// Bundle passed to power models.
struct TechBundle {
  TechParams tech;
  PhotonicParams photonics;
};

}  // namespace atacsim
