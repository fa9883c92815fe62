#include "common/params.hpp"

#include <stdexcept>

namespace atacsim {

const char* to_string(NetworkKind k) {
  switch (k) {
    case NetworkKind::kEMeshPure: return "EMesh-Pure";
    case NetworkKind::kEMeshBCast: return "EMesh-BCast";
    case NetworkKind::kAtacPlus: return "ATAC+";
  }
  return "?";
}

const char* to_string(ReceiveNet r) {
  switch (r) {
    case ReceiveNet::kBNet: return "BNet";
    case ReceiveNet::kStarNet: return "StarNet";
  }
  return "?";
}

const char* to_string(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::kCluster: return "Cluster";
    case RoutingPolicy::kDistance: return "Distance";
    case RoutingPolicy::kDistanceAll: return "Distance-All";
  }
  return "?";
}

const char* to_string(PhotonicFlavor f) {
  switch (f) {
    case PhotonicFlavor::kIdeal: return "ATAC+(Ideal)";
    case PhotonicFlavor::kDefault: return "ATAC+";
    case PhotonicFlavor::kRingTuned: return "ATAC+(RingTuned)";
    case PhotonicFlavor::kCons: return "ATAC+(Cons)";
  }
  return "?";
}

const char* to_string(CoherenceKind c) {
  switch (c) {
    case CoherenceKind::kAckwise: return "ACKwise";
    case CoherenceKind::kDirKB: return "DirkB";
  }
  return "?";
}

MachineParams MachineParams::small(int mesh_w, int cluster_w) {
  MachineParams p;
  p.mesh_width = mesh_w;
  p.cluster_width = cluster_w;
  p.num_cores = mesh_w * mesh_w;
  p.validate();
  return p;
}

MachineParams MachineParams::paper() {
  MachineParams p;  // defaults are the paper configuration
  p.validate();
  return p;
}

void MachineParams::validate() const {
  if (mesh_width <= 0 || cluster_width <= 0)
    throw std::invalid_argument("mesh/cluster width must be positive");
  if (mesh_width * mesh_width != num_cores)
    throw std::invalid_argument("num_cores must equal mesh_width^2");
  if (mesh_width % cluster_width != 0)
    throw std::invalid_argument("cluster_width must divide mesh_width");
  if (flit_bits <= 0 || (flit_bits & (flit_bits - 1)) != 0)
    throw std::invalid_argument("flit_bits must be a power of two");
  if (num_hw_sharers < 1)
    throw std::invalid_argument("num_hw_sharers must be >= 1");
  if (r_thres < 0) throw std::invalid_argument("r_thres must be >= 0");
  if ((line_size_B & (line_size_B - 1)) != 0)
    throw std::invalid_argument("line_size_B must be a power of two");
}

}  // namespace atacsim
