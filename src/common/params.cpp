#include "common/params.hpp"

#include <stdexcept>

namespace atacsim {

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
#define ATACSIM_X(type, name, def, use, lo, hi) \
  if (!in_range(name, lo, hi))             \
    throw std::invalid_argument(#name " is outside [" #lo ", " #hi "]");
  ATACSIM_MACHINE_FIELDS(ATACSIM_X)
#undef ATACSIM_X
  if (mesh_width * mesh_width != num_cores)
    throw std::invalid_argument("num_cores must equal mesh_width^2");
  if (mesh_width % cluster_width != 0)
    throw std::invalid_argument("cluster_width must divide mesh_width");
  if ((flit_bits & (flit_bits - 1)) != 0)
    throw std::invalid_argument("flit_bits must be a power of two");
}

}  // namespace atacsim
