#include "common/params.hpp"

#include <bit>
#include <stdexcept>
#include <string>

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

namespace {

/// Throws unless `size_KB` of kLineBytes lines split into a power-of-two
/// number of whole `assoc`-way sets, the geometry a CacheArray indexes.
void check_cache(int size_KB, int assoc, const char* size_name,
                 const char* assoc_name) {
  const long long lines = static_cast<long long>(size_KB) * 1024 / kLineBytes;
  if (lines % assoc != 0 ||
      !std::has_single_bit(static_cast<unsigned long long>(lines / assoc)))
    throw std::invalid_argument(
        std::string(size_name) + " = " + std::to_string(size_KB) + " and " +
        assoc_name + " = " + std::to_string(assoc) + " must make a power-of-"
        "two number of whole sets of " + std::to_string(kLineBytes) +
        " B lines");
}

}  // namespace

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
  check_cache(l1d_size_KB, l1_assoc, "l1d_size_KB", "l1_assoc");
  check_cache(l2_size_KB, l2_assoc, "l2_size_KB", "l2_assoc");
}

}  // namespace atacsim
