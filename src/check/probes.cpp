#include "check/probes.hpp"

#include <cmath>
#include <sstream>

namespace atacsim::check {

namespace {

std::string core_state_str(CoreId c, mem::LineState s) {
  std::ostringstream os;
  os << "core " << c << " in state "
     << (s == mem::LineState::kModified
             ? "Modified"
             : (s == mem::LineState::kShared ? "Shared" : "Invalid"));
  return os.str();
}

}  // namespace

void check_coherence(
    Addr line, const mem::DirectorySlice::LineProbe& dir,
    const std::vector<std::pair<CoreId, mem::LineState>>& cached, int k,
    int num_cores, Cycle now) {
  auto fail = [&](CoreId core, const std::string& detail) {
    std::ostringstream os;
    os << "line 0x" << std::hex << line << std::dec << ": " << detail;
    raise(Probe::kCoherence, "directory", now, core, os.str());
  };

  // Pointer-list bound: at most k explicit pointers unless overflowed to
  // the global broadcast bit.
  if (!dir.global && static_cast<int>(dir.ptrs.size()) > k)
    fail(dir.owner, "tracks " + std::to_string(dir.ptrs.size()) +
                        " pointers, limit k=" + std::to_string(k));
  if (dir.global && (dir.count < 0 || dir.count > num_cores))
    fail(dir.owner,
         "global sharer count " + std::to_string(dir.count) + " outside [0, " +
             std::to_string(num_cores) + "]");

  int modified_copies = 0;
  for (const auto& [core, state] : cached) {
    if (state == mem::LineState::kInvalid) continue;
    // The direction ACKwise_k / Dir_kB must never lose: a copy the
    // directory does not account for can never be invalidated.
    if (!dir.covers(core))
      fail(core, "untracked cached copy: " + core_state_str(core, state));
    if (state == mem::LineState::kModified) {
      ++modified_copies;
      if (dir.owner != core)
        fail(core, "Modified copy at non-owner (directory owner is core " +
                       std::to_string(dir.owner) + ")");
    }
  }
  if (modified_copies > 1)
    fail(dir.owner,
         std::to_string(modified_copies) + " simultaneous Modified copies");
}

void check_flow_conservation(const NetCounters& n, int num_cores, Cycle now) {
  if (n.recv_unicast_flits != n.unicast_flits_offered) {
    std::ostringstream os;
    os << "unicast flits: offered " << n.unicast_flits_offered
       << ", received " << n.recv_unicast_flits;
    raise(Probe::kFlow, "network", now, kInvalidCore, os.str());
  }
  const std::uint64_t expected_bcast =
      n.bcast_flits_offered * static_cast<std::uint64_t>(num_cores - 1);
  if (n.recv_bcast_flits != expected_bcast) {
    std::ostringstream os;
    os << "broadcast flits: offered " << n.bcast_flits_offered << " x ("
       << num_cores << " - 1) = " << expected_bcast << ", received "
       << n.recv_bcast_flits;
    raise(Probe::kFlow, "network", now, kInvalidCore, os.str());
  }
}

void check_channel_usage(const std::vector<net::ChannelUsage>& usage,
                         Cycle elapsed) {
  for (const auto& u : usage) {
    const Cycle capacity = elapsed * static_cast<Cycle>(u.channels);
    if (u.busy_cycles > capacity) {
      std::ostringstream os;
      os << u.name << ": busy " << u.busy_cycles << " cycles > " << elapsed
         << " elapsed x " << u.channels << " channels = " << capacity;
      raise(Probe::kFlow, "network.ledger", elapsed, kInvalidCore, os.str());
    }
  }
}

void check_delivery(std::uint64_t expected, std::uint64_t delivered,
                    const char* what, Cycle now) {
  if (expected != delivered) {
    std::ostringstream os;
    os << what << ": expected " << expected << " deliveries, observed "
       << delivered;
    raise(Probe::kFlow, "machine", now, kInvalidCore, os.str());
  }
}

namespace {

void energy_component(double v, const char* name, const std::string& context) {
  if (!std::isfinite(v) || v < 0.0) {
    std::ostringstream os;
    os << context << ": component " << name << " = " << v
       << " (must be finite and non-negative)";
    raise(Probe::kEnergy, "power", 0, kInvalidCore, os.str());
  }
}

bool close(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= 1e-6 * scale;
}

}  // namespace

void check_energy(const power::EnergyBreakdown& e, const std::string& context) {
#define ATACSIM_X(f) energy_component(e.f, #f, context);
  ATACSIM_ENERGY_FIELDS(ATACSIM_X)
#undef ATACSIM_X
}

void check_energy_stats(const StatList& st, const std::string& context) {
  for (const auto& [name, value] : st.items()) {
    if (!std::isfinite(value))
      raise(Probe::kEnergy, "report", 0, kInvalidCore,
            context + ": stat " + name + " is not finite");
    if (name.rfind("energy_", 0) == 0 && value < 0.0)
      raise(Probe::kEnergy, "report", 0, kInvalidCore,
            context + ": stat " + name + " = " + std::to_string(value) +
                " is negative");
  }
  auto sum_check = [&](const char* total, double components) {
    const double reported = st.get(total);
    if (!close(reported, components)) {
      std::ostringstream os;
      os << context << ": " << total << " = " << reported
         << " but its components sum to " << components;
      raise(Probe::kEnergy, "report", 0, kInvalidCore, os.str());
    }
  };
  // The subtotals are summed in EnergyBreakdown's order, from the lists
  // that also name the report columns.
#define ATACSIM_X(f) +st.get("energy_" #f)
  sum_check("energy_network", 0.0 ATACSIM_NETWORK_ENERGY_FIELDS(ATACSIM_X));
  sum_check("energy_caches", 0.0 ATACSIM_CACHE_ENERGY_FIELDS(ATACSIM_X));
  sum_check("energy_chip_no_core",
            st.get("energy_network") + st.get("energy_caches"));
  sum_check("energy_chip", st.get("energy_chip_no_core")
                               ATACSIM_CORE_ENERGY_FIELDS(ATACSIM_X));
#undef ATACSIM_X
}

void check_epoch_totals(const NetCounters& sum_net,
                        const NetCounters& final_net,
                        const MemCounters& sum_mem,
                        const MemCounters& final_mem,
                        const CoreCounters& sum_core,
                        const CoreCounters& final_core,
                        const std::string& context) {
  auto field = [&](const char* name, std::uint64_t sum, std::uint64_t fin) {
    if (sum != fin)
      raise(Probe::kObs, "epoch_series", 0, kInvalidCore,
            context + ": epoch deltas of " + name + " sum to " +
                std::to_string(sum) + " but the run total is " +
                std::to_string(fin));
  };
  // The walks keep this probe in lockstep with the counter structs: a
  // field added there is compared here with no further edits.
  for_each_counter(field, sum_net, final_net);
  for_each_counter(field, sum_mem, final_mem);
  for_each_counter(field, sum_core, final_core);
}

}  // namespace atacsim::check
