#include "check/invariant.hpp"

#include <cstdlib>
#include <sstream>
#include <utility>

namespace atacsim::check {
namespace {

std::string format(Probe probe, const std::string& subsystem, Cycle cycle,
                   CoreId core, const std::string& detail) {
  std::ostringstream os;
  os << "invariant violation [" << to_string(probe) << "] in " << subsystem
     << " at cycle " << cycle;
  if (core != kInvalidCore) os << " core " << core;
  os << ": " << detail;
  return os.str();
}

}  // namespace

const char* to_string(Probe p) {
  switch (p) {
    case Probe::kCoherence: return "coherence";
    case Probe::kFlow: return "flow";
    case Probe::kEnergy: return "energy";
    case Probe::kClock: return "clock";
    case Probe::kObs: return "obs";
    case Probe::kAddress: return "address";
  }
  return "?";
}

InvariantViolation::InvariantViolation(Probe probe_, std::string subsystem_,
                                       Cycle cycle_, CoreId core_,
                                       std::string detail_)
    : std::runtime_error(format(probe_, subsystem_, cycle_, core_, detail_)),
      probe(probe_),
      subsystem(std::move(subsystem_)),
      cycle(cycle_),
      core(core_),
      detail(std::move(detail_)) {}

bool env_validation_enabled() {
  // Read once: getenv per construction is measurable and unsafe against
  // concurrent setenv under the exp pool.
  static const bool v = [] {
    const char* e = std::getenv("ATACSIM_VALIDATE");
    return e && e[0] != '\0' && e[0] != '0';
  }();
  return v;
}

void raise(Probe probe, std::string subsystem, Cycle cycle, CoreId core,
           std::string detail) {
  throw InvariantViolation(probe, std::move(subsystem), cycle, core,
                           std::move(detail));
}

}  // namespace atacsim::check
