#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "obs/json.hpp"
#include "obs/options.hpp"

namespace atacsim::obs {

using json::escape;
using json::num;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SelfProfile& SelfProfile::instance() {
  static SelfProfile p;
  return p;
}

void SelfProfile::add_phase(const std::string& name, double wall_s,
                            std::uint64_t events, std::uint64_t overflowed,
                            std::uint64_t peak_pending) {
  std::lock_guard<std::mutex> lock(mu_);
  Phase& ph = phases_[name];
  ph.wall_s += wall_s;
  ph.events += events;
  ph.overflowed += overflowed;
  ph.peak_pending = std::max(ph.peak_pending, peak_pending);
}

void SelfProfile::add_worker(int worker, double busy_s, std::uint64_t cells) {
  std::lock_guard<std::mutex> lock(mu_);
  Worker& w = workers_[worker];
  w.busy_s += busy_s;
  w.cells += cells;
}

void SelfProfile::add_pool(int jobs, std::uint64_t cells,
                           std::uint64_t cache_hits, std::uint64_t simulations,
                           double wall_s) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pool_.plans;
  pool_.jobs = jobs;
  pool_.cells += cells;
  pool_.cache_hits += cache_hits;
  pool_.simulations += simulations;
  pool_.wall_s += wall_s;
}

bool SelfProfile::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phases_.empty() && workers_.empty() && pool_.plans == 0;
}

void SelfProfile::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  phases_.clear();
  workers_.clear();
  pool_ = {};
}

void SelfProfile::write_json(std::ostream& os, const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\n"
     << "  \"schema\": \"atacsim-obs-profile-v1\",\n"
     << "  \"name\": \"" << escape(name) << "\",\n"
     << "  \"deterministic\": false,\n"
     << "  \"phases\": {";
  bool first = true;
  for (const auto& [n, ph] : phases_) {
    os << (first ? "\n" : ",\n") << "    \"" << escape(n)
       << "\": {\"wall_seconds\": " << num(ph.wall_s)
       << ", \"events\": " << ph.events << ", \"events_per_second\": "
       << num(ph.wall_s > 0 ? static_cast<double>(ph.events) / ph.wall_s : 0)
       << ", \"overflowed_events\": " << ph.overflowed
       << ", \"peak_pending_events\": " << ph.peak_pending << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n"
     << "  \"workers\": {";
  first = true;
  double busy_total = 0;
  for (const auto& [id, w] : workers_) {
    os << (first ? "\n" : ",\n") << "    \"" << id
       << "\": {\"busy_seconds\": " << num(w.busy_s)
       << ", \"cells\": " << w.cells << "}";
    busy_total += w.busy_s;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
  const double denom = pool_.wall_s * (pool_.jobs > 0 ? pool_.jobs : 1);
  os << "  \"pool\": {\"plans\": " << pool_.plans << ", \"jobs\": "
     << pool_.jobs << ", \"cells\": " << pool_.cells << ", \"cache_hits\": "
     << pool_.cache_hits << ", \"simulations\": " << pool_.simulations
     << ", \"wall_seconds\": " << num(pool_.wall_s)
     << ", \"utilization\": " << num(denom > 0 ? busy_total / denom : 0)
     << "}\n}\n";
}

PhaseTimer::PhaseTimer(std::string name)
    : name_(std::move(name)), armed_(options().enabled) {
  if (armed_) t0_ = now_seconds();
}

PhaseTimer::~PhaseTimer() {
  if (armed_)
    SelfProfile::instance().add_phase(name_, now_seconds() - t0_, events_,
                                      overflowed_, peak_pending_);
}

}  // namespace atacsim::obs
