#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/parse.hpp"
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

/// The process's peak resident set so far, in MB (0 if it cannot be read):
/// the kernel's VmHWM, which starts afresh when a program is exec'd.
/// getrusage's ru_maxrss does not: Linux carries it across fork and exec, so
/// a child of a large parent would report the parent's peak.
double process_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    const std::string_view v = line;  // "VmHWM:\t    1234 kB"
    if (!v.starts_with("VmHWM:")) continue;
    const std::size_t from = std::min(v.find_first_not_of(" \t", 6), v.size());
    const std::size_t to = std::min(v.find(' ', from), v.size());
    const auto kb = parse_whole<std::uint64_t>(v.substr(from, to - from));
    return kb ? static_cast<double>(*kb) / 1024.0 : 0;
  }
  return 0;
}

}  // namespace

SelfProfile& SelfProfile::instance() {
  static SelfProfile p;
  return p;
}

void SelfProfile::add_phase(const std::string& name, double wall_s,
                            std::uint64_t events, const QueueLoad& load) {
  std::lock_guard<std::mutex> lock(mu_);
  Phase& ph = phases_[name];
  ph.wall_s += wall_s;
  ph.events += events;
  ph.load.overflowed += load.overflowed;
  ph.load.peak_pending = std::max(ph.load.peak_pending, load.peak_pending);
  ph.load.bcast_runs_reserved += load.bcast_runs_reserved;
  ph.load.bcast_runs_scheduled += load.bcast_runs_scheduled;
  ph.load.bcast_late_inserts += load.bcast_late_inserts;
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
     << "  \"process_peak_rss_mb\": " << num(process_peak_rss_mb()) << ",\n"
     << "  \"phases\": {";
  bool first = true;
  for (const auto& [n, ph] : phases_) {
    os << (first ? "\n" : ",\n") << "    \"" << escape(n)
       << "\": {\"wall_seconds\": " << num(ph.wall_s)
       << ", \"events\": " << ph.events << ", \"events_per_second\": "
       << num(ph.wall_s > 0 ? static_cast<double>(ph.events) / ph.wall_s : 0)
       << ", \"overflowed_events\": " << ph.load.overflowed
       << ", \"peak_pending_events\": " << ph.load.peak_pending
       << ", \"bcast_runs_reserved\": " << ph.load.bcast_runs_reserved
       << ", \"bcast_runs_scheduled\": " << ph.load.bcast_runs_scheduled
       << ", \"bcast_late_inserts\": " << ph.load.bcast_late_inserts << "}";
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
                                      load_);
}

}  // namespace atacsim::obs
