// Host-side self-profiling ("atacsim-obs-profile-v1").
//
// Everything in this file measures the *simulator*, not the simulation:
// wall time, dispatched events and event-queue load per phase,
// per-exp-worker busy time, pool statistics (cells, cache hits,
// utilization) and the process's peak resident set. Host time and memory
// are inherently nondeterministic, so these numbers are quarantined here
// and written to their own profile file — they must never leak into
// series, trace or report output, which stay byte-identical across --jobs
// values.
//
// The profile is a process-wide singleton because exp workers and bench
// entries from many call sites contribute to one picture; all mutators are
// thread-safe.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>

namespace atacsim::obs {

/// Host-side load of one run's event queue and broadcast delivery: events
/// that went through the queue's overflow heap, the most events pending at
/// once, and the runs of equal arrival cycles the Machine's broadcasts
/// reserved a slot for, gave an event at send, and gave one later.
struct QueueLoad {
  std::uint64_t overflowed = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t bcast_runs_reserved = 0;
  std::uint64_t bcast_runs_scheduled = 0;
  std::uint64_t bcast_late_inserts = 0;
};

class SelfProfile {
 public:
  static SelfProfile& instance();

  /// Accumulates `wall_s` host seconds and `events` dispatched simulation
  /// events under phase `name` (e.g. "setup", "simulate", "verify"), with the run's
  /// queue load: the peak pending count is the phase's largest, the other
  /// counts are summed. They repeat exactly for a scenario, but they
  /// describe the host's work, not the simulated chip, so they stay out of
  /// digests, reports and cache keys.
  void add_phase(const std::string& name, double wall_s, std::uint64_t events,
                 const QueueLoad& load);

  /// Accumulates one worker's busy time and completed cell count.
  void add_worker(int worker, double busy_s, std::uint64_t cells);

  /// Accumulates one plan execution's pool-level statistics.
  void add_pool(int jobs, std::uint64_t cells, std::uint64_t cache_hits,
                std::uint64_t simulations, double wall_s);

  bool empty() const;
  void reset();

  /// Writes the profile JSON. Schema "atacsim-obs-profile-v1"; the document
  /// carries "deterministic": false as an explicit marker, and the process's
  /// own peak resident set so far (VmHWM) as "process_peak_rss_mb".
  void write_json(std::ostream& os, const std::string& name) const;

 private:
  struct Phase {
    double wall_s = 0;
    std::uint64_t events = 0;
    QueueLoad load;
  };
  struct Worker {
    double busy_s = 0;
    std::uint64_t cells = 0;
  };
  struct Pool {
    std::uint64_t plans = 0;
    int jobs = 0;  ///< last pool size used
    std::uint64_t cells = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t simulations = 0;
    double wall_s = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Phase> phases_;
  std::map<int, Worker> workers_;
  Pool pool_;
};

/// RAII phase timer: measures wall time from construction to destruction
/// and adds it (plus `events` set via done()) to the singleton. No-ops when
/// obs is not armed, so call sites need no guards.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::string name);
  ~PhaseTimer();
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Attributes `events` simulation events to this phase at destruction.
  void set_events(std::uint64_t events) { events_ = events; }
  /// Attributes a run's queue load (SelfProfile::add_phase) to this phase
  /// at destruction.
  void set_queue(const QueueLoad& load) { load_ = load; }

 private:
  std::string name_;
  std::uint64_t events_ = 0;
  QueueLoad load_;
  double t0_ = 0;
  bool armed_ = false;
};

}  // namespace atacsim::obs
