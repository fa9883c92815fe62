// Program: runs one application kernel coroutine per simulated core on a
// Machine, and reports completion time, IPC and the activity counters the
// power models consume.
#pragma once

#include <coroutine>
#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "core/core_ctx.hpp"
#include "core/task.hpp"
#include "sim/machine.hpp"

namespace atacsim::core {

struct RunResult {
  Cycle completion_cycles = 0;  ///< max core-local finish time
  double avg_ipc = 0;
  NetCounters net;
  MemCounters mem;
  CoreCounters core;
  bool finished = false;  ///< false if the safety cycle limit was hit
};

class Program {
 public:
  /// `obs` (optional, not owned) arms telemetry on the underlying Machine,
  /// which samples the cores' counters with its own at epoch boundaries;
  /// `validate` arms its src/check probes (see sim::Machine).
  explicit Program(const MachineParams& mp, obs::RunObserver* obs = nullptr,
                   bool validate = check::env_validation_enabled());
  /// Frees the frames of kernels that did not finish (a run stopped by its
  /// cycle limit); a finished kernel's frame frees itself.
  ~Program();
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  sim::Machine& machine() { return *machine_; }

  /// Spawns `body` on every core (or the first `n` cores if n >= 0) and
  /// hands its address space to the Machine. Throws std::invalid_argument
  /// if `n` exceeds the machine's core count.
  void spawn_all(const AppBody& body, int n = -1);

  /// Enables memory-trace capture for all cores (see sim/trace.hpp).
  void set_tracer(sim::TraceRecorder* t) {
    for (auto& c : ctxs_) c->set_tracer(t);
  }

  /// Runs to completion of all spawned kernels (or the safety limit).
  RunResult run(Cycle max_cycles = kNeverCycle);

 private:
  RootTask root(CoreCtx& c, AppBody body);

  std::unique_ptr<sim::Machine> machine_;
  std::vector<std::unique_ptr<CoreCtx>> ctxs_;
  /// Per core, the root frame of its kernel while it has not finished.
  std::vector<std::coroutine_handle<>> roots_;
  int outstanding_ = 0;
};

}  // namespace atacsim::core
