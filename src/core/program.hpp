// Program: runs one application kernel coroutine per simulated core on a
// Machine, and reports completion time, IPC and the activity counters the
// power models consume. The Program owns every kernel frame: a core's
// cycle-0 event calls its kernel and keeps the returned Task, finished or
// not, until the Program is destroyed.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
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
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  sim::Machine& machine() { return *machine_; }

  /// Spawns `body` on every core (or the first `n` cores if n >= 0) and
  /// hands its address space to the Machine; every core calls the one copy
  /// of the body the Program keeps. Throws std::invalid_argument if `n`
  /// exceeds the machine's core count.
  void spawn_all(const AppBody& body, int n = -1);

  /// Enables memory-trace capture for all cores (see sim/trace.hpp).
  void set_tracer(sim::TraceRecorder* t) {
    for (auto& c : ctxs_) c->set_tracer(t);
  }

  /// Runs to completion of all spawned kernels (or the safety limit).
  RunResult run(Cycle max_cycles = kNeverCycle);

 private:
  /// One spawned kernel; its core's cycle-0 event points at it.
  struct Kernel {
    const AppBody* body;
    CoreCtx* ctx;
    std::optional<Task> task;  ///< the root coroutine, once started
  };
  /// The cycle-0 event: makes the kernel's frame and runs it.
  static void start(void* kernel, std::uint64_t);

  std::unique_ptr<sim::Machine> machine_;
  std::vector<std::unique_ptr<CoreCtx>> ctxs_;
  /// Every body spawned; a deque, because a lambda coroutine keeps a
  /// pointer into its callable.
  std::deque<AppBody> bodies_;
  /// Declared last, so the kernel frames go before what they point at.
  std::deque<Kernel> kernels_;
};

}  // namespace atacsim::core
