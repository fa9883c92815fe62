#include "core/program.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace atacsim::core {

Program::Program(const MachineParams& mp, obs::RunObserver* obs,
                 bool validate)
    : machine_(std::make_unique<sim::Machine>(mp, obs, validate)) {
  ctxs_.reserve(static_cast<std::size_t>(mp.num_cores));
  for (CoreId c = 0; c < mp.num_cores; ++c)
    ctxs_.push_back(std::make_unique<CoreCtx>(*machine_, c));
}

void Program::start(void* kernel, std::uint64_t) {
  auto& k = *static_cast<Kernel*>(kernel);
  k.task.emplace(k.body->kernel(*k.ctx));
  k.task->resume();
}

void Program::spawn_all(const AppBody& body, int n) {
  const int cores = machine_->params().num_cores;
  if (n > cores)
    throw std::invalid_argument("spawn_all: " + std::to_string(n) +
                                " kernels for " + std::to_string(cores) +
                                " cores");
  const int count = (n < 0) ? cores : n;
  machine_->set_address_space(body.space);
  const AppBody& kept = bodies_.emplace_back(body);
  for (CoreId c = 0; c < count; ++c) {
    kernels_.push_back({&kept, ctxs_[static_cast<std::size_t>(c)].get(), {}});
    machine_->events().schedule(0, start, &kernels_.back(), 0);
  }
}

RunResult Program::run(Cycle max_cycles) {
  RunResult r;
  r.finished = machine_->run(max_cycles) &&
               std::all_of(kernels_.begin(), kernels_.end(), [](auto& k) {
                 return k.task && k.task->done();
               });

  for (const auto& c : ctxs_)
    r.completion_cycles = std::max(r.completion_cycles, c->now());
  for (const CoreCounters& c : machine_->core_counters()) r.core += c;
  r.avg_ipc = r.completion_cycles
                  ? static_cast<double>(r.core.instructions) /
                        (static_cast<double>(r.completion_cycles) *
                         ctxs_.size())
                  : 0.0;
  r.net = machine_->net_counters();
  r.mem = machine_->mem_counters();
  return r;
}

}  // namespace atacsim::core
