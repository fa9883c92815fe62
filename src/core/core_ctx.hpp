// Simulated-core execution context: the API application kernels program
// against. Every shared-memory load/store/RMW is timed through the simulated
// cache hierarchy and network (with full back-pressure); non-memory work is
// accounted with compute().
//
// Timing model (lax synchronization, as in Graphite): each core keeps a
// local clock that advances synchronously through L1 hits and compute, and
// re-synchronizes with the global event clock on every miss, wait or
// periodic yield. Data itself lives in host memory, in blocks of the
// body's sim::AddressSpace (AppBody carries it to the Machine); each
// awaiter takes its simulated address from sim::Machine::translate, which
// finds the pointer's block in the space, numbers its granule by first
// touch, and refuses any pointer outside the space. A context holds no
// translation state of its own.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include "core/task.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace atacsim::core {

class CoreCtx {
 public:
  CoreCtx(sim::Machine& m, CoreId self)
      : machine_(&m),
        cache_(&m.cache(self)),
        counters_(&m.core_counters(self)),
        self_(self) {}

  CoreId id() const { return self_; }
  /// Optional trace capture (see sim/trace.hpp); null disables recording.
  void set_tracer(sim::TraceRecorder* t) { tracer_ = t; }
  int num_cores() const { return machine_->params().num_cores; }
  /// Core-local cycle count.
  Cycle now() const { return local_time_; }

  // --- awaitables -----------------------------------------------------

  /// Timed access to the line containing `p`. Loads need S, stores need M.
  auto access(const void* p, bool write) {
    return AccessAwaiter{this, machine_->translate(p, self_), write};
  }

  /// Typed load: timing via access(), value from host memory at commit.
  template <typename T>
  auto read(const T* p) {
    struct A : AccessAwaiter {
      T await_resume() const {
        AccessAwaiter::await_resume();
        return *static_cast<const T*>(ptr);
      }
    };
    return A{{this, machine_->translate(p, self_), false, p}};
  }

  /// Typed store.
  template <typename T>
  auto write(T* p, T v) {
    struct A : AccessAwaiter {
      T value;
      void await_resume() const {
        AccessAwaiter::await_resume();
        *static_cast<T*>(const_cast<void*>(ptr)) = value;
      }
    };
    return A{{this, machine_->translate(p, self_), true, p}, v};
  }

  /// Atomic read-modify-write: acquires exclusive ownership, then applies
  /// `f` to the old value; returns the old value.
  template <typename T, typename F>
  auto rmw(T* p, F f) {
    struct A : AccessAwaiter {
      F fn;
      T await_resume() const {
        AccessAwaiter::await_resume();
        T* tp = static_cast<T*>(const_cast<void*>(ptr));
        T old = *tp;
        *tp = fn(old);
        return old;
      }
    };
    return A{{this, machine_->translate(p, self_), true, p}, std::move(f)};
  }

  /// Advances the local clock by `n` instruction cycles (1 instr/cycle,
  /// in-order single-issue).
  auto compute(std::uint64_t n) { return ComputeAwaiter{this, n}; }

  /// Suspends until the cached line holding `p` is invalidated, demoted or
  /// evicted here (fires immediately if absent) — the primitive spin-waits
  /// are built on, so waiting burns no simulated traffic.
  auto wait_for_change(const void* p) {
    return WaitAwaiter{this, machine_->translate(p, self_)};
  }

  // --- internals -------------------------------------------------------

  // A suspended access or wait stores its handle in the awaiter (which
  // lives in the suspended coroutine's frame) and schedules one event at
  // the core's local time whose record points at the awaiter. That event
  // hands the cache this core's local clock as the completion slot: the
  // cache raises the clock to the commit cycle (stall cycles are not busy)
  // and resumes the handle from an event at that cycle (see
  // mem::Completion). The raise comes before the resume because GCC may run
  // an awaiter's await_resume late, after a later co_await in the same
  // expression has already suspended.

  struct AccessAwaiter {
    CoreCtx* c;
    Addr addr;
    bool is_write;
    const void* ptr = nullptr;
    bool suspended = false;
    std::coroutine_handle<> h{};

    bool await_ready() const {
      // Periodic forced yield bounds local-clock drift.
      if (c->tracer_) c->tracer_->record(c->self_, addr, is_write, c->local_time_);
      if ((++c->fast_ops_ & 1023u) == 0) return false;
      if (!c->cache_->fast_access(addr, is_write)) return false;
      c->advance(kL1HitCycles);
      ++c->counters_->instructions;
      return true;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      suspended = true;
      h = handle;
      c->machine_->events().schedule(c->local_time_, &AccessAwaiter::issue,
                                     this, 0);
    }
    static void issue(void* self, std::uint64_t) {
      auto* a = static_cast<AccessAwaiter*>(self);
      a->c->cache_->access(a->addr, a->is_write, {&a->c->local_time_, a->h});
    }
    void await_resume() const {
      if (suspended) ++c->counters_->instructions;
    }
  };

  struct ComputeAwaiter {
    CoreCtx* c;
    std::uint64_t n;
    bool await_ready() const {
      c->advance(n);
      c->counters_->instructions += n;
      return n < 4096;  // long compute phases yield to the event loop
    }
    void await_suspend(std::coroutine_handle<> h) const {
      c->machine_->events().schedule(c->local_time_, resume_coroutine,
                                     h.address(), 0);
    }
    void await_resume() const {}
  };

  struct WaitAwaiter {
    CoreCtx* c;
    Addr addr;
    std::coroutine_handle<> h{};
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> handle) {
      h = handle;
      c->machine_->events().schedule(c->local_time_, &WaitAwaiter::issue,
                                     this, 0);
    }
    static void issue(void* self, std::uint64_t) {
      auto* w = static_cast<WaitAwaiter*>(self);
      w->c->cache_->wait_for_change(w->addr, {&w->c->local_time_, w->h});
    }
    void await_resume() const {}
  };

 private:
  void advance(Cycle dt) {
    local_time_ += dt;
    counters_->busy_cycles += dt;
  }

  sim::Machine* machine_;
  mem::CacheController* cache_;
  CoreCounters* counters_;  ///< this core's slot in the Machine
  CoreId self_;
  Cycle local_time_ = 0;
  std::uint32_t fast_ops_ = 0;
  sim::TraceRecorder* tracer_ = nullptr;
};

/// An application kernel (one coroutine per simulated core) and the
/// address space its simulated data lives in. Any kernel callable converts
/// to a body with no space, which may not touch memory at all.
struct AppBody {
  template <typename F>
    requires std::is_invocable_r_v<Task, F&, CoreCtx&>
  AppBody(F k, const sim::AddressSpace* s = nullptr)
      : kernel(std::move(k)), space(s) {}

  std::function<Task(CoreCtx&)> kernel;
  const sim::AddressSpace* space;
};

}  // namespace atacsim::core
