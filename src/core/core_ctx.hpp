// Simulated-core execution context: the API application kernels program
// against. Every shared-memory load/store/RMW is timed through the simulated
// cache hierarchy and network (with full back-pressure); non-memory work is
// accounted with compute().
//
// Timing model (lax synchronization, as in Graphite): each core keeps a
// local clock that advances synchronously through L1 hits and compute, and
// re-synchronizes with the global event clock on every miss, wait or
// periodic yield. Data itself lives in host memory; simulated addresses are
// obtained by translating the host pointer through the machine's
// deterministic first-touch frame table (see sim::Machine::frame_for),
// with a small per-core direct-mapped TLB in front so the translation stays
// off the L1-hit fast path's critical cost.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>

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
    return AccessAwaiter{this, translate(p), write};
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
    return A{{this, translate(p), false, p}};
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
    return A{{this, translate(p), true, p}, v};
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
    return A{{this, translate(p), true, p}, std::move(f)};
  }

  /// Advances the local clock by `n` instruction cycles (1 instr/cycle,
  /// in-order single-issue).
  auto compute(std::uint64_t n) { return ComputeAwaiter{this, n}; }

  /// Suspends until the cached line holding `p` is invalidated, demoted or
  /// evicted here (fires immediately if absent) — the primitive spin-waits
  /// are built on, so waiting burns no simulated traffic.
  auto wait_for_change(const void* p) {
    return WaitAwaiter{this, translate(p)};
  }

  // --- internals -------------------------------------------------------

  // A suspended access or wait schedules one event at the core's local
  // time that captures only {awaiter, handle}. It hands the cache this
  // core's local clock as the completion slot: the cache raises the clock
  // to the commit cycle (stall cycles are not busy) and resumes the handle
  // from an event at that cycle (see mem::Completion). The raise comes
  // before the resume because GCC may run an awaiter's await_resume late,
  // after a later co_await in the same expression has already suspended.

  struct AccessAwaiter {
    CoreCtx* c;
    Addr addr;
    bool is_write;
    const void* ptr = nullptr;
    bool suspended = false;

    bool await_ready() const {
      // Periodic forced yield bounds local-clock drift.
      if (c->tracer_) c->tracer_->record(c->self_, addr, is_write, c->local_time_);
      if ((++c->fast_ops_ & 1023u) == 0) return false;
      if (!c->cache_->fast_access(addr, is_write)) return false;
      c->advance(kL1HitCycles);
      ++c->counters_->instructions;
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      suspended = true;
      c->machine_->events().schedule(c->local_time_, [this, h] {
        c->cache_->access(addr, is_write, {&c->local_time_, h});
      });
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
      c->machine_->events().schedule(c->local_time_, [h] { h.resume(); });
    }
    void await_resume() const {}
  };

  struct WaitAwaiter {
    CoreCtx* c;
    Addr addr;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      c->machine_->events().schedule(c->local_time_, [this, h] {
        c->cache_->wait_for_change(addr, {&c->local_time_, h});
      });
    }
    void await_resume() const {}
  };

 private:
  /// Host pointer -> deterministic simulated address (granule-level
  /// first-touch frames, per-core TLB; see sim::Machine::frame_for).
  Addr translate(const void* p) {
    constexpr int kGB = sim::Machine::kGranuleBits;
    const Addr host = reinterpret_cast<Addr>(p);
    const Addr granule = host >> kGB;
    TlbEntry& e = tlb_[granule & (kTlbEntries - 1)];
    if (e.host_granule != granule) {
      e.host_granule = granule;
      e.frame = machine_->frame_for(granule);
    }
    return (e.frame << kGB) | (host & ((Addr{1} << kGB) - 1));
  }

  void advance(Cycle dt) {
    local_time_ += dt;
    counters_->busy_cycles += dt;
  }

  static constexpr std::size_t kTlbEntries = 256;  // direct-mapped
  struct TlbEntry {
    Addr host_granule = ~Addr{0};
    Addr frame = 0;
  };

  sim::Machine* machine_;
  mem::CacheController* cache_;
  CoreCounters* counters_;  ///< this core's slot in the Machine
  CoreId self_;
  Cycle local_time_ = 0;
  std::uint32_t fast_ops_ = 0;
  sim::TraceRecorder* tracer_ = nullptr;
  TlbEntry tlb_[kTlbEntries];
};

/// Application kernel signature: one coroutine per simulated core.
using AppBody = std::function<Task<void>(CoreCtx&)>;

}  // namespace atacsim::core
