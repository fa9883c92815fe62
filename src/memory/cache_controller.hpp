// Per-core cache controller: L1-D timing filter + private L2 with MSHRs,
// the cache side of the ACKwise_k / Dir_kB directory protocol, and the
// sequence-number reordering buffers of paper Sec. IV-C-1. The per-slice
// sequence numbers and the holder index live in the Machine, which skips
// broadcast receivers that hold nothing.
//
// The L1-D is modelled as a write-through subset of the L2: it adds the
// single-cycle hit path and its own access energy; all coherence state lives
// at L2 granularity. Application data itself lives in host memory — the
// controller tracks presence/permission/timing only.
#pragma once

#include <coroutine>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/params.hpp"
#include "memory/cache_array.hpp"
#include "memory/protocol.hpp"

namespace atacsim::sim {
class Machine;
}

namespace atacsim::mem {

/// Where a timed access or wait completes into. At commit the cache raises
/// `*at` to the commit cycle, then schedules one event at that cycle which
/// resumes `resume` if it is set. A core passes its own local clock; callers
/// without a coroutine leave `resume` empty and read `*at` once the queue
/// drains. `*at` must stay valid until the access commits.
struct Completion {
  Cycle* at;
  std::coroutine_handle<> resume;
};

class CacheController {
 public:
  /// Talks to the world through `m` — its event queue, clock, counters,
  /// home slices and network — which owns this controller and outlives it.
  CacheController(CoreId self, sim::Machine& m);

  /// Core-side entry: performs a timed load/store of the line containing
  /// `addr` and completes into `done` when the access commits.
  void access(Addr addr, bool write, Completion done);

  /// Synchronous L1 fast path: on a hit, charges the access and returns
  /// true (the caller advances its local clock by the L1 hit latency and
  /// continues without suspending). On a miss nothing is charged — the
  /// caller must fall back to access().
  bool fast_access(Addr addr, bool write);

  /// Completes into `done` one cycle after the line holding `addr` is next
  /// invalidated, demoted or evicted at this core — the invalidation-wakeup
  /// primitive the sync library builds spin-wait on. Completes at once if
  /// the line is absent.
  void wait_for_change(Addr addr, Completion done);

  /// Network-side entry: a coherence message addressed to this cache.
  void handle(const CohMsg& m);

  CoreId self() const { return self_; }
  const CacheArray& l2() const { return l2_; }

  /// Number of in-flight misses (testing / liveness checks).
  std::size_t outstanding_misses() const { return mshr_.size(); }

  /// What this core holds that a broadcast invalidation of `line` from
  /// `slice` must act on — "an L2 copy", "an MSHR" or "a deferred unicast"
  /// from the slice — or null if nothing. Looks at the cache itself (the
  /// validation layer's truth for the Machine's holder index).
  const char* holding(Addr line, HubId slice) const;

  /// Diagnostics: lines with outstanding misses.
  struct CacheDebug {
    std::vector<Addr> mshr_lines;
  };
  CacheDebug debug_state() const {
    CacheDebug d;
    for (const auto& [line, e] : mshr_) {
      (void)e;
      d.mshr_lines.push_back(line);
    }
    return d;
  }

 private:
  struct Waiter {
    bool write;
    Completion done;
    /// Cycle the core issued the access; telemetry's memory-latency
    /// histograms measure completion - issued. Write-upgrade retries keep
    /// the original issue time so the histogram sees the end-to-end
    /// latency, not just the upgrade leg.
    Cycle issued = 0;
  };
  struct BufferedInv {
    CohMsg msg;
    bool already_acked = false;  ///< Dir_kB acks at buffer time (see handle())
  };
  struct Mshr {
    bool want_exclusive = false;
    std::vector<Waiter> waiters;
    std::vector<BufferedInv> buffered_bcast_invs;  // early broadcast invs
  };

  /// Opens the MSHR for `line`, which makes this core a holder, and sends
  /// the ShReq or ExReq home.
  void open_mshr(Addr line, bool exclusive, std::vector<Waiter> waiters);
  void fill(const CohMsg& rep);
  void evict(Addr line, LineState state);
  /// `line` left the L2: the L1 copy goes, change waiters wake, and this
  /// core stops holding the line unless an MSHR for it is still open (an
  /// upgrade in flight).
  void lost_line(Addr line);
  /// A message from this cache to `line`'s home slice. Only requests name
  /// a requester.
  CohMsg to_home(CohType type, Addr line) const;
  /// This cache's answer of `type` to the directory message `m`.
  CohMsg reply(const CohMsg& m, CohType type, bool carries_data) const;
  void process_inv(const CohMsg& m, Cycle extra_delay = 0,
                   bool suppress_ack = false);
  void process_unicast_from_dir(const CohMsg& m);
  void handle_flush(const CohMsg& m);
  void handle_wb(const CohMsg& m);
  void notify_change(Addr line);
  /// Raises `*done.at` to `t` and schedules the resume event at `t`.
  void complete(Completion done, Cycle t);
  Cycle send(const CohMsg& m);
  void bump_seq_and_release(HubId slice, std::uint16_t seq);

  CoreId self_;
  sim::Machine& machine_;
  CacheArray l1d_;
  CacheArray l2_;
  std::unordered_map<Addr, Mshr> mshr_;
  std::unordered_map<Addr, std::vector<Completion>> change_waiters_;
  /// Directory unicasts waiting for an earlier broadcast from their slice,
  /// in arrival order. Rarely more than a few.
  std::vector<CohMsg> deferred_;
  Cycle send_free_ = 0;
};

}  // namespace atacsim::mem
