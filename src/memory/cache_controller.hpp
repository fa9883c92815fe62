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
#include <vector>

#include "common/params.hpp"
#include "memory/cache_array.hpp"
#include "memory/line_table.hpp"
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
  // Scheduled events hold this controller's address.
  CacheController(const CacheController&) = delete;
  CacheController& operator=(const CacheController&) = delete;

  /// Core-side entry: performs a timed load/store of the line containing
  /// `addr` and completes into `done` when the access commits.
  void access(Addr addr, bool write, Completion done);

  /// Synchronous L1 fast path: on a hit, charges the access and returns
  /// true (the caller advances its local clock by the L1 hit latency and
  /// continues without suspending). On a miss nothing is charged — the
  /// caller must fall back to access(). With validation on, first raises a
  /// coherence violation if the L1-D copy's state differs from the L2's.
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
    void clear() {
      want_exclusive = false;
      clear_for_reuse(waiters);
      clear_for_reuse(buffered_bcast_invs);
    }
  };

  /// Opens the MSHR for `line` on `row` (a row of mshr_ holding its
  /// waiters), which makes this core a holder, and sends the ShReq or ExReq
  /// home.
  void open_mshr(Addr line, std::uint32_t row, bool exclusive);
  /// Validation probe: an L1-D copy of `line` must be in its L2 state.
  void check_l1_mirrors_l2(Addr line) const;
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
  /// Invalidates `m.line` here and acks as the protocol requires: at once,
  /// or with `delay_ack` one cycle later, through delayed_acks_.
  void process_inv(const CohMsg& m, bool delay_ack = false,
                   bool suppress_ack = false);
  /// Event handler: sends the oldest delayed ack of the controller `self`.
  static void send_delayed_ack(void* self, std::uint64_t);
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
  LineTable<Mshr> mshr_;
  /// The one wait_for_change in progress: its core's coroutine stays
  /// suspended on it, so a core never has two. kNoLine when none.
  static constexpr Addr kNoLine = ~Addr{0};
  Addr wait_line_ = kNoLine;
  Completion wait_done_{};
  /// Directory unicasts waiting for an earlier broadcast from their slice,
  /// in arrival order. Rarely more than a few.
  std::vector<CohMsg> deferred_;
  /// Unicasts bump_seq_and_release took from deferred_ and is handling. A
  /// handler may release more (the call re-enters), which go above and are
  /// gone again when it returns.
  std::vector<CohMsg> released_;
  /// Acks waiting one cycle, oldest at delayed_acks_[next_delayed_ack_].
  /// Every one is scheduled at now() + 1, so they are sent in the order
  /// they were queued.
  std::vector<CohMsg> delayed_acks_;
  std::size_t next_delayed_ack_ = 0;
  Cycle send_free_ = 0;
};

}  // namespace atacsim::mem
