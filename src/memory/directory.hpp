// Directory slice: home-node coherence engine implementing ACKwise_k and
// Dir_kB sharer tracking, per-line transaction serialization, broadcast
// sequence numbers, and the co-located memory controller (paper: one
// directory slice + one memory controller per cluster, at the hub tile).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/counters.hpp"
#include "common/params.hpp"
#include "memory/cache_array.hpp"
#include "memory/line_table.hpp"
#include "memory/protocol.hpp"

namespace atacsim {
class EventQueue;
}
namespace atacsim::sim {
class Machine;
}

namespace atacsim::mem {

/// Sharer set with the ACKwise_k "global bit + exact count" overflow scheme
/// (Dir_kB overflows to global with count pinned to "everyone").
class SharerSet {
 public:
  explicit SharerSet(int k) : k_(k) {}

  void add(CoreId c);
  /// Removes `c`; returns true if it was (or, under the global bit, is
  /// assumed to have been) a tracked sharer.
  bool remove(CoreId c);
  bool contains(CoreId c) const;  // only meaningful when !global
  bool global() const { return global_; }
  int count() const { return global_ ? count_ : static_cast<int>(ptrs_.size()); }
  bool empty() const { return count() == 0; }
  const std::vector<CoreId>& pointers() const { return ptrs_; }
  void clear();

 private:
  int k_;
  bool global_ = false;
  int count_ = 0;  // exact count while global (maintained by evict notifies)
  std::vector<CoreId> ptrs_;
};

/// The co-located DRAM interface: 100 ns latency behind a 5 GB/s
/// serialization channel (Table I).
class MemController {
 public:
  MemController(EventQueue& events, MemCounters& counters,
                const MachineParams& mp);
  /// Fetch or write back one line; returns the cycle the data is available
  /// (fetch) or committed (write-back).
  Cycle request(bool write);

 private:
  EventQueue& events_;
  MemCounters& counters_;
  const MachineParams& mp_;
  Cycle bw_free_ = 0;  // when the serialization channel is next free
  Cycle line_cycles_;
};

class DirectorySlice {
 public:
  /// `m` owns this slice and outlives it; see CacheController.
  DirectorySlice(HubId slice, CoreId self_core, sim::Machine& m);
  // Scheduled events hold this slice's address.
  DirectorySlice(const DirectorySlice&) = delete;
  DirectorySlice& operator=(const DirectorySlice&) = delete;

  /// Network-side entry for every message addressed to this slice.
  void handle(const CohMsg& m);

  std::size_t active_transactions() const { return active_.size(); }

  /// Directory-side snapshot of one line for the validation layer
  /// (src/check): everything the coherence probe needs to compare tracked
  /// state against the caches.
  struct LineProbe {
    LineState state = LineState::kInvalid;
    CoreId owner = kInvalidCore;
    bool global = false;     ///< broadcast bit set (sharers untracked)
    int count = 0;           ///< exact sharer count while global
    std::vector<CoreId> ptrs;

    /// True when the directory accounts for a copy at `c`.
    bool covers(CoreId c) const {
      return global || c == owner ||
             std::find(ptrs.begin(), ptrs.end(), c) != ptrs.end();
    }
  };
  /// Snapshot of `line` as this slice tracks it (Invalid default state if
  /// the line was never touched here).
  LineProbe probe_line(Addr line) const;

  /// Fault injection for the checker's mutation tests: makes the directory
  /// forget every tracked copy of `line` (sharers, owner, state) without
  /// telling the caches — the next transaction on the line then exposes an
  /// untracked sharer, which the coherence probe must catch. Never called
  /// outside tests.
  void debug_corrupt_forget_line(Addr line);

 private:
  struct LineInfo {
    LineState state = LineState::kInvalid;
    CoreId owner = kInvalidCore;
    /// Clean copy of the line is available at the home (directory data
    /// buffer / DRAM row buffer): shared-state fills need no DRAM access.
    bool data_valid = false;
    SharerSet sharers{0};  // info() gives a new line the slice's k
    /// No core owns the line any more.
    void drop_owner() {
      owner = kInvalidCore;
      state = LineState::kInvalid;
    }
  };
  /// No entry of queued_.
  static constexpr std::uint32_t kNoQueued = ~std::uint32_t{0};
  struct Txn {
    CohMsg req;
    int pending_acks = 0;
    bool waiting_owner = false;
    bool have_data = false;
    bool dram_pending = false;
    /// A DirtyWb is known to be in flight; wait for it instead of fetching
    /// stale data from DRAM.
    bool expect_dirty_wb = false;
    /// Later requests for the line, in arrival order: the first and last
    /// entries of its queue in queued_. Each starts the next transaction
    /// when the one before it completes.
    std::uint32_t first_queued = kNoQueued;
    std::uint32_t last_queued = kNoQueued;

    /// A new transaction's state, except that the queue stays as it is.
    void restart() {
      pending_acks = 0;
      waiting_owner = have_data = dram_pending = expect_dirty_wb = false;
    }
    void clear() {
      restart();
      first_queued = last_queued = kNoQueued;
    }
  };
  /// One request queued behind an open transaction on its line, and the
  /// next one queued there (or the next free entry).
  struct Queued {
    CohMsg req;
    std::uint32_t next;
  };

  /// The line's row in dir_, made on first use. The reference is valid
  /// until the next line is made.
  LineInfo& info(Addr line);
  /// Starts the transaction for `req` on `row`, a row of active_ open for
  /// the line, keeping the row's queue.
  void start_txn(std::uint32_t row, const CohMsg& req);
  /// Queues `req` behind `txn`, the line's open transaction.
  void enqueue(Txn& txn, const CohMsg& req);
  void maybe_complete(Addr line);
  void complete(Addr line);
  void fetch_dram(Addr line);
  /// Event handler: the DRAM fetch for the line `line` at slice `self`
  /// returned.
  static void dram_done(void* self, std::uint64_t line);
  void write_back();
  Cycle send(const CohMsg& m);
  CohMsg make(CohType t, Addr line, CoreId dst, CoreId requester) const;

  HubId slice_;
  CoreId self_;
  sim::Machine& machine_;
  MemController dram_;
  LineTable<LineInfo> dir_;  // every line seen here; rows never released
  LineTable<Txn> active_;
  /// Every transaction's queue, each a linked list through this pool. A
  /// served entry goes on the free list, so the pool grows only to the most
  /// requests the slice has held queued at once, and queuing allocates
  /// nothing after that.
  std::vector<Queued> queued_;
  std::uint32_t free_queued_ = kNoQueued;
  std::uint16_t seq_ = 0;
  Cycle send_free_ = 0;
};

}  // namespace atacsim::mem
