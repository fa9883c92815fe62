// The Machine: wires the event queue, the selected network model, the
// per-core cache controllers and the per-cluster directory slices (with
// co-located memory controllers) into one simulated chip. Caches and
// directories hold a reference to the Machine that builds them and call it
// directly for the clock, the event queue, the counters and the network.
//
// This is the memory-system view of the machine; `core/` layers coroutine
// execution contexts and the synchronization library on top. It also owns
// the one map from host pointers to simulated addresses (translate); the
// execution contexts keep no copy of it. The data those pointers reach is
// owned by the running body's sim::AddressSpace.
#pragma once

#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "common/params.hpp"
#include "memory/cache_controller.hpp"
#include "memory/directory.hpp"
#include "network/atac_model.hpp"
#include "sim/address_space.hpp"
#include "sim/event_queue.hpp"
#include "sim/holder_index.hpp"
#include "sim/slab.hpp"

namespace atacsim::obs {
class RunObserver;
}

namespace atacsim::sim {

class Machine {
 public:
  /// `obs` (optional, not owned, must outlive the machine) arms telemetry:
  /// counter sampling at every epoch boundary run() crosses plus latency
  /// recording in the network and memory layers. Null keeps every hot path
  /// at a single pointer test. `validate` arms the cross-layer probes of
  /// src/check for the machine's life: per-transaction coherence probes,
  /// the check of every broadcast receiver that runs no handler against an
  /// eager mirror of the lazy sequence numbers, end-of-run flow, ledger and
  /// delivery probes, and the event queue's clock-monotonicity probe.
  explicit Machine(const MachineParams& mp, obs::RunObserver* obs = nullptr,
                   bool validate = check::env_validation_enabled());
  // Caches and directories hold this Machine's address.
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  EventQueue& events() { return events_; }
  const MachineParams& params() const { return mp_; }
  const net::MeshGeom& geom() const { return geom_; }

  mem::CacheController& cache(CoreId c) {
    return *caches_[static_cast<std::size_t>(c)];
  }
  mem::DirectorySlice& directory(HubId s) {
    return *dirs_[static_cast<std::size_t>(s)];
  }
  /// The directory slice that is home to `line`: lines interleave across
  /// the slices, one per cluster, whose core is geom().hub_core(slice).
  HubId home_slice(Addr line) const {
    return static_cast<HubId>((line / kLineBytes) %
                              static_cast<Addr>(geom_.num_clusters()));
  }

  net::NetworkModel& network() { return *net_; }
  /// Non-null when the machine runs the ATAC+ network.
  net::AtacModel* atac() {
    return dynamic_cast<net::AtacModel*>(net_.get());
  }

  NetCounters& net_counters() { return net_->counters(); }
  MemCounters& mem_counters() { return mem_counters_; }
  /// Per-core instruction and busy-cycle counts; each core's execution
  /// context increments its own slot.
  CoreCounters& core_counters(CoreId c) {
    return core_counters_[static_cast<std::size_t>(c)];
  }
  const std::vector<CoreCounters>& core_counters() const {
    return core_counters_;
  }
  /// Telemetry observer, or null when telemetry is off.
  obs::RunObserver* observer() const { return obs_; }

  /// Sends `m` into the network no earlier than cycle `t`. The receiver's
  /// handler runs (via the event queue) at the delivery cycle, at every
  /// receiver that acts on it for broadcasts (see bcast_seq). Returns the
  /// cycle at which the sender's port is free again (back-pressure; callers
  /// serialize their sends on it).
  Cycle send(Cycle t, const mem::CohMsg& m);

  /// A directory transaction on `line` at `slice` completed: with
  /// validation on, cross-checks directory tracking against every cache.
  void txn_done(Addr line, HubId slice) {
    if (validate_) validate_coherence(line, slice);
  }

  /// Cores that hold a line (an L2 copy or an open MSHR). A cache controller
  /// joins through add_holder and removes itself as its state changes.
  HolderIndex& holders() { return holders_; }
  /// Core `c` starts to hold `line` (it opens an MSHR for it): adds it to
  /// the holder index and gives `c`'s run of every in-flight broadcast of
  /// the line that has not reached it yet an event.
  void add_holder(Addr line, CoreId c);

  /// Sequence number of the last broadcast from `slice` that core `c` has
  /// processed (paper Sec. IV-C-1). Under ACKwise most receivers of a
  /// broadcast invalidation act on nothing, and no event runs for them: the
  /// number is worked out when it is read, as the stored row advanced by
  /// every in-flight broadcast from `slice` whose run for `c` has passed
  /// (EventQueue::passed). A broadcast folds itself into the row at the end
  /// of its last run, which always has an event.
  std::uint16_t bcast_seq(HubId slice, CoreId c) const;
  /// Core `c` has processed broadcast `seq` from `slice`: advances its
  /// number (mem::advance_seq).
  void advance_bcast_seq(HubId slice, CoreId c, std::uint16_t seq);
  /// Marks whether core `c` has unicasts from `slice` deferred behind one
  /// of the slice's broadcasts. A marked core runs the full handler of the
  /// slice's broadcasts, which releases the unicasts once the core's number
  /// for the slice catches up; at any other core that holds nothing the
  /// handler of a broadcast would only advance the number. Marking an
  /// unmarked core gives its run of every in-flight broadcast from `slice`
  /// that has not reached it yet an event; a broadcast sent while the mark
  /// holds schedules the core's run itself.
  void mark_deferred(CoreId c, HubId slice, bool deferred) {
    std::uint64_t* marks = deferred_marks(slice);
    if (!deferred) {
      clear_core(marks, c);
    } else if (!has_core(marks, c)) {
      set_core(marks, c);
      for (Broadcast* b : in_flight_[static_cast<std::size_t>(slice)])
        schedule_pending_run(*b, c);
    }
  }

  /// Seeded fault for the mutation tests: the next broadcast delivery to
  /// `c` is lost (no handler runs and it is not counted). Its run of every
  /// in-flight broadcast gets an event, where the loss can happen.
  void debug_drop_bcast_receiver(CoreId c) {
    debug_drop_ = c;
    for (const std::vector<Broadcast*>& sent : in_flight_)
      for (Broadcast* b : sent) schedule_pending_run(*b, c);
  }

  /// Drains the event queue; returns false if the safety cycle limit hit.
  /// With an observer attached, samples the counters at every epoch
  /// boundary before the first event at or past it runs, and flushes the
  /// final partial epoch either way (drained or safety stop). Once drained
  /// with validation on, runs the end-of-run probes (flow conservation,
  /// channel ledger bounds, message delivery accounting).
  bool run(Cycle max_cycles = kNeverCycle);
  Cycle now() const { return events_.now(); }
  /// True if the machine was built with validation (see the constructor).
  bool validation() const { return validate_; }

  /// True if no coherence transaction or miss is outstanding anywhere —
  /// the quiescence invariant the integration tests assert.
  bool quiescent() const;

  /// Delivery events scheduled and not yet run: one per unicast, and one
  /// per run of a broadcast's receivers that has an event (see send).
  std::size_t pending_deliveries() const {
    return deliveries_.in_use() + pending_runs_;
  }
  /// Unicast delivery records per slab page. Pages are small (5 KiB)
  /// because a 64-core machine rarely fills one.
  static constexpr std::size_t kDeliveriesPerPage = 128;

  /// Host-side counts of broadcast delivery (self-profile only): runs of
  /// equal arrival cycles reserved, runs given an event at send because a
  /// receiver in them acted or the run is the broadcast's last, and runs
  /// given one later by add_holder, mark_deferred or
  /// debug_drop_bcast_receiver.
  std::uint64_t bcast_runs_reserved() const { return runs_reserved_; }
  std::uint64_t bcast_runs_scheduled() const { return runs_scheduled_; }
  std::uint64_t bcast_late_inserts() const { return late_inserts_; }

  /// The address space the running body's data lives in (not owned; null
  /// for a body that touches no memory). translate refuses every pointer
  /// outside it. A different space starts an empty frame table.
  void set_address_space(const AddressSpace* space) {
    if (space != space_) frames_.clear();
    space_ = space;
  }

  /// The simulated address of host pointer `p`, accessed by core `core`:
  /// the only translation of application data. A pointer outside the
  /// address space raises a kAddress violation, with or without validation.
  ///
  /// Kernels address simulated memory with host pointers, but raw host
  /// addresses are hidden shared state: the allocator hands out different
  /// layouts run to run (and under concurrent Machines on worker threads),
  /// which would silently change cache sets, home slices and therefore
  /// every counter. Instead each machine assigns frames in first-touch
  /// order — a function only of the (deterministic) simulation itself — so
  /// a given program and seed produce bit-identical results serially,
  /// repeatedly, and on any number of threads.
  ///
  /// The granule is 16 bytes: the alignment of every AddressSpace block
  /// (malloc's), so every block starts on a granule boundary and the
  /// grouping of data within a granule is fixed by struct layout alone —
  /// not by where the allocator happened to place the block relative to a
  /// cache line. Inline: it runs on every simulated access.
  Addr translate(const void* p, CoreId core = kInvalidCore) {
    constexpr Addr kGranule = AddressSpace::kGranule;
    const AddressSpace::Region* r = space_ ? space_->find(p) : nullptr;
    if (!r) refuse_address(p, core);
    const Addr off = reinterpret_cast<Addr>(p) - r->begin;
    const std::size_t g = r->first_granule + off / kGranule;
    if (g >= frames_.size()) frames_.resize(space_->granules());
    if (frames_[g] == 0) frames_[g] = next_frame_++;
    return Addr{frames_[g]} * kGranule + off % kGranule;
  }

 private:
  /// A maximal run of consecutive equal arrival cycles in a broadcast's
  /// list. Run r holds the event-queue slot first_seq + r.
  /// A run that is not scheduled has an event only with validation on: a
  /// probe.
  struct Run {
    Cycle at;             ///< arrival cycle of its receivers
    std::uint32_t first;  ///< its first receiver's index in `receivers`
    bool scheduled;       ///< has an event that runs its actors' handlers
  };
  /// A broadcast in flight: one per broadcast sent whose last run has not
  /// run, in a pool of reused records (see send). Core ids and run numbers
  /// fit 16 bits: MachineParams allows at most 65,536 cores.
  struct Broadcast {
    mem::CohMsg msg;
    std::vector<std::uint16_t> receivers;  ///< in the network's order
    std::vector<Run> runs;                 ///< in list order
    std::vector<std::uint16_t> run_of;     ///< each core's run, by core id
    std::uint64_t first_seq;  ///< the slot of run 0
    Cycle first_at;           ///< the earliest arrival cycle
    std::uint32_t last;       ///< the run that runs last, always scheduled
    std::uint32_t slot;       ///< in bcasts_
    CoreId dropped;  ///< the receiver debug_drop_bcast_receiver took, if any
    std::uint32_t handled;  ///< receivers that ran a handler or were dropped
    bool every_receiver_acts;  ///< not an ACKwise invalidation
  };

  /// Runs the receiving cache's or directory's handler for `m`.
  void receive(CoreId receiver, const mem::CohMsg& m);
  /// The broadcast half of send: records `m` with its receivers in
  /// arrivals_, reserves a slot per run and schedules the runs that act.
  void send_broadcast(const mem::CohMsg& m);
  /// Event handler: runs the run `arg & 0xffffffff` of the broadcast in
  /// slot `arg >> 32` of bcasts_.
  static void deliver_run(void* self, std::uint64_t arg);
  /// Gives core `c`'s run of the broadcast `b` an event that runs its
  /// actors' handlers, unless it has one or is not ahead.
  void schedule_pending_run(Broadcast& b, CoreId c);
  /// At the end of its last run: folds the broadcast `b` into the stored
  /// sequence numbers, counts its receivers that ran no handler, and frees
  /// it.
  void retire(const Broadcast& b);
  /// With validation on: raises a coherence violation if `lazy`, the
  /// number bcast_seq worked out for core `c` and `slice`, differs from the
  /// one kept eagerly.
  void check_lazy_seq(HubId slice, CoreId c, std::uint16_t lazy) const;
  /// Raises the kAddress violation for `p`, which lies outside the address
  /// space (or was touched by a body with none).
  [[noreturn]] void refuse_address(const void* p, CoreId core) const;
  /// With validation on, at a receiver `c` of the broadcast `m` that runs
  /// no handler: raises a coherence violation if `c` acts on `m` (`acts`;
  /// its run's event is then a probe, since nothing gave the run one that
  /// runs handlers) or holds anything `m` must act on.
  void check_receiver(CoreId c, const mem::CohMsg& m, bool acts) const;
  /// Consumes the debug_drop_bcast_receiver fault if it names `c`.
  bool dropped(CoreId c) {
    if (c != debug_drop_) return false;
    debug_drop_ = kInvalidCore;
    return true;
  }
  /// Event handler: runs the unicast delivery in slot `slot` of
  /// deliveries_.
  static void deliver(void* self, std::uint64_t slot);

  /// Coherence probe after a directory transaction on `line` at `slice`.
  void validate_coherence(Addr line, HubId slice);
  /// End-of-run probes, fired when run() drains with validation on.
  void validate_run();

  /// Telemetry: hands the counters and channel busy cycles at `at` to the
  /// observer; `last` flushes the final epoch.
  void sample_obs(Cycle at, bool last);

  MachineParams mp_;
  // Built first: make_network validates the parameters every other member
  // is sized from.
  std::unique_ptr<net::NetworkModel> net_;
  net::MeshGeom geom_;
  obs::RunObserver* obs_ = nullptr;
  const bool validate_;
  EventQueue events_;  ///< built from validate_
  MemCounters mem_counters_;
  std::vector<CoreCounters> core_counters_;
  std::vector<std::unique_ptr<mem::CacheController>> caches_;
  std::vector<std::unique_ptr<mem::DirectorySlice>> dirs_;
  const AddressSpace* space_ = nullptr;
  std::vector<std::uint32_t> frames_;  ///< by granule number; 0 = untouched
  // Frame numbers start away from 0 so no translated line lands on the
  // (often special-cased) zero address.
  std::uint32_t next_frame_ = 16;

  /// One message's receptions as the network reports them, plus a
  /// broadcast's loopback. Reused across sends.
  std::vector<net::Arrival> arrivals_;

  /// A scheduled unicast delivery: the message and its receiver.
  struct Delivery {
    mem::CohMsg msg;
    CoreId receiver;
  };
  Slab<Delivery, kDeliveriesPerPage> deliveries_;
  Slab<Broadcast, 32> bcasts_;
  /// The broadcasts in flight, one list per sending slice in send order.
  /// Slab records never move, so the pointers stay valid until retire.
  std::vector<std::vector<Broadcast*>> in_flight_;
  std::size_t pending_runs_ = 0;          ///< run events queued, not yet run
  std::uint64_t runs_reserved_ = 0;
  std::uint64_t runs_scheduled_ = 0;
  std::uint64_t late_inserts_ = 0;

  HolderIndex holders_;
  std::vector<std::uint16_t> bcast_seq_;       // [slice][core], stored part
  std::vector<std::uint64_t> deferred_marks_;  // [slice] set of cores
  std::uint64_t* deferred_marks(HubId slice) {
    return &deferred_marks_[static_cast<std::size_t>(slice) *
                            holders_.words()];
  }
  CoreId debug_drop_ = kInvalidCore;

  /// With validation on (empty otherwise), the sequence numbers kept
  /// eagerly, as one event per run would: each probe advances its run's
  /// receivers that ran no handler, and advance_bcast_seq the rest.
  std::vector<std::uint16_t> eager_seq_;
  // Delivery accounting: expected per message sent, observed per handler
  // run or broadcast receiver skipped.
  std::uint64_t expected_deliveries_ = 0;
  std::uint64_t observed_deliveries_ = 0;
};

}  // namespace atacsim::sim
