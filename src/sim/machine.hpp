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
  /// at a single pointer test.
  explicit Machine(const MachineParams& mp, obs::RunObserver* obs = nullptr);
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
  /// handler runs (via the event queue) at the delivery cycle, once per
  /// receiver for broadcasts. Returns the cycle at which the sender's port
  /// is free again (back-pressure; callers serialize their sends on it).
  Cycle send(Cycle t, const mem::CohMsg& m);

  /// A directory transaction on `line` at `slice` completed: with
  /// validation on (the live flag, so set_validation takes effect mid-run),
  /// cross-checks directory tracking against every cache.
  void txn_done(Addr line, HubId slice) {
    if (validate_) validate_coherence(line, slice);
  }

  /// Cores that hold a line (an L2 copy or an open MSHR). Each cache
  /// controller adds and removes itself as its state changes.
  HolderIndex& holders() { return holders_; }

  /// Sequence number of the last broadcast from `slice` that core `c` has
  /// processed (paper Sec. IV-C-1). One contiguous row per slice, so the
  /// receivers a broadcast skips update adjacent entries.
  std::uint16_t& bcast_seq(HubId slice, CoreId c) {
    return bcast_seq_[static_cast<std::size_t>(slice) *
                          static_cast<std::size_t>(mp_.num_cores) +
                      static_cast<std::size_t>(c)];
  }
  /// Marks whether core `c` has unicasts deferred behind a broadcast; a
  /// marked core runs the full handler of every broadcast, which releases
  /// the unicasts once their slice's sequence number catches up.
  void mark_deferred(CoreId c, bool deferred) {
    deferred ? set_core(deferred_marks_.data(), c)
             : clear_core(deferred_marks_.data(), c);
  }

  /// Seeded fault for the mutation tests: the next broadcast delivery to
  /// `c` is lost (no handler runs and it is not counted).
  void debug_drop_bcast_receiver(CoreId c) { debug_drop_ = c; }
  /// Seeded fault for the mutation tests: broadcast receivers with deferred
  /// unicasts are skipped like cores that hold nothing.
  void debug_ignore_deferred_marks() { debug_ignore_deferred_ = true; }

  /// Drains the event queue; returns false if the safety cycle limit hit.
  /// With an observer attached, samples the counters at every epoch
  /// boundary before the first event at or past it runs, and flushes the
  /// final partial epoch either way (drained or safety stop). Once drained
  /// with validation on, runs the end-of-run probes (flow conservation,
  /// channel ledger bounds, message delivery accounting).
  bool run(Cycle max_cycles = kNeverCycle);
  Cycle now() const { return events_.now(); }

  /// Opt-in cross-layer validation (src/check): per-transaction coherence
  /// probes, end-of-run flow/ledger/delivery probes, and the event queue's
  /// clock-monotonicity probe. Defaults to the ATACSIM_VALIDATE env flag.
  void set_validation(bool on) {
    validate_ = on;
    events_.set_validation(on);
  }
  bool validation() const { return validate_; }

  /// True if no coherence transaction or miss is outstanding anywhere —
  /// the quiescence invariant the integration tests assert.
  bool quiescent() const;

  /// Delivery events scheduled and not yet run (one per maximal run of a
  /// message's arrivals that share a cycle, in the network's order).
  std::size_t pending_deliveries() const { return deliveries_.in_use(); }
  /// Delivery records per slab page (see deliver_arrivals). Pages are
  /// small (5 KiB) because a 64-core machine rarely fills one.
  static constexpr std::size_t kDeliveriesPerPage = 128;

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
  /// Runs the receiving cache's or directory's handler for `m`.
  void receive(CoreId receiver, const mem::CohMsg& m);
  /// Delivers `m` to the receivers [first, last), in order. Under ACKwise a
  /// broadcast invalidation runs the full handler only at the cores that
  /// hold the line or have unicasts deferred; every other receiver only
  /// advances its sequence number for the slice.
  void receive_each(const mem::CohMsg& m, const CoreId* first,
                    const CoreId* last);
  /// Raises the kAddress violation for `p`, which lies outside the address
  /// space (or was touched by a body with none).
  [[noreturn]] void refuse_address(const void* p, CoreId core) const;
  /// With validation on: raises a coherence violation if the skipped
  /// receiver `c` holds anything the broadcast `m` must act on.
  void check_skipped(CoreId c, const mem::CohMsg& m);
  /// Consumes the debug_drop_bcast_receiver fault if it names `c`.
  bool dropped(CoreId c) {
    if (c != debug_drop_) return false;
    debug_drop_ = kInvalidCore;
    return true;
  }
  /// Schedules `receive` of `m` for every entry of arrivals_, one event
  /// per maximal run of consecutive entries that share a cycle.
  void deliver_arrivals(const mem::CohMsg& m);
  /// Event handler: runs the delivery in slot `slot` of deliveries_.
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
  EventQueue events_;
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

  /// A scheduled delivery: the message and its receivers. A lone receiver
  /// is stored inline; a run's `count` receivers fill a chain of chunks
  /// from `chunk` on.
  struct Delivery {
    mem::CohMsg msg;
    std::uint32_t count = 0;
    union {
      CoreId receiver;      // count == 1
      std::uint32_t chunk;  // count > 1
    };
  };
  /// A run's receivers, in delivery order, kChunkIds to a chunk.
  static constexpr std::uint32_t kChunkIds = 15;
  struct ReceiverChunk {
    CoreId ids[kChunkIds];
    std::uint32_t next;  ///< the chunk after this one, if any
  };
  Slab<Delivery, kDeliveriesPerPage> deliveries_;
  Slab<ReceiverChunk, 128> chunks_;

  HolderIndex holders_;
  std::vector<std::uint16_t> bcast_seq_;       // [slice][core]
  std::vector<std::uint64_t> deferred_marks_;  // set of cores
  CoreId debug_drop_ = kInvalidCore;
  bool debug_ignore_deferred_ = false;

  bool validate_ = check::env_validation_enabled();
  // Delivery accounting (always counted, so toggling set_validation mid-run
  // cannot skew the ledger): expected per message sent, observed per
  // handler run or broadcast receiver skipped.
  std::uint64_t expected_deliveries_ = 0;
  std::uint64_t observed_deliveries_ = 0;
};

}  // namespace atacsim::sim
