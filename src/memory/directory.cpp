#include "memory/directory.hpp"

#include <algorithm>
#include <cassert>

#include "sim/machine.hpp"

namespace atacsim::mem {
namespace {
// Directory tag/state access latency per handled message.
constexpr Cycle kDirAccessCycles = 2;

void no_op(void*, std::uint64_t) {}
}  // namespace

// ---------------------------------------------------------------------------
// SharerSet
// ---------------------------------------------------------------------------

void SharerSet::add(CoreId c) {
  if (global_) {
    ++count_;
    return;
  }
  if (std::find(ptrs_.begin(), ptrs_.end(), c) != ptrs_.end()) return;
  if (static_cast<int>(ptrs_.size()) < k_) {
    ptrs_.push_back(c);
    return;
  }
  // Overflow: set the global bit and replace the list with an exact count
  // (paper Sec. III-B).
  global_ = true;
  count_ = static_cast<int>(ptrs_.size()) + 1;
  ptrs_.clear();
}

bool SharerSet::remove(CoreId c) {
  if (global_) {
    if (count_ == 0) return false;
    --count_;
    return true;
  }
  auto it = std::find(ptrs_.begin(), ptrs_.end(), c);
  if (it == ptrs_.end()) return false;
  ptrs_.erase(it);
  return true;
}

bool SharerSet::contains(CoreId c) const {
  return !global_ &&
         std::find(ptrs_.begin(), ptrs_.end(), c) != ptrs_.end();
}

void SharerSet::clear() {
  global_ = false;
  count_ = 0;
  ptrs_.clear();
}

// ---------------------------------------------------------------------------
// MemController
// ---------------------------------------------------------------------------

MemController::MemController(EventQueue& events, MemCounters& counters,
                             const MachineParams& mp)
    : events_(events), counters_(counters), mp_(mp) {
  // 5 GB/s at 1 GHz = 5 B/cycle; a 64 B line serializes for ~13 cycles.
  const double bytes_per_cycle = mp.mem_bw_GBps_per_ctrl / kFreqGHz;
  line_cycles_ = static_cast<Cycle>(kLineBytes / bytes_per_cycle + 0.5);
  if (line_cycles_ == 0) line_cycles_ = 1;
}

Cycle MemController::request(bool write) {
  write ? ++counters_.dram_writes : ++counters_.dram_reads;
  const Cycle start = std::max(events_.now(), bw_free_);
  bw_free_ = start + line_cycles_;
  return start + line_cycles_ + mp_.mem_latency_cycles;
}

// ---------------------------------------------------------------------------
// DirectorySlice
// ---------------------------------------------------------------------------

DirectorySlice::DirectorySlice(HubId slice, CoreId self_core, sim::Machine& m)
    : slice_(slice),
      self_(self_core),
      machine_(m),
      dram_(m.events(), m.mem_counters(), m.params()) {}

// Making a row may grow dir_'s row array, which moves every LineInfo. Each
// handler takes a LineInfo& only for its own line, with this call, after
// which that line has a row; nothing a handler calls while it holds the
// reference makes a row for another line (send() and fetch_dram() only
// schedule events). Keep it so: a reference held across another line's
// first info() would dangle.
DirectorySlice::LineInfo& DirectorySlice::info(Addr line) {
  std::uint32_t row = dir_.find(line);
  if (row == dir_.kNone) {
    row = dir_.insert(line);
    dir_[row].sharers = SharerSet(machine_.params().num_hw_sharers);
  }
  return dir_[row];
}

CohMsg DirectorySlice::make(CohType t, Addr line, CoreId dst,
                            CoreId requester) const {
  CohMsg m;
  m.type = t;
  m.line = line;
  m.src = self_;
  m.dst = dst;
  m.requester = requester;
  m.seq = seq_;
  m.dir_slice = slice_;
  return m;
}

Cycle DirectorySlice::send(const CohMsg& m) {
  const Cycle t = std::max(machine_.now() + kDirAccessCycles, send_free_);
  send_free_ = machine_.send(t, m);
  return t;
}

void DirectorySlice::fetch_dram(Addr line) {
  assert(active_.contains(line));
  active_[active_.find(line)].dram_pending = true;
  machine_.events().schedule(dram_.request(/*write=*/false),
                             &DirectorySlice::dram_done, this, line);
}

void DirectorySlice::dram_done(void* self, std::uint64_t line) {
  // The data goes to whatever transaction is open on the line by now.
  auto& d = *static_cast<DirectorySlice*>(self);
  const std::uint32_t row = d.active_.find(line);
  if (row == d.active_.kNone) return;
  d.active_[row].dram_pending = false;
  d.active_[row].have_data = true;
  d.maybe_complete(line);
}

void DirectorySlice::write_back() {
  // Nothing waits on a write-back. The empty event at its commit cycle
  // keeps the drained clock (now() once the queue empties) from stopping
  // short of the DRAM write.
  machine_.events().schedule(dram_.request(/*write=*/true), no_op, nullptr,
                             0);
}

void DirectorySlice::start_txn(std::uint32_t row, const CohMsg& req) {
  ++machine_.mem_counters().dir_reads;
  LineInfo& li = info(req.line);
  // Nothing below acquires a row, so the reference stays valid.
  Txn& txn = active_[row];
  txn.restart();
  txn.req = req;

  if (li.state == LineState::kModified) {
    if (li.owner == req.requester) {
      // The owner lost the line to an eviction whose DirtyWb is still in
      // flight (it can reorder behind the re-request across networks).
      // Wait for the data to land; no flush needed.
      li.drop_owner();
      txn.expect_dirty_wb = true;
      maybe_complete(req.line);
      return;
    }
    txn.waiting_owner = true;
    const bool demote = (req.type == CohType::kShReq);
    send(make(demote ? CohType::kWbReq : CohType::kFlushReq, req.line,
              li.owner, req.requester));
    return;
  }

  if (req.type == CohType::kShReq || li.sharers.empty()) {
    // Shared request, or exclusive with no cached copies: data from the
    // home's clean-data buffer when valid, else from DRAM.
    if (li.data_valid) {
      txn.have_data = true;
      maybe_complete(req.line);
    } else {
      fetch_dram(req.line);
    }
    return;
  }

  // Exclusive request against shared copies: invalidate them. The sharers'
  // copies are clean, so the home's data buffer (or DRAM) supplies the line
  // ("fetched explicitly from main memory", Sec. IV-C-1); acknowledgements
  // stay short coherence messages.
  if (li.data_valid) txn.have_data = true;
  const bool ackwise = machine_.params().coherence == CoherenceKind::kAckwise;
  if (li.sharers.global()) {
    ++seq_;
    ++machine_.mem_counters().bcast_invalidations;
    CohMsg inv = make(CohType::kInvReq, req.line, kBroadcastCore,
                      req.requester);
    inv.seq = seq_;
    txn.pending_acks =
        ackwise ? li.sharers.count() : machine_.params().num_cores;
    send(inv);
  } else {
    txn.pending_acks = static_cast<int>(li.sharers.pointers().size());
    for (CoreId s : li.sharers.pointers()) {
      ++machine_.mem_counters().invalidations_sent;
      send(make(CohType::kInvReq, req.line, s, req.requester));
    }
  }
  if (txn.pending_acks == 0) maybe_complete(req.line);
}

void DirectorySlice::enqueue(Txn& txn, const CohMsg& req) {
  std::uint32_t q = free_queued_;
  if (q == kNoQueued) {
    q = static_cast<std::uint32_t>(queued_.size());
    queued_.push_back({req, kNoQueued});
  } else {
    free_queued_ = queued_[q].next;
    queued_[q] = {req, kNoQueued};
  }
  if (txn.last_queued == kNoQueued)
    txn.first_queued = q;
  else
    queued_[txn.last_queued].next = q;
  txn.last_queued = q;
}

void DirectorySlice::maybe_complete(Addr line) {
  assert(active_.contains(line));
  Txn& txn = active_[active_.find(line)];
  if (txn.waiting_owner || txn.pending_acks > 0) return;
  if (!txn.have_data) {
    // No acknowledgement carried the line. If a DirtyWb is known to be in
    // flight it will set have_data when it lands; otherwise the copies were
    // all clean (or never existed) and DRAM has the truth.
    if (!txn.dram_pending && !txn.expect_dirty_wb) fetch_dram(line);
    return;
  }
  complete(line);
}

void DirectorySlice::complete(Addr line) {
  assert(active_.contains(line));
  // The line's row stays in hand for the next queued request.
  const std::uint32_t row = active_.detach(line);
  const CohMsg req = active_[row].req;
  ++machine_.mem_counters().dir_writes;
  LineInfo& li = info(line);

  CohMsg rep = make(req.type == CohType::kShReq ? CohType::kShRep
                                                : CohType::kExRep,
                    line, req.requester, req.requester);
  rep.carries_data = true;
  if (req.type == CohType::kShReq) {
    li.state = LineState::kShared;
    li.owner = kInvalidCore;
    li.sharers.add(req.requester);
    li.data_valid = true;
  } else {
    li.sharers.clear();
    li.state = LineState::kModified;
    li.owner = req.requester;
    li.data_valid = false;  // the new owner will dirty it
  }
  send(rep);

  machine_.txn_done(line, slice_);

  // Serve the next queued request for this line immediately — leaving a
  // cycle gap would let a newly arriving request clobber the queued one's
  // transaction slot. It reopens the line on the same row, which keeps the
  // rest of the queue, before its transaction can complete.
  Txn& txn = active_[row];
  const std::uint32_t q = txn.first_queued;
  if (q == kNoQueued) {
    active_.release(row);
    return;
  }
  const CohMsg next = queued_[q].req;
  txn.first_queued = queued_[q].next;
  if (txn.first_queued == kNoQueued) txn.last_queued = kNoQueued;
  queued_[q].next = free_queued_;
  free_queued_ = q;
  active_.attach(line, row);
  start_txn(row, next);
}

void DirectorySlice::handle(const CohMsg& m) {
  switch (m.type) {
    case CohType::kShReq:
    case CohType::kExReq: {
      const std::uint32_t row = active_.find(m.line);
      if (row != active_.kNone) {
        enqueue(active_[row], m);
      } else {
        start_txn(active_.insert(m.line), m);
      }
      return;
    }
    case CohType::kEvictNotify: {
      ++machine_.mem_counters().dir_writes;
      LineInfo& li = info(m.line);
      const bool was_sharer = li.sharers.remove(m.src);
      const std::uint32_t row = active_.find(m.line);
      if (was_sharer && row != active_.kNone &&
          active_[row].pending_acks > 0) {
        // The eviction crossed an in-flight invalidation to this core; it
        // stands in for the acknowledgement (the core won't ack an absent
        // line under ACKwise).
        --active_[row].pending_acks;
        maybe_complete(m.line);
      }
      return;
    }
    case CohType::kDirtyWb: {
      ++machine_.mem_counters().dir_writes;
      LineInfo& li = info(m.line);
      // The line is committed to DRAM (and refreshes the home data buffer).
      li.data_valid = true;
      write_back();
      const std::uint32_t row = active_.find(m.line);
      if (row != active_.kNone) {
        Txn& txn = active_[row];
        txn.have_data = true;
        txn.expect_dirty_wb = false;
        if (li.owner == m.src) {
          // Crossed with our Flush/WbReq; the owner is gone.
          txn.waiting_owner = false;
          li.drop_owner();
        }
        maybe_complete(m.line);
      } else if (li.owner == m.src) {
        li.drop_owner();
      }
      return;
    }
    case CohType::kInvAck: {
      const std::uint32_t row = active_.find(m.line);
      assert(row != active_.kNone && "stray InvAck");
      if (row == active_.kNone) return;
      info(m.line).sharers.remove(m.src);
      Txn& txn = active_[row];
      --txn.pending_acks;
      if (m.carries_data) txn.have_data = true;
      maybe_complete(m.line);
      return;
    }
    case CohType::kFlushAck:
    case CohType::kWbAck: {
      const std::uint32_t row = active_.find(m.line);
      assert(row != active_.kNone && "stray owner ack");
      if (row == active_.kNone) return;
      Txn& txn = active_[row];
      txn.waiting_owner = false;
      LineInfo& li = info(m.line);
      if (m.carries_data) {
        txn.have_data = true;
        if (m.type == CohType::kWbAck) {
          // Owner demoted M->S and the dirty line was written back.
          li.data_valid = true;
          write_back();
          li.sharers.add(m.src);
          li.state = LineState::kShared;
          li.owner = kInvalidCore;
        } else {
          li.drop_owner();
        }
      } else {
        // The owner evicted; its DirtyWb is in flight and will deliver the
        // data. Do not fall back to DRAM (it is stale until the WB lands).
        txn.expect_dirty_wb = true;
        li.drop_owner();
      }
      maybe_complete(m.line);
      return;
    }
    default:
      assert(false && "unexpected message at directory");
  }
}

DirectorySlice::LineProbe DirectorySlice::probe_line(Addr line) const {
  LineProbe p;
  const std::uint32_t row = dir_.find(line);
  if (row == dir_.kNone) return p;
  const LineInfo& li = dir_[row];
  p.state = li.state;
  p.owner = li.owner;
  p.global = li.sharers.global();
  p.count = li.sharers.count();
  p.ptrs = li.sharers.pointers();
  return p;
}

void DirectorySlice::debug_corrupt_forget_line(Addr line) {
  const std::uint32_t row = dir_.find(line);
  if (row == dir_.kNone) return;
  dir_[row].sharers.clear();
  dir_[row].drop_owner();
}

}  // namespace atacsim::mem

