#include "memory/directory.hpp"

#include <algorithm>
#include <cassert>

#include "sim/machine.hpp"

namespace atacsim::mem {
namespace {
// Directory tag/state access latency per handled message.
constexpr Cycle kDirAccessCycles = 2;
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
  const Cycle start = bw_.acquire(events_.now(), line_cycles_);
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

DirectorySlice::LineInfo& DirectorySlice::info(Addr line) {
  auto it = dir_.find(line);
  if (it == dir_.end())
    it = dir_.emplace(line, LineInfo(machine_.params().num_hw_sharers)).first;
  return it->second;
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
  Txn& txn = active_.at(line);
  txn.dram_pending = true;
  machine_.events().schedule(dram_.request(/*write=*/false), [this, line] {
    auto it = active_.find(line);
    if (it == active_.end()) return;
    it->second.dram_pending = false;
    it->second.have_data = true;
    maybe_complete(line);
  });
}

void DirectorySlice::write_back() {
  // Nothing waits on a write-back. The empty event at its commit cycle
  // keeps the drained clock (now() once the queue empties) from stopping
  // short of the DRAM write.
  machine_.events().schedule(dram_.request(/*write=*/true), [] {});
}

void DirectorySlice::start_txn(const CohMsg& req,
                               std::vector<CohMsg> waiting) {
  ++machine_.mem_counters().dir_reads;
  LineInfo& li = info(req.line);
  Txn& txn = active_[req.line];
  txn.req = req;
  txn.waiting = std::move(waiting);

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

void DirectorySlice::maybe_complete(Addr line) {
  Txn& txn = active_.at(line);
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
  Txn txn = std::move(active_.at(line));
  active_.erase(line);
  ++machine_.mem_counters().dir_writes;
  LineInfo& li = info(line);

  CohMsg rep = make(txn.req.type == CohType::kShReq ? CohType::kShRep
                                                    : CohType::kExRep,
                    line, txn.req.requester, txn.req.requester);
  rep.carries_data = true;
  if (txn.req.type == CohType::kShReq) {
    li.state = LineState::kShared;
    li.owner = kInvalidCore;
    li.sharers.add(txn.req.requester);
    li.data_valid = true;
  } else {
    li.sharers.clear();
    li.state = LineState::kModified;
    li.owner = txn.req.requester;
    li.data_valid = false;  // the new owner will dirty it
  }
  send(rep);

  machine_.txn_done(line, slice_);

  // Serve the next queued request for this line immediately — leaving a
  // cycle gap would let a newly arriving request clobber the queued one's
  // transaction slot. The rest of the queue moves with it, before its
  // transaction can complete.
  if (!txn.waiting.empty()) {
    const CohMsg next = txn.waiting.front();
    txn.waiting.erase(txn.waiting.begin());
    start_txn(next, std::move(txn.waiting));
  }
}

void DirectorySlice::handle(const CohMsg& m) {
  switch (m.type) {
    case CohType::kShReq:
    case CohType::kExReq: {
      const auto it = active_.find(m.line);
      if (it != active_.end()) {
        it->second.waiting.push_back(m);
      } else {
        start_txn(m);
      }
      return;
    }
    case CohType::kEvictNotify: {
      ++machine_.mem_counters().dir_writes;
      LineInfo& li = info(m.line);
      const bool was_sharer = li.sharers.remove(m.src);
      auto it = active_.find(m.line);
      if (was_sharer && it != active_.end() && it->second.pending_acks > 0) {
        // The eviction crossed an in-flight invalidation to this core; it
        // stands in for the acknowledgement (the core won't ack an absent
        // line under ACKwise).
        --it->second.pending_acks;
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
      auto it = active_.find(m.line);
      if (it != active_.end()) {
        it->second.have_data = true;
        it->second.expect_dirty_wb = false;
        if (li.owner == m.src) {
          // Crossed with our Flush/WbReq; the owner is gone.
          it->second.waiting_owner = false;
          li.drop_owner();
        }
        maybe_complete(m.line);
      } else if (li.owner == m.src) {
        li.drop_owner();
      }
      return;
    }
    case CohType::kInvAck: {
      auto it = active_.find(m.line);
      assert(it != active_.end() && "stray InvAck");
      if (it == active_.end()) return;
      info(m.line).sharers.remove(m.src);
      --it->second.pending_acks;
      if (m.carries_data) it->second.have_data = true;
      maybe_complete(m.line);
      return;
    }
    case CohType::kFlushAck:
    case CohType::kWbAck: {
      auto it = active_.find(m.line);
      assert(it != active_.end() && "stray owner ack");
      if (it == active_.end()) return;
      Txn& txn = it->second;
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
  const auto it = dir_.find(line);
  if (it == dir_.end()) return p;
  const LineInfo& li = it->second;
  p.state = li.state;
  p.owner = li.owner;
  p.global = li.sharers.global();
  p.count = li.sharers.count();
  p.ptrs = li.sharers.pointers();
  return p;
}

void DirectorySlice::debug_corrupt_forget_line(Addr line) {
  const auto it = dir_.find(line);
  if (it == dir_.end()) return;
  it->second.sharers.clear();
  it->second.drop_owner();
}

std::vector<DirectorySlice::TxnDebug> DirectorySlice::debug_active() const {
  std::vector<TxnDebug> out;
  for (const auto& [line, t] : active_)
    out.push_back({line, t.req.type, t.req.requester, t.pending_acks,
                   t.waiting_owner, t.have_data, t.dram_pending,
                   t.expect_dirty_wb, probe_line(line)});
  return out;
}

}  // namespace atacsim::mem

