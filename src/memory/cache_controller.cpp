#include "memory/cache_controller.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "check/invariant.hpp"
#include "obs/series.hpp"
#include "sim/machine.hpp"

namespace atacsim::mem {

const char* to_string(CohType t) {
  switch (t) {
    case CohType::kShReq: return "ShReq";
    case CohType::kExReq: return "ExReq";
    case CohType::kEvictNotify: return "EvictNotify";
    case CohType::kDirtyWb: return "DirtyWb";
    case CohType::kInvReq: return "InvReq";
    case CohType::kFlushReq: return "FlushReq";
    case CohType::kWbReq: return "WbReq";
    case CohType::kShRep: return "ShRep";
    case CohType::kExRep: return "ExRep";
    case CohType::kInvAck: return "InvAck";
    case CohType::kFlushAck: return "FlushAck";
    case CohType::kWbAck: return "WbAck";
  }
  return "?";
}

CacheController::CacheController(CoreId self, sim::Machine& m)
    : self_(self),
      machine_(m),
      l1d_(m.params().l1d_size_KB, m.params().l1_assoc,
           kLineBytes),
      l2_(m.params().l2_size_KB, m.params().l2_assoc, kLineBytes) {}

Cycle CacheController::send(const CohMsg& m) {
  const Cycle t = std::max(machine_.now(), send_free_);
  send_free_ = machine_.send(t, m);
  return t;
}

bool CacheController::fast_access(Addr addr, bool write) {
  const Addr line = l2_.line_of(addr);
  // An L1-D copy always carries its L2 state (fill, the L2-hit refill,
  // handle_wb and lost_line keep the two equal), so one L1 probe decides.
  if (machine_.validation()) check_l1_mirrors_l2(line);
  if (l1d_.hit(line, write) == LineState::kInvalid) return false;
  auto& ctr = machine_.mem_counters();
  write ? ++ctr.l1d_writes : ++ctr.l1d_reads;
  if (write) ++ctr.l2_writes;  // write-through
  if (auto* observer = machine_.observer())
    observer->record_mem(
        write, static_cast<std::uint64_t>(kL1HitCycles));
  return true;
}

void CacheController::check_l1_mirrors_l2(Addr line) const {
  const LineState l1 = l1d_.peek(line);
  const LineState l2 = l2_.peek(line);
  if (l1 == LineState::kInvalid || l1 == l2) return;
  const auto name = [](LineState s) {
    return s == LineState::kModified ? "Modified"
           : s == LineState::kShared ? "Shared"
                                     : "Invalid";
  };
  std::ostringstream os;
  os << "L1-D holds line 0x" << std::hex << line << std::dec << " "
     << name(l1) << " but the L2 holds it " << name(l2);
  check::raise(check::Probe::kCoherence, "cache", machine_.now(), self_,
               os.str());
}

void CacheController::access(Addr addr, bool write, Completion done) {
  const Cycle now = machine_.now();
  if (fast_access(addr, write)) {
    complete(done, now + kL1HitCycles);
    return;
  }

  // L1-D miss: the probe still costs an access and bumps the L1 LRU.
  const Addr line = l2_.line_of(addr);
  auto& ctr = machine_.mem_counters();
  write ? ++ctr.l1d_writes : ++ctr.l1d_reads;
  l1d_.lookup(line);
  ++ctr.l1d_misses;
  const LineState l2 = l2_.peek(line);
  const bool l2_ok = write ? (l2 == LineState::kModified)
                           : (l2 != LineState::kInvalid);
  write ? ++ctr.l2_writes : ++ctr.l2_reads;
  if (l2_ok) {
    // L2 hit: refill L1 (subset; silent L1 replacement is fine).
    l1d_.install(line, l2);
    const Cycle t = now + kL2HitCycles;
    if (auto* observer = machine_.observer())
      observer->record_mem(write, static_cast<std::uint64_t>(t - now));
    complete(done, t);
    return;
  }

  // Miss: coalesce into an existing MSHR or open one.
  ++ctr.l2_misses;
  const std::uint32_t open = mshr_.find(line);
  if (open != mshr_.kNone) {
    mshr_[open].waiters.push_back({write, done, now});
    // An in-flight ShReq cannot satisfy a store; the retry in fill() will
    // issue the upgrade once the shared copy lands.
    return;
  }
  const std::uint32_t row = mshr_.acquire();
  mshr_[row].waiters.push_back({write, done, now});
  open_mshr(line, row, write || l2 == LineState::kShared);
}

void CacheController::open_mshr(Addr line, std::uint32_t row,
                                 bool exclusive) {
  mshr_.attach(line, row);
  machine_.add_holder(line, self_);
  mshr_[row].want_exclusive = exclusive;
  send(to_home(exclusive ? CohType::kExReq : CohType::kShReq, line));
}

CohMsg CacheController::to_home(CohType type, Addr line) const {
  CohMsg m;
  m.type = type;
  m.line = line;
  m.src = self_;
  m.dir_slice = machine_.home_slice(line);
  m.dst = machine_.geom().hub_core(m.dir_slice);
  if (type == CohType::kShReq || type == CohType::kExReq) m.requester = self_;
  return m;
}

CohMsg CacheController::reply(const CohMsg& m, CohType type,
                              bool carries_data) const {
  CohMsg r;
  r.type = type;
  r.line = m.line;
  r.src = self_;
  r.dst = m.src;
  r.requester = m.requester;
  r.dir_slice = m.dir_slice;
  r.carries_data = carries_data;
  return r;
}

void CacheController::wait_for_change(Addr addr, Completion done) {
  const Addr line = l2_.line_of(addr);
  if (l2_.peek(line) == LineState::kInvalid) {
    complete(done, machine_.now() + 1);
    return;
  }
  assert(wait_line_ == kNoLine && "one spin-wait per core at a time");
  wait_line_ = line;
  wait_done_ = done;
}

void CacheController::notify_change(Addr line) {
  if (line != wait_line_) return;
  wait_line_ = kNoLine;
  complete(wait_done_, machine_.now() + 1);
}

void CacheController::complete(Completion done, Cycle t) {
  if (*done.at < t) *done.at = t;
  machine_.events().schedule(t, resume_coroutine, done.resume.address(), 0);
}

void CacheController::lost_line(Addr line) {
  if (!mshr_.contains(line)) machine_.holders().remove(line, self_);
  l1d_.invalidate(line);
  notify_change(line);
}

void CacheController::evict(Addr line, LineState state) {
  lost_line(line);
  if (state == LineState::kModified) {
    CohMsg m = to_home(CohType::kDirtyWb, line);
    m.carries_data = true;
    send(m);
  } else if (machine_.params().coherence == CoherenceKind::kAckwise) {
    // ACKwise cannot support silent evictions (paper Sec. V-F).
    send(to_home(CohType::kEvictNotify, line));
  }
  // Dir_kB: silent eviction of clean lines.
}

void CacheController::fill(const CohMsg& rep) {
  const Addr line = rep.line;
  const LineState st = (rep.type == CohType::kExRep) ? LineState::kModified
                                                     : LineState::kShared;
  assert(mshr_.contains(line) && "fill without MSHR entry");
  // The MSHR closes as the line lands in the L2: this core stays a holder.
  // Its row stays in hand until the end, for an upgrade to reopen.
  const std::uint32_t row = mshr_.detach(line);
  if (auto victim = l2_.install(line, st)) evict(victim->line, victim->state);
  l1d_.install(line, st);
  ++machine_.mem_counters().l2_writes;  // line fill

  // Completes the waiters the fill satisfies. The stores a shared copy
  // cannot satisfy stay in the row, in order, to retry as an upgrade.
  const Cycle t = machine_.now() + kL2HitCycles;
  std::vector<Waiter>& waiters = mshr_[row].waiters;
  std::size_t retry = 0;
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    const Waiter w = waiters[i];
    if (w.write && st != LineState::kModified) {
      waiters[retry++] = w;
    } else {
      if (auto* observer = machine_.observer())
        observer->record_mem(w.write, static_cast<std::uint64_t>(t - w.issued));
      complete(w.done, t);
    }
  }
  waiters.resize(retry);

  // Buffered broadcast invalidates that were sent *after* this reply must be
  // processed one cycle later; older ones are stale and dropped
  // (paper Sec. IV-C-1). Each is copied out: the handling below may release
  // deferred unicasts whose fills open other MSHRs and grow the table.
  for (std::size_t i = 0; i < mshr_[row].buffered_bcast_invs.size(); ++i) {
    const BufferedInv b = mshr_[row].buffered_bcast_invs[i];
    if (seq_before(rep.seq, b.msg.seq)) {
      process_inv(b.msg, /*delay_ack=*/true,
                  /*suppress_ack=*/b.already_acked);
    } else {
      // Stale: it targeted the previous epoch of this line. Still counts as
      // processed for slice ordering.
      bump_seq_and_release(b.msg.dir_slice, b.msg.seq);
    }
  }

  if (mshr_[row].waiters.empty()) {
    mshr_.release(row);
    return;
  }
  // Upgrade path: the shared copy just landed but stores still need M.
  mshr_[row].buffered_bcast_invs.clear();
  open_mshr(line, row, /*exclusive=*/true);
}

void CacheController::process_inv(const CohMsg& m, bool delay_ack,
                                  bool suppress_ack) {
  const Addr line = m.line;
  const LineState prev = l2_.peek(line);
  const bool present = prev != LineState::kInvalid;

  if (present) {
    l2_.invalidate(line);
    lost_line(line);
  }

  // Ack rules: a sharer acks (piggy-backing the clean line); under Dir_kB
  // every invalidation — unicast or broadcast — must be acknowledged whether
  // or not the line is present, because silent evictions leave the pointer
  // list stale. A core whose own ExReq triggered this invalidation round
  // still acks if it held the line (it is part of the sharer count).
  const bool dirkb = machine_.params().coherence == CoherenceKind::kDirKB;
  const bool must_ack = (present || dirkb) && !suppress_ack;
  if (must_ack) {
    // Acks stay short coherence messages: the home supplies clean data from
    // its buffer or DRAM (Sec. IV-C-1's "fetched explicitly" option).
    const CohMsg ack = reply(m, CohType::kInvAck, /*carries_data=*/false);
    if (!delay_ack) {
      send(ack);
    } else {
      delayed_acks_.push_back(ack);
      machine_.events().schedule(machine_.now() + 1,
                                 &CacheController::send_delayed_ack, this, 0);
    }
  }

  if (m.is_broadcast()) bump_seq_and_release(m.dir_slice, m.seq);
}

void CacheController::send_delayed_ack(void* self, std::uint64_t) {
  auto& c = *static_cast<CacheController*>(self);
  const CohMsg ack = c.delayed_acks_[c.next_delayed_ack_++];
  if (c.next_delayed_ack_ == c.delayed_acks_.size()) {
    c.delayed_acks_.clear();
    c.next_delayed_ack_ = 0;
  }
  c.send(ack);
}

void CacheController::bump_seq_and_release(HubId slice, std::uint16_t seq) {
  machine_.advance_bcast_seq(slice, self_, seq);
  if (deferred_.empty()) return;
  const std::uint16_t last = machine_.bcast_seq(slice, self_);
  // Move the unicasts now in order to the top of released_, in arrival
  // order, and keep the rest deferred in theirs.
  const std::size_t first = released_.size();
  std::size_t kept = 0;
  bool still_deferred = false;  // a unicast from `slice` stays deferred
  for (std::size_t i = 0; i < deferred_.size(); ++i) {
    const CohMsg m = deferred_[i];
    if (m.dir_slice == slice && seq_before_eq(m.seq, last)) {
      released_.push_back(m);
    } else {
      still_deferred |= m.dir_slice == slice;
      deferred_[kept++] = m;
    }
  }
  deferred_.resize(kept);
  const std::size_t end = released_.size();
  if (end == first) return;
  // Only handle() defers a unicast, and nothing below calls it.
  if (!still_deferred) machine_.mark_deferred(self_, slice, false);
  // Each is copied out: a nested release may grow released_.
  for (std::size_t i = first; i < end; ++i) {
    const CohMsg m = released_[i];
    process_unicast_from_dir(m);
  }
  released_.resize(first);
}

const char* CacheController::holding(Addr line, HubId slice) const {
  if (l2_.peek(line) != LineState::kInvalid) return "an L2 copy";
  if (mshr_.contains(line)) return "an MSHR";
  if (std::any_of(deferred_.begin(), deferred_.end(),
                  [slice](const CohMsg& m) { return m.dir_slice == slice; }))
    return "a deferred unicast";
  return nullptr;
}

void CacheController::handle_flush(const CohMsg& m) {
  const LineState prev = l2_.invalidate(m.line);
  if (prev != LineState::kInvalid) lost_line(m.line);
  send(reply(m, CohType::kFlushAck, prev == LineState::kModified));
}

void CacheController::handle_wb(const CohMsg& m) {
  const LineState prev = l2_.peek(m.line);
  if (prev == LineState::kModified) {
    l2_.set_state(m.line, LineState::kShared);
    l1d_.set_state(m.line, LineState::kShared);
  }
  send(reply(m, CohType::kWbAck, prev == LineState::kModified));
}

void CacheController::process_unicast_from_dir(const CohMsg& m) {
  switch (m.type) {
    case CohType::kInvReq:
      process_inv(m);
      break;
    case CohType::kFlushReq:
      handle_flush(m);
      break;
    case CohType::kWbReq:
      handle_wb(m);
      break;
    case CohType::kShRep:
    case CohType::kExRep:
      fill(m);
      break;
    default:
      assert(false && "unexpected unicast type at cache");
  }
}

void CacheController::handle(const CohMsg& m) {
  if (m.type == CohType::kInvReq && m.is_broadcast()) {
    // Early-broadcast buffering: with an outstanding ShReq for this line the
    // broadcast may have overtaken our shared response (Sec. IV-C-1).
    const std::uint32_t row = mshr_.find(m.line);
    if (row != mshr_.kNone && !mshr_[row].want_exclusive) {
      // Under Dir_kB the directory is counting acks from *every* core —
      // including us, whose ShRep it cannot send until the count drains.
      // Ack now (the line is absent; nothing to invalidate yet) and only
      // defer the invalidation-ordering side of the message.
      const bool acked =
          machine_.params().coherence == CoherenceKind::kDirKB;
      if (acked) send(reply(m, CohType::kInvAck, /*carries_data=*/false));
      mshr_[row].buffered_bcast_invs.push_back({m, acked});
      // Release the slice-level ordering now: deferred unicasts for *other*
      // lines must not wait on a broadcast that is itself parked behind our
      // fill (circular wait across cores). Same-line ordering is restored by
      // the sequence comparison in fill().
      bump_seq_and_release(m.dir_slice, m.seq);
      return;
    }
    process_inv(m);
    return;
  }

  // Every message that reaches a cache comes from a directory slice, and no
  // such unicast — request or response — may overtake an earlier broadcast
  // from the same slice (Sec. IV-C-1): defer it until our slice sequence
  // number catches up. A stale broadcast processed after a later response
  // would otherwise silently destroy the line the response just granted. No
  // deadlock: an arriving broadcast always either processes or is
  // MSHR-buffered, and both paths advance the slice sequence immediately, so
  // deferred unicasts never wait on a parked broadcast.
  assert(!to_directory(m.type));
  if (seq_before(machine_.bcast_seq(m.dir_slice, self_), m.seq)) {
    deferred_.push_back(m);
    machine_.mark_deferred(self_, m.dir_slice, true);
    return;
  }
  process_unicast_from_dir(m);
}

}  // namespace atacsim::mem
