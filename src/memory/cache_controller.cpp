#include "memory/cache_controller.hpp"

#include <algorithm>
#include <cassert>

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
  const LineState l1 = l1d_.peek(line);
  if (l1 == LineState::kInvalid) return false;
  const LineState l2 = l2_.peek(line);
  const bool l2_ok = write ? (l2 == LineState::kModified)
                           : (l2 != LineState::kInvalid);
  if (!l2_ok) return false;
  auto& ctr = machine_.mem_counters();
  write ? ++ctr.l1d_writes : ++ctr.l1d_reads;
  if (write) ++ctr.l2_writes;  // write-through
  l1d_.lookup(line);           // LRU bump
  if (auto* observer = machine_.observer())
    observer->record_mem(
        write, static_cast<std::uint64_t>(kL1HitCycles));
  return true;
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

  // Miss: coalesce into an existing MSHR or allocate one.
  ++ctr.l2_misses;
  auto it = mshr_.find(line);
  if (it != mshr_.end()) {
    it->second.waiters.push_back({write, done, now});
    // An in-flight ShReq cannot satisfy a store; the retry in fill() will
    // issue the upgrade once the shared copy lands.
    return;
  }
  open_mshr(line, write || l2 == LineState::kShared, {{write, done, now}});
}

void CacheController::open_mshr(Addr line, bool exclusive,
                                 std::vector<Waiter> waiters) {
  Mshr& e = mshr_[line];
  machine_.holders().add(line, self_);
  e.want_exclusive = exclusive;
  e.waiters = std::move(waiters);
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
  change_waiters_[line].push_back(done);
}

void CacheController::notify_change(Addr line) {
  auto it = change_waiters_.find(line);
  if (it == change_waiters_.end()) return;
  auto waiters = std::move(it->second);
  change_waiters_.erase(it);
  const Cycle t = machine_.now() + 1;
  for (const Completion& done : waiters) complete(done, t);
}

void CacheController::complete(Completion done, Cycle t) {
  if (*done.at < t) *done.at = t;
  machine_.events().schedule(t, [h = done.resume] {
    if (h) h.resume();
  });
}

void CacheController::lost_line(Addr line) {
  if (mshr_.find(line) == mshr_.end()) machine_.holders().remove(line, self_);
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
  auto node = mshr_.extract(line);
  assert(!node.empty() && "fill without MSHR entry");
  Mshr entry = std::move(node.mapped());

  // The MSHR closes as the line lands in the L2: this core stays a holder.
  if (auto victim = l2_.install(line, st)) evict(victim->line, victim->state);
  l1d_.install(line, st);
  ++machine_.mem_counters().l2_writes;  // line fill

  const Cycle t = machine_.now() + kL2HitCycles;
  std::vector<Waiter> retry;
  for (auto& w : entry.waiters) {
    if (w.write && st != LineState::kModified) {
      retry.push_back(std::move(w));
    } else {
      if (auto* observer = machine_.observer())
        observer->record_mem(w.write, static_cast<std::uint64_t>(t - w.issued));
      complete(w.done, t);
    }
  }

  // Buffered broadcast invalidates that were sent *after* this reply must be
  // processed one cycle later; older ones are stale and dropped
  // (paper Sec. IV-C-1).
  for (const BufferedInv& b : entry.buffered_bcast_invs) {
    if (seq_before(rep.seq, b.msg.seq)) {
      process_inv(b.msg, /*extra_delay=*/1, /*suppress_ack=*/b.already_acked);
    } else {
      // Stale: it targeted the previous epoch of this line. Still counts as
      // processed for slice ordering.
      bump_seq_and_release(b.msg.dir_slice, b.msg.seq);
    }
  }

  if (!retry.empty()) {
    // Upgrade path: the shared copy just landed but stores still need M.
    open_mshr(line, /*exclusive=*/true, std::move(retry));
  }
}

void CacheController::process_inv(const CohMsg& m, Cycle extra_delay,
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
    if (extra_delay == 0) {
      send(ack);
    } else {
      machine_.events().schedule(machine_.now() + extra_delay,
                                 [this, ack] { send(ack); });
    }
  }

  if (m.is_broadcast()) bump_seq_and_release(m.dir_slice, m.seq);
}

void CacheController::bump_seq_and_release(HubId slice, std::uint16_t seq) {
  auto& last = machine_.bcast_seq(slice, self_);
  advance_seq(last, seq);
  if (deferred_.empty()) return;
  std::vector<CohMsg> ready;
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    if (it->dir_slice == slice && seq_before_eq(it->seq, last)) {
      ready.push_back(*it);
      it = deferred_.erase(it);
    } else {
      ++it;
    }
  }
  if (ready.empty()) return;
  // Only handle() defers a unicast, and nothing below calls it.
  if (deferred_.empty()) machine_.mark_deferred(self_, false);
  for (const auto& m : ready) process_unicast_from_dir(m);
}

const char* CacheController::holding(Addr line, HubId slice) const {
  if (l2_.peek(line) != LineState::kInvalid) return "an L2 copy";
  if (mshr_.find(line) != mshr_.end()) return "an MSHR";
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
    auto it = mshr_.find(m.line);
    if (it != mshr_.end() && !it->second.want_exclusive) {
      // Under Dir_kB the directory is counting acks from *every* core —
      // including us, whose ShRep it cannot send until the count drains.
      // Ack now (the line is absent; nothing to invalidate yet) and only
      // defer the invalidation-ordering side of the message.
      const bool acked =
          machine_.params().coherence == CoherenceKind::kDirKB;
      if (acked) send(reply(m, CohType::kInvAck, /*carries_data=*/false));
      it->second.buffered_bcast_invs.push_back({m, acked});
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
    machine_.mark_deferred(self_, true);
    return;
  }
  process_unicast_from_dir(m);
}

}  // namespace atacsim::mem
