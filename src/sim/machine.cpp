#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <string>

#include "check/probes.hpp"
#include "obs/series.hpp"

namespace atacsim::sim {

Machine::Machine(const MachineParams& mp, obs::RunObserver* obs,
                 bool validate)
    : mp_(mp),
      net_(net::make_network(mp)),
      geom_(mp),
      obs_(obs),
      validate_(validate),
      events_(validate),
      core_counters_(static_cast<std::size_t>(mp.num_cores)),
      holders_(mp.num_cores),
      bcast_seq_(static_cast<std::size_t>(geom_.num_clusters()) *
                     static_cast<std::size_t>(mp.num_cores),
                 0),
      deferred_marks_(static_cast<std::size_t>(geom_.num_clusters()) *
                      holders_.words()) {
  in_flight_.resize(static_cast<std::size_t>(geom_.num_clusters()));
  if (validate_) eager_seq_ = bcast_seq_;
  caches_.reserve(static_cast<std::size_t>(mp_.num_cores));
  for (CoreId c = 0; c < mp_.num_cores; ++c)
    caches_.push_back(std::make_unique<mem::CacheController>(c, *this));
  dirs_.reserve(static_cast<std::size_t>(geom_.num_clusters()));
  for (HubId h = 0; h < geom_.num_clusters(); ++h)
    dirs_.push_back(
        std::make_unique<mem::DirectorySlice>(h, geom_.hub_core(h), *this));
  if (obs_) {
    net_->set_observer(obs_);
    std::vector<net::ChannelUsage> usage;
    net_->append_channel_usage(usage);
    std::vector<std::string> names;
    names.reserve(usage.size());
    for (const auto& u : usage) names.emplace_back(u.name);
    obs_->set_channel_names(std::move(names));
  }
}

bool Machine::run(Cycle max_cycles) {
  // With an observer, the queue stops before the first event at or past
  // each epoch boundary so the counters can be sampled there.
  const Cycle period = obs_ ? obs_->epoch_cycles() : kNeverCycle;
  bool within_limit;
  for (Cycle boundary = period;; boundary += period) {
    within_limit = events_.run(max_cycles, boundary);
    if (!within_limit || events_.empty()) break;
    sample_obs(boundary, /*last=*/false);
  }
  if (obs_) sample_obs(now(), /*last=*/true);
  if (within_limit && validate_) validate_run();
  return within_limit;
}

void Machine::sample_obs(Cycle at, bool last) {
  std::vector<net::ChannelUsage> usage;
  net_->append_channel_usage(usage);
  std::vector<Cycle> busy;
  busy.reserve(usage.size());
  for (const auto& u : usage) busy.push_back(u.busy_cycles);
  if (last)
    obs_->finalize(at, net_->counters(), mem_counters_, core_counters_, busy);
  else
    obs_->sample(at, net_->counters(), mem_counters_, core_counters_, busy);
}

void Machine::receive(CoreId receiver, const mem::CohMsg& m) {
  ++observed_deliveries_;
  if (mem::to_directory(m.type)) {
    assert(m.dir_slice >= 0 && geom_.hub_core(m.dir_slice) == receiver);
    dirs_[static_cast<std::size_t>(m.dir_slice)]->handle(m);
  } else {
    caches_[static_cast<std::size_t>(receiver)]->handle(m);
  }
}

std::uint16_t Machine::bcast_seq(HubId slice, CoreId c) const {
  const auto s = static_cast<std::size_t>(slice);
  const auto i = static_cast<std::size_t>(c);
  std::uint16_t v = bcast_seq_[s * static_cast<std::size_t>(mp_.num_cores) + i];
  // A slice numbers its broadcasts in send order, so the newest one that
  // has reached `c` carries the largest number of those in flight, and none
  // older than one `v` already counts can move it.
  const std::vector<Broadcast*>& sent = in_flight_[s];
  for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
    const Broadcast& b = **it;
    if (!mem::seq_before(v, b.msg.seq)) break;
    if (c == b.dropped || now() < b.first_at) continue;
    const std::uint32_t r = b.run_of[i];
    if (events_.passed(b.runs[r].at, b.first_seq + r)) {
      v = b.msg.seq;
      break;
    }
  }
  if (validate_) check_lazy_seq(slice, c, v);
  return v;
}

void Machine::advance_bcast_seq(HubId slice, CoreId c, std::uint16_t seq) {
  const std::size_t i = static_cast<std::size_t>(slice) *
                            static_cast<std::size_t>(mp_.num_cores) +
                        static_cast<std::size_t>(c);
  mem::advance_seq(bcast_seq_[i], seq);
  if (validate_) mem::advance_seq(eager_seq_[i], seq);
}

void Machine::schedule_pending_run(Broadcast& b, CoreId c) {
  // Every run of a broadcast that every receiver acts on is scheduled.
  if (c == b.dropped) return;
  const std::uint32_t r = b.run_of[static_cast<std::size_t>(c)];
  Run& run = b.runs[r];
  if (run.scheduled || !events_.ahead(run.at, b.first_seq + r)) return;
  // With validation on the run already has its probe event.
  if (!validate_) {
    events_.schedule_reserved(run.at, b.first_seq + r, &Machine::deliver_run,
                              this, std::uint64_t{b.slot} << 32 | r);
    ++pending_runs_;
  }
  run.scheduled = true;
  ++late_inserts_;
}

void Machine::add_holder(Addr line, CoreId c) {
  holders_.add(line, c);
  for (Broadcast* b : in_flight_[static_cast<std::size_t>(home_slice(line))])
    if (b->msg.line == line) schedule_pending_run(*b, c);
}

void Machine::refuse_address(const void* p, CoreId core) const {
  std::ostringstream os;
  os << "host pointer " << p;
  if (space_)
    os << " lies outside the address space's " << space_->regions().size()
       << " blocks";
  else
    os << " was accessed by a body with no address space";
  check::raise(check::Probe::kAddress, "machine", now(), core, os.str());
}

void Machine::check_receiver(CoreId c, const mem::CohMsg& m,
                             bool acts) const {
  const char* held = caches_[static_cast<std::size_t>(c)]->holding(
      m.line, m.dir_slice);
  if (!acts && !held) return;
  std::ostringstream os;
  os << "broadcast InvReq for line 0x" << std::hex << m.line << std::dec
     << " from slice " << m.dir_slice;
  if (acts)
    os << " reached a core with " << (held ? held : "deferred unicasts")
       << ", but its run had no scheduled event";
  else
    os << " skipped a core with " << held;
  check::raise(check::Probe::kCoherence, "machine", now(), c, os.str());
}

void Machine::deliver(void* self, std::uint64_t slot) {
  Machine& m = *static_cast<Machine*>(self);
  // Copied out and freed before the handler runs: it sends more.
  const Delivery d = m.deliveries_[static_cast<std::uint32_t>(slot)];
  m.deliveries_.free(static_cast<std::uint32_t>(slot));
  m.receive(d.receiver, d.msg);
}

Cycle Machine::send(Cycle t, const mem::CohMsg& m) {
  net::NetPacket p;
  p.src = m.src;
  p.dst = m.dst;
  p.cls = m.carries_data ? net::MsgClass::kData : net::MsgClass::kCoherence;
  arrivals_.clear();
  const Cycle sender_free = net_->inject(t, p, arrivals_);
  if (!m.is_broadcast()) {
    assert(arrivals_.size() == 1);
    ++expected_deliveries_;
    const std::uint32_t slot = deliveries_.alloc();
    deliveries_[slot] = Delivery{m, arrivals_.front().receiver};
    events_.schedule(arrivals_.front().at, &Machine::deliver, this, slot);
    return sender_free;
  }
  expected_deliveries_ += static_cast<std::uint64_t>(mp_.num_cores);
  // Network broadcasts skip the source tile; the sender's co-located cache
  // still receives the invalidation through a local loopback, listed after
  // the network's copies. No network copy of a broadcast arrives by t + 2,
  // so the loopback's place in the list does not change the order in which
  // any cycle's receivers run.
  arrivals_.push_back({m.src, t + 2});
  send_broadcast(m);
  return sender_free;
}

void Machine::send_broadcast(const mem::CohMsg& m) {
  const std::uint32_t slot = bcasts_.alloc();
  Broadcast& b = bcasts_[slot];
  b.msg = m;
  b.slot = slot;
  b.dropped = kInvalidCore;
  b.handled = 0;
  b.every_receiver_acts = m.type != mem::CohType::kInvReq ||
                          mp_.coherence != CoherenceKind::kAckwise;
  // Every core receives a broadcast once, so each entry of run_of is set.
  assert(arrivals_.size() == static_cast<std::size_t>(mp_.num_cores));
  b.receivers.resize(arrivals_.size());
  b.runs.clear();
  b.run_of.resize(static_cast<std::size_t>(mp_.num_cores));
  // One run per maximal run of consecutive arrivals that share a cycle,
  // taken in the order the network listed them; nothing is sorted.
  Cycle at = kNeverCycle;
  std::uint16_t run = 0;
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    const net::Arrival& a = arrivals_[i];
    if (a.at != at) {
      at = a.at;
      run = static_cast<std::uint16_t>(b.runs.size());
      b.runs.push_back(Run{at, static_cast<std::uint32_t>(i), false});
    }
    b.run_of[static_cast<std::size_t>(a.receiver)] = run;
    b.receivers[i] = static_cast<std::uint16_t>(a.receiver);
  }
  // Each run takes the sequence number its own event would have: all are
  // handed out here, within one send, so runs that share a cycle run back
  // to back, in list order, before any event a handler schedules at it.
  b.first_seq = events_.reserve(b.runs.size());
  runs_reserved_ += b.runs.size();
  b.first_at = kNeverCycle;
  b.last = 0;
  for (std::uint32_t r = 0; r < b.runs.size(); ++r) {
    b.first_at = std::min(b.first_at, b.runs[r].at);
    if (b.runs[r].at >= b.runs[b.last].at) b.last = r;
  }

  // The last run always has an event: the broadcast retires at its end.
  // The other runs have one if a receiver in them acts now. Any other
  // receiver that starts to act before its run passes does so through
  // add_holder or mark_deferred, which give its run an event then.
  b.runs[b.last].scheduled = true;
  if (b.every_receiver_acts) {
    for (Run& r : b.runs) r.scheduled = true;
  } else {
    const std::uint64_t* held = holders_.find(m.line);
    const std::uint64_t* deferred =
        debug_ignore_deferred_ ? nullptr : deferred_marks(m.dir_slice);
    for (std::size_t w = 0; w < holders_.words(); ++w) {
      for (std::uint64_t bits = (held ? held[w] : 0) |
                                (deferred ? deferred[w] : 0);
           bits != 0; bits &= bits - 1) {
        const std::size_t c = w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(bits));
        b.runs[b.run_of[c]].scheduled = true;
      }
    }
    if (debug_drop_ != kInvalidCore)
      b.runs[b.run_of[static_cast<std::size_t>(debug_drop_)]].scheduled =
          true;
  }
  for (std::size_t r = 0; r < b.runs.size(); ++r) {
    if (b.runs[r].scheduled)
      ++runs_scheduled_;
    else if (!validate_)
      continue;
    events_.schedule_reserved(b.runs[r].at, b.first_seq + r,
                              &Machine::deliver_run, this,
                              std::uint64_t{slot} << 32 | r);
    ++pending_runs_;
  }
  in_flight_[static_cast<std::size_t>(m.dir_slice)].push_back(&b);
}

void Machine::deliver_run(void* self, std::uint64_t arg) {
  Machine& m = *static_cast<Machine*>(self);
  const auto slot = static_cast<std::uint32_t>(arg >> 32);
  const auto r = static_cast<std::uint32_t>(arg);
  --m.pending_runs_;
  // Slab records never move, so `b` stays valid while the handlers below
  // send more broadcasts; `b` itself is retired at the end of its last run,
  // after the loop.
  Broadcast& b = m.bcasts_[slot];
  const Run run = b.runs[r];
  const auto end = static_cast<std::uint32_t>(
      r + 1 < b.runs.size() ? b.runs[r + 1].first : b.receivers.size());
  const std::size_t row = static_cast<std::size_t>(b.msg.dir_slice) *
                          static_cast<std::size_t>(m.mp_.num_cores);
  // A handler changes only its own core's state and schedules (never runs)
  // other handlers, so each receiver's holder and deferred bits read at its
  // turn are the ones it had when the run began. Only a handler adds or
  // removes holders, so the line's set is looked up again after each one.
  const std::uint64_t* held = m.holders_.find(b.msg.line);
  const std::uint64_t* deferred =
      m.debug_ignore_deferred_ ? nullptr : m.deferred_marks(b.msg.dir_slice);
  for (std::uint32_t i = run.first; i < end; ++i) {
    const CoreId c = b.receivers[i];
    if (m.dropped(c)) {
      b.dropped = c;
      ++b.handled;
      continue;
    }
    const bool acts = b.every_receiver_acts || (held && has_core(held, c)) ||
                      (deferred && has_core(deferred, c));
    if (acts && run.scheduled) {
      ++b.handled;
      m.receive(c, b.msg);
      held = m.holders_.find(b.msg.line);
      continue;
    }
    // A receiver that runs no handler: what the handler would do is done
    // here while the run is at hand, so a later read of the number need not
    // look the run up. A probe event leaves the stored number to the lazy
    // read, which it is there to check, and raises if the receiver acts.
    const std::size_t at = row + static_cast<std::size_t>(c);
    if (run.scheduled) mem::advance_seq(m.bcast_seq_[at], b.msg.seq);
    if (m.validate_) {
      m.check_receiver(c, b.msg, acts);
      mem::advance_seq(m.eager_seq_[at], b.msg.seq);
    }
  }
  if (r == b.last) m.retire(b);
}

void Machine::retire(const Broadcast& b) {
  const auto s = static_cast<std::size_t>(b.msg.dir_slice);
  const auto n = static_cast<std::size_t>(mp_.num_cores);
  std::uint16_t* row = &bcast_seq_[s * n];
  const std::uint16_t kept =
      b.dropped == kInvalidCore ? 0 : row[static_cast<std::size_t>(b.dropped)];
  const std::uint16_t seq = b.msg.seq;
  for (std::size_t c = 0; c < n; ++c)
    row[c] = mem::seq_before(row[c], seq) ? seq : row[c];
  if (b.dropped != kInvalidCore) row[static_cast<std::size_t>(b.dropped)] = kept;
  // What a handler would have done at a receiver that acts on nothing is
  // done: it counts as delivered.
  observed_deliveries_ += b.receivers.size() - b.handled;
  std::vector<Broadcast*>& sent = in_flight_[s];
  sent.erase(std::find(sent.begin(), sent.end(), &b));
  bcasts_.free(b.slot);
}

void Machine::check_lazy_seq(HubId slice, CoreId c, std::uint16_t lazy) const {
  const std::uint16_t eager =
      eager_seq_[static_cast<std::size_t>(slice) *
                     static_cast<std::size_t>(mp_.num_cores) +
                 static_cast<std::size_t>(c)];
  if (lazy == eager) return;
  std::ostringstream os;
  os << "sequence number for slice " << slice << " read as " << lazy
     << ", but " << eager << " kept eagerly";
  check::raise(check::Probe::kCoherence, "machine", now(), c, os.str());
}

void Machine::validate_coherence(Addr line, HubId slice) {
  const auto dir = dirs_[static_cast<std::size_t>(slice)]->probe_line(line);
  std::vector<std::pair<CoreId, mem::LineState>> cached;
  for (const auto& c : caches_) {
    const mem::LineState s = c->l2().peek(line);
    if (s != mem::LineState::kInvalid) cached.emplace_back(c->self(), s);
  }
  check::check_coherence(line, dir, cached, mp_.num_hw_sharers, mp_.num_cores,
                         now());
}

void Machine::validate_run() {
  check::check_flow_conservation(net_->counters(), mp_.num_cores, now());
  std::vector<net::ChannelUsage> usage;
  net_->append_channel_usage(usage);
  check::check_channel_usage(usage, now());
  check::check_delivery(expected_deliveries_, observed_deliveries_,
                        "coherence deliveries", now());
}

bool Machine::quiescent() const {
  for (const auto& c : caches_)
    if (c->outstanding_misses() != 0) return false;
  for (const auto& d : dirs_)
    if (d->active_transactions() != 0) return false;
  return true;
}

}  // namespace atacsim::sim
