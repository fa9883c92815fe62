#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <string>

#include "check/probes.hpp"
#include "obs/series.hpp"

namespace atacsim::sim {

Machine::Machine(const MachineParams& mp, obs::RunObserver* obs)
    : mp_(mp),
      net_(net::make_network(mp)),
      geom_(mp),
      obs_(obs),
      core_counters_(static_cast<std::size_t>(mp.num_cores)),
      holders_(mp.num_cores),
      bcast_seq_(static_cast<std::size_t>(geom_.num_clusters()) *
                     static_cast<std::size_t>(mp.num_cores),
                 0),
      deferred_marks_(holders_.words()) {
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
  Cycle boundary = period;
  bool within_limit;
  while ((within_limit = events_.run(max_cycles, boundary)) &&
         !events_.empty()) {
    sample_obs(boundary, /*last=*/false);
    boundary += period;
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

void Machine::receive_each(const mem::CohMsg& m, const CoreId* first,
                           const CoreId* last) {
  if (!m.is_broadcast()) {
    receive(*first, m);
    return;
  }
  // Under Dir_kB every receiver acks, so every receiver runs its handler.
  if (m.type != mem::CohType::kInvReq ||
      mp_.coherence != CoherenceKind::kAckwise) {
    for (const CoreId* r = first; r != last; ++r)
      if (!dropped(*r)) receive(*r, m);
    return;
  }
  // A handler changes only its own core's bits and schedules (never runs)
  // other handlers, so each receiver's bits read at its turn are the ones
  // it had when the delivery began. Only a handler adds or removes holders,
  // so the line's set is looked up again after each one runs.
  const std::uint64_t* held = holders_.find(m.line);
  const std::uint64_t* deferred =
      debug_ignore_deferred_ ? nullptr : deferred_marks_.data();
  std::uint16_t* seq = &bcast_seq(m.dir_slice, 0);  // the slice's row
  for (const CoreId* r = first; r != last; ++r) {
    const CoreId c = *r;
    if (dropped(c)) continue;
    if ((held && has_core(held, c)) || (deferred && has_core(deferred, c))) {
      receive(c, m);
      held = holders_.find(m.line);
      continue;
    }
    // What the handler would have done at a core that holds nothing.
    ++observed_deliveries_;
    mem::advance_seq(seq[static_cast<std::size_t>(c)], m.seq);
    if (validate_) check_skipped(c, m);
  }
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

void Machine::check_skipped(CoreId c, const mem::CohMsg& m) {
  const char* held = caches_[static_cast<std::size_t>(c)]->holding(
      m.line, m.dir_slice);
  if (!held) return;
  std::ostringstream os;
  os << "broadcast InvReq for line 0x" << std::hex << m.line << std::dec
     << " from slice " << m.dir_slice << " skipped a core with " << held;
  check::raise(check::Probe::kCoherence, "machine", now(), c, os.str());
}

void Machine::deliver_arrivals(const mem::CohMsg& m) {
  // One event per maximal run of consecutive arrivals that share a cycle,
  // taken in the order the network listed them; nothing is sorted. The
  // receivers run in the same order as with one event per receiver: every
  // run of a message is scheduled here, within one send, so the runs carry
  // consecutive sequence numbers; runs that share a cycle therefore run
  // back to back, in list order, before any event a handler schedules at
  // that cycle.
  //
  // The event's record carries only the number of a slot in deliveries_,
  // which holds the message and the receivers. The slot, and a run's
  // chunks of receivers, are freed when the event runs and reused, so a
  // delivery allocates nothing once the run has reached its peak of
  // pending ones.
  for (auto it = arrivals_.begin(); it != arrivals_.end();) {
    const Cycle at = it->at;
    const auto end =
        std::find_if(it, arrivals_.end(),
                     [at](const net::Arrival& a) { return a.at != at; });
    const std::uint32_t slot = deliveries_.alloc();
    Delivery& d = deliveries_[slot];
    d.msg = m;
    d.count = static_cast<std::uint32_t>(end - it);
    if (d.count == 1) {  // a lone receiver (every unicast) needs no chunk
      d.receiver = it->receiver;
      ++it;
    } else {
      // Slab items never move, so `link` stays valid as chunks are added.
      std::uint32_t* link = &d.chunk;
      for (std::uint32_t first = 0; first < d.count; first += kChunkIds) {
        *link = chunks_.alloc();
        ReceiverChunk& chunk = chunks_[*link];
        const std::uint32_t n = std::min(d.count - first, kChunkIds);
        for (std::uint32_t i = 0; i < n; ++i, ++it) chunk.ids[i] = it->receiver;
        link = &chunk.next;
      }
    }
    events_.schedule(at, &Machine::deliver, this, slot);
  }
}

void Machine::deliver(void* self, std::uint64_t slot) {
  Machine& m = *static_cast<Machine*>(self);
  // The slot and each chunk are copied out and freed before their handlers
  // run: the handlers schedule more deliveries.
  const Delivery d = m.deliveries_[static_cast<std::uint32_t>(slot)];
  m.deliveries_.free(static_cast<std::uint32_t>(slot));
  if (d.count == 1) {
    m.receive_each(d.msg, &d.receiver, &d.receiver + 1);
    return;
  }
  std::uint32_t c = d.chunk;
  for (std::uint32_t left = d.count; left > 0;) {
    const ReceiverChunk chunk = m.chunks_[c];
    m.chunks_.free(c);
    const std::uint32_t n = std::min(left, kChunkIds);
    m.receive_each(d.msg, chunk.ids, chunk.ids + n);
    left -= n;
    c = chunk.next;
  }
}

Cycle Machine::send(Cycle t, const mem::CohMsg& m) {
  net::NetPacket p;
  p.src = m.src;
  p.dst = m.dst;
  p.cls = m.carries_data ? net::MsgClass::kData : net::MsgClass::kCoherence;
  arrivals_.clear();
  const Cycle sender_free = net_->inject(t, p, arrivals_);
  if (m.is_broadcast()) {
    expected_deliveries_ += static_cast<std::uint64_t>(mp_.num_cores);
    // Network broadcasts skip the source tile; the sender's co-located
    // cache still receives the invalidation through a local loopback,
    // listed after the network's copies. No network copy of a broadcast
    // arrives by t + 2, so the loopback's place in the list does not
    // change the order in which any cycle's receivers run.
    arrivals_.push_back({m.src, t + 2});
  } else {
    ++expected_deliveries_;
  }
  deliver_arrivals(m);
  return sender_free;
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
