#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <string>

#include "check/probes.hpp"
#include "obs/series.hpp"

namespace atacsim::sim {

std::vector<CoreId> Machine::slice_cores(const MachineParams& mp) {
  const net::MeshGeom g(mp);
  std::vector<CoreId> cores;
  cores.reserve(static_cast<std::size_t>(g.num_clusters()));
  for (HubId h = 0; h < g.num_clusters(); ++h) cores.push_back(g.hub_core(h));
  return cores;
}

Machine::Machine(const MachineParams& mp, obs::RunObserver* obs)
    : mp_(mp),
      net_(net::make_network(mp)),
      geom_(mp),
      obs_(obs),
      core_counters_(static_cast<std::size_t>(mp.num_cores)),
      homes_(mp, slice_cores(mp)),
      holders_(mp.num_cores),
      bcast_seq_(static_cast<std::size_t>(homes_.num_slices()) *
                     static_cast<std::size_t>(mp.num_cores),
                 0),
      deferred_marks_(holders_.words()),
      full_handler_(holders_.words()) {
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
  // A handler changes only its own core's state and schedules (never runs)
  // other handlers, so the set taken here stays exact for each receiver
  // until its turn comes.
  const std::uint64_t* held = holders_.find(m.line);
  for (std::size_t w = 0; w < full_handler_.size(); ++w)
    full_handler_[w] = (held ? held[w] : 0) |
                       (debug_ignore_deferred_ ? 0 : deferred_marks_[w]);
  std::uint16_t* seq = &bcast_seq(m.dir_slice, 0);  // the slice's row
  for (const CoreId* r = first; r != last; ++r) {
    const CoreId c = *r;
    if (dropped(c)) continue;
    if (has_core(full_handler_.data(), c)) {
      receive(c, m);
      continue;
    }
    // What the handler would have done at a core that holds nothing.
    ++observed_deliveries_;
    mem::advance_seq(seq[static_cast<std::size_t>(c)], m.seq);
    if (validate_) check_skipped(c, m);
  }
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
  // One event per distinct arrival cycle, running that cycle's receivers in
  // the order the network reported them. Scheduling one event per receiver
  // gives the same order: inject() only returns arrivals and schedules
  // nothing, so those events would carry consecutive sequence numbers and
  // run back to back within their cycle, and any event a handler schedules
  // gets a later sequence number either way. Arrivals are grouped by the
  // cycle schedule() actually uses, which clamps to now().
  for (net::Arrival& a : arrivals_) a.at = std::max(a.at, now());
  // stable_sort allocates a buffer even for one element (every unicast).
  if (arrivals_.size() > 1)
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [](const net::Arrival& a, const net::Arrival& b) {
                       return a.at < b.at;
                     });
  for (auto it = arrivals_.begin(); it != arrivals_.end();) {
    const Cycle at = it->at;
    const auto end =
        std::find_if(it, arrivals_.end(),
                     [at](const net::Arrival& a) { return a.at != at; });
    if (end - it == 1) {  // a lone receiver (every unicast) needs no list
      events_.schedule(at, [this, r = it->receiver, m] {
        receive_each(m, &r, &r + 1);
      });
      ++it;
      continue;
    }
    std::vector<CoreId> receivers;
    receivers.reserve(static_cast<std::size_t>(end - it));
    for (; it != end; ++it) receivers.push_back(it->receiver);
    events_.schedule(at, [this, m, receivers = std::move(receivers)] {
      receive_each(m, receivers.data(), receivers.data() + receivers.size());
    });
  }
}

Cycle Machine::send(Cycle t, const mem::CohMsg& m) {
  net::NetPacket p;
  p.src = m.src;
  p.dst = m.dst;
  p.cls = m.carries_data ? net::MsgClass::kData : net::MsgClass::kCoherence;
  arrivals_.clear();
  const Cycle sender_free = net_->inject(t, p, arrivals_);
  deliver_arrivals(m);
  if (!m.is_broadcast()) {
    ++expected_deliveries_;
    return sender_free;
  }
  expected_deliveries_ += static_cast<std::uint64_t>(mp_.num_cores);
  // Network broadcasts skip the source tile; the sender's co-located cache
  // still receives the invalidation through a local loopback, scheduled
  // after the network's copies.
  arrivals_.assign(1, {m.src, t + 2});
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
