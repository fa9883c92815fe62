// Validation-layer tests: the clean paths (every app on every network runs
// under ATACSIM_VALIDATE with no probe firing) and the mutation paths (a
// deliberately seeded fault in each layer must trip exactly its probe
// family — a checker that cannot catch a planted bug checks nothing).
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "check/invariant.hpp"
#include "check/probes.hpp"
#include "core/program.hpp"
#include "sim/address_space.hpp"
#include "sim/machine.hpp"

namespace atacsim::check {
namespace {

// Before main(): every Machine/EventQueue in this binary defaults to
// validation on (env_validation_enabled caches its first read).
const bool kEnvInit = [] {
  ::setenv("ATACSIM_VALIDATE", "1", 1);
  return true;
}();

using sim::Machine;

MachineParams tiny(NetworkKind net = NetworkKind::kAtacPlus,
                   CoherenceKind coh = CoherenceKind::kAckwise) {
  auto p = MachineParams::small(4, 2);
  p.network = net;
  p.coherence = coh;
  return p;
}

void access_and_drain(Machine& m, CoreId c, Addr a, bool write) {
  Cycle done = 0;
  m.cache(c).access(a, write, {&done, {}});
  ASSERT_TRUE(m.run(10'000'000));
  ASSERT_GT(done, 0u);
}

// ---------------------------------------------------------------- clean runs

struct CleanCase {
  std::string app;
  NetworkKind net;
};

// Names the parameter in the ctest name; without it gtest prints the struct's
// raw bytes, whose pointer changes from run to run.
void PrintTo(const CleanCase& c, std::ostream* os) {
  *os << c.app << '/' << to_string(c.net);
}

class ValidatedApps : public ::testing::TestWithParam<CleanCase> {};

// Acceptance gate: every paper app on every network model runs execution-
// driven on a small mesh with all probes armed and none firing.
TEST_P(ValidatedApps, RunsCleanUnderValidation) {
  const auto& tc = GetParam();
  auto mp = tiny(tc.net);
  apps::AppConfig cfg;
  cfg.num_cores = mp.num_cores;
  cfg.scale = 0.05;
  auto app = apps::make_app(tc.app, cfg);

  core::Program prog(mp);
  ASSERT_TRUE(prog.machine().validation());  // env default took effect
  prog.spawn_all(app->body());
  core::RunResult r;
  ASSERT_NO_THROW(r = prog.run(2'000'000'000)) << tc.app;
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(app->verify(), "");
  // The run drained, so the end-of-run probes (flow conservation, channel
  // ledgers, delivery accounting) all passed inside Machine::run.
}

std::vector<CleanCase> clean_cases() {
  std::vector<CleanCase> cases;
  for (const auto& name : apps::app_names())
    for (NetworkKind net : {NetworkKind::kAtacPlus, NetworkKind::kEMeshBCast,
                            NetworkKind::kEMeshPure})
      cases.push_back({name, net});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAppsAllNets, ValidatedApps,
                         ::testing::ValuesIn(clean_cases()),
                         [](const auto& info) {
                           std::string n = info.param.app;
                           n += info.param.net == NetworkKind::kAtacPlus
                                    ? "_atac"
                                    : (info.param.net ==
                                               NetworkKind::kEMeshBCast
                                           ? "_bcast"
                                           : "_pure");
                           return n;
                         });

// ---------------------------------------------------- coherence probe fires

TEST(MutationCoherence, ForgottenSharersAreCaught) {
  // Share a line across three cores, then corrupt the home slice so it
  // forgets every tracked copy. The next transaction on the line completes
  // against the (now empty) directory state while the stale Shared copies
  // are still cached — exactly the lost-invalidation bug ACKwise must never
  // have, and the post-transaction probe must flag it.
  Machine m(tiny());
  const Addr a = 0x40000;
  access_and_drain(m, 1, a, false);
  access_and_drain(m, 2, a, false);
  access_and_drain(m, 3, a, false);

  const Addr line = m.cache(1).l2().line_of(a);
  m.directory(m.home_slice(line)).debug_corrupt_forget_line(line);

  try {
    access_and_drain(m, 0, a, true);
    FAIL() << "coherence probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kCoherence);
    EXPECT_EQ(v.subsystem, "directory");
    EXPECT_NE(v.detail.find("untracked"), std::string::npos) << v.what();
  }
}

TEST(MutationCoherence, PointerOverflowAndForeignModifiedAreCaught) {
  mem::DirectorySlice::LineProbe dir;
  dir.state = mem::LineState::kShared;
  dir.ptrs = {1, 2, 3, 4, 5};  // five pointers against k = 4, global unset
  try {
    check_coherence(0x80, dir, {}, /*k=*/4, /*num_cores=*/16, 7);
    FAIL() << "pointer-bound probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kCoherence);
  }

  // Modified copy at a core the directory thinks is a plain sharer.
  dir.ptrs = {1, 2};
  dir.owner = kInvalidCore;
  try {
    check_coherence(0x80, dir, {{2, mem::LineState::kModified}}, 4, 16, 7);
    FAIL() << "foreign-Modified probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kCoherence);
    EXPECT_NE(v.detail.find("non-owner"), std::string::npos) << v.what();
  }
}

// Shares `a` among cores 1-5: more than k = 4 sharers, so the home falls
// back to its global bit and the next write broadcasts the invalidation.
// Returns the line.
Addr share_past_k(Machine& m, Addr a) {
  for (CoreId c = 1; c <= 5; ++c) access_and_drain(m, c, a, false);
  return m.cache(1).l2().line_of(a);
}

TEST(MutationCoherence, HolderIndexMissIsCaught) {
  // Under ACKwise a broadcast runs the full handler only at the cores the
  // holder index names. An index that forgets one holder would leave its
  // Shared copy alive after the broadcast; the cross-check of every skipped
  // receiver against the cache itself must flag the skipped delivery.
  Machine m(tiny());
  const Addr a = 0x40000;
  const Addr line = share_past_k(m, a);
  ASSERT_TRUE(m.holders().holds(line, 3));
  m.holders().remove(line, 3);  // seeded fault

  try {
    access_and_drain(m, 0, a, true);
    FAIL() << "skipped-holder probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kCoherence);
    EXPECT_EQ(v.subsystem, "machine");
    EXPECT_EQ(v.core, 3);
    EXPECT_NE(v.detail.find("an L2 copy"), std::string::npos) << v.what();
  }
}

/// An access issued at a chosen cycle of a drain.
struct TimedAccess {
  Machine* m;
  CoreId core;
  Addr addr;
  bool write;
  Cycle done = 0;
};

void issue_timed(void* access, std::uint64_t) {
  auto& a = *static_cast<TimedAccess*>(access);
  a.m->cache(a.core).access(a.addr, a.write, {&a.done, {}});
}

TEST(MutationCoherence, SkippedDeferredUnicastIsCaughtOnADirectedSequence) {
  // A core with unicasts from a slice deferred behind that slice's next
  // broadcast must run the broadcast's handler, which releases them. With
  // cluster routing, core 8's read of a line of slice 1 takes its cluster's
  // receive network just as core 4's write broadcasts the invalidation of
  // line 0x40080 (slice 2), whose other sharers are cores 10, 6, 13 and 1;
  // core 10's read of line 0x80080, which core 8 owns, makes slice 2 send
  // core 8 a flush request that overtakes the broadcast and is deferred.
  // Once it is, the seeded fault clears core 8's deferred mark, so core 8
  // is skipped like a core that holds nothing, and the cross-check must
  // flag it at its run.
  auto mp = tiny();
  mp.routing = RoutingPolicy::kCluster;
  Machine m(mp);
  const Addr line = 0x40080, owned = 0x80080, other = 0xc0040;
  for (const CoreId c : {4, 10, 6, 13, 1}) access_and_drain(m, c, line, false);
  access_and_drain(m, 8, owned, true);
  access_and_drain(m, 4, other, false);
  std::vector<TimedAccess> accesses = {
      {&m, 4, line, true}, {&m, 10, owned, false}, {&m, 8, other, false}};
  const std::vector<Cycle> offsets = {8, 10, 4};
  for (std::size_t i = 0; i < accesses.size(); ++i)
    m.events().schedule(m.now() + offsets[i], issue_timed, &accesses[i], 0);
  try {
    const Addr bcast_line = m.cache(8).l2().line_of(line);
    const Cycle stop = m.now() + 10'000;
    for (Cycle t = m.now() + 1; !m.cache(8).holding(bcast_line, 2) && t < stop;
         ++t)
      m.run(t);
    ASSERT_STREQ(m.cache(8).holding(bcast_line, 2), "a deferred unicast");
    m.mark_deferred(8, 2, false);  // seeded fault
    m.run(10'000'000);
    FAIL() << "skipped-deferred probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kCoherence);
    EXPECT_EQ(v.subsystem, "machine");
    EXPECT_EQ(v.core, 8);
    EXPECT_NE(v.detail.find("a deferred unicast"), std::string::npos)
        << v.what();
  }
}

// --------------------------------------------------------- flow probe fires

TEST(MutationFlow, LostFlitsAreCaught) {
  NetCounters n;
  n.unicast_flits_offered = 10;
  n.recv_unicast_flits = 9;  // one payload flit vanished in the network
  try {
    check_flow_conservation(n, /*num_cores=*/16, 123);
    FAIL() << "unicast conservation probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kFlow);
    EXPECT_EQ(v.cycle, 123u);
  }

  NetCounters b;
  b.bcast_flits_offered = 2;
  b.recv_bcast_flits = 2 * 14;  // one receiver short of 2 x (16 - 1)
  EXPECT_THROW(check_flow_conservation(b, 16, 0), InvariantViolation);
}

TEST(MutationFlow, OverfullChannelLedgerIsCaught) {
  // 3 channels over 100 elapsed cycles can serve at most 300 busy cycles.
  const std::vector<net::ChannelUsage> usage = {{"enet.links", 301, 3}};
  try {
    check_channel_usage(usage, 100);
    FAIL() << "ledger probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kFlow);
    EXPECT_NE(v.detail.find("enet.links"), std::string::npos);
  }
  // Exactly at capacity is legal.
  EXPECT_NO_THROW(check_channel_usage({{"enet.links", 300, 3}}, 100));
}

TEST(MutationFlow, DroppedDeliveryIsCaught) {
  EXPECT_NO_THROW(check_delivery(42, 42, "coherence deliveries", 9));
  try {
    check_delivery(42, 41, "coherence deliveries", 9);
    FAIL() << "delivery probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kFlow);
    EXPECT_EQ(v.subsystem, "machine");
  }
}

TEST(MutationFlow, DroppedBroadcastReceiverIsCaught) {
  // Core 0's write broadcasts an invalidation of a line cores 1-5 share.
  // Losing one receiver of it must trip the end-of-run delivery probe both
  // when the lost core holds the line (core 3: it runs the full handler)
  // and when it holds nothing (core 10: the Machine skips its handler and
  // only advances its sequence number), which shows that skipped receivers
  // are still counted one by one.
  for (const CoreId lost : {3, 10}) {
    SCOPED_TRACE(lost);
    Machine m(tiny());
    const Addr a = 0x40000;
    const Addr line = share_past_k(m, a);
    ASSERT_EQ(m.holders().holds(line, lost), lost == 3);
    m.debug_drop_bcast_receiver(lost);  // seeded fault
    Cycle done = 0;
    m.cache(0).access(a, true, {&done, {}});
    try {
      m.run(10'000'000);
      FAIL() << "delivery probe did not fire";
    } catch (const InvariantViolation& v) {
      EXPECT_EQ(v.probe, Probe::kFlow);
      EXPECT_NE(v.detail.find("coherence deliveries"), std::string::npos)
          << v.what();
    }
    EXPECT_EQ(m.mem_counters().bcast_invalidations, 1u);
  }
}

// ------------------------------------------------------- energy probe fires

TEST(MutationEnergy, NonFiniteAndNegativeComponentsAreCaught) {
  power::EnergyBreakdown e;
  e.laser = 1.0;
  EXPECT_NO_THROW(check_energy(e, "clean"));

  e.l2 = -1e-9;
  EXPECT_THROW(check_energy(e, "negative"), InvariantViolation);

  e.l2 = 0.0;
  e.enet_dynamic = std::numeric_limits<double>::quiet_NaN();
  try {
    check_energy(e, "nan");
    FAIL() << "energy probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kEnergy);
    EXPECT_NE(v.detail.find("enet_dynamic"), std::string::npos);
  }
}

TEST(MutationEnergy, TotalsMustSumFromComponents) {
  // A consistent breakdown exported through the reporting path passes.
  auto consistent = [] {
    StatList st;
    st.add("energy_laser", 1.0);
    st.add("energy_ring_tuning", 0.5);
    st.add("energy_optical_other", 0.25);
    st.add("energy_enet_dynamic", 2.0);
    st.add("energy_enet_static", 1.0);
    st.add("energy_recvnet", 0.5);
    st.add("energy_hub", 0.75);
    st.add("energy_l1i", 0.1);
    st.add("energy_l1d", 0.2);
    st.add("energy_l2", 0.3);
    st.add("energy_directory", 0.4);
    st.add("energy_core_dd", 3.0);
    st.add("energy_core_ndd", 1.5);
    st.add("energy_network", 6.0);
    st.add("energy_caches", 1.0);
    st.add("energy_chip_no_core", 7.0);
    st.add("energy_chip", 11.5);
    return st;
  };
  EXPECT_NO_THROW(check_energy_stats(consistent(), "clean"));

  // Tamper with the exported total: it no longer matches its components.
  // Named: a range-for over a temporary's items() would read freed memory.
  const StatList clean = consistent();
  StatList wrong;
  for (const auto& [k, v] : clean.items())
    wrong.add(k, k == "energy_network" ? v + 1e-3 : v);
  try {
    check_energy_stats(wrong, "tampered");
    FAIL() << "energy-sum probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kEnergy);
    EXPECT_NE(v.detail.find("energy_network"), std::string::npos);
  }

  StatList nonfinite = consistent();
  nonfinite.add("edp", std::numeric_limits<double>::infinity());
  EXPECT_THROW(check_energy_stats(nonfinite, "inf"), InvariantViolation);
}

// ------------------------------------------------------ address probe fires

/// Core 3 reads `first`, computes past cycle 5000 and reads `second`; the
/// other cores touch nothing.
core::AppBody read_twice(std::uint64_t* first, std::uint64_t* second,
                         const sim::AddressSpace* space) {
  return {[first, second](core::CoreCtx& c) -> core::Task {
            if (c.id() != 3) co_return;
            co_await c.read(first);
            co_await c.compute(5000);
            co_await c.read(second);
          },
          space};
}

TEST(MutationAddress, WordOutsideTheSpaceIsCaughtWithCoreAndCycle) {
  sim::AddressSpace space;
  std::uint64_t& inside = space.make<std::uint64_t>();
  const auto outside = std::make_unique<std::uint64_t>(0);
  core::Program prog(tiny());
  prog.spawn_all(read_twice(&inside, outside.get(), &space));
  try {
    prog.run(10'000'000);
    FAIL() << "address probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kAddress);
    EXPECT_EQ(v.subsystem, "machine");
    EXPECT_EQ(v.core, 3);
    EXPECT_GE(v.cycle, 5000u);
    EXPECT_NE(v.detail.find("outside the address space"), std::string::npos)
        << v.detail;
  }
}

TEST(MutationAddress, BodyWithNoSpaceMayNotTouchMemory) {
  const auto word = std::make_unique<std::uint64_t>(0);
  core::Program prog(tiny());
  prog.spawn_all([w = word.get()](core::CoreCtx& c) -> core::Task {
    co_await c.compute(10);
    co_await c.rmw(w, [](std::uint64_t v) { return v + 1; });
  });
  try {
    prog.run(10'000'000);
    FAIL() << "address probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kAddress);
    EXPECT_NE(v.core, kInvalidCore);
    EXPECT_NE(v.detail.find("no address space"), std::string::npos)
        << v.detail;
  }
}

TEST(MutationAddress, WordOutsideTheSpaceIsRefusedWithValidationOff) {
  sim::AddressSpace space;
  std::uint64_t& inside = space.make<std::uint64_t>();
  const auto outside = std::make_unique<std::uint64_t>(0);
  core::Program prog(tiny(), nullptr, /*validate=*/false);
  prog.spawn_all(read_twice(&inside, outside.get(), &space));
  try {
    prog.run(10'000'000);
    FAIL() << "a pointer outside the space was translated";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kAddress);
    EXPECT_EQ(v.core, 3);
    EXPECT_NE(v.detail.find("outside the address space"), std::string::npos)
        << v.detail;
  }
}

TEST(MutationAddress, BodyWithNoSpaceIsRefusedWithValidationOff) {
  const auto word = std::make_unique<std::uint64_t>(0);
  core::Program prog(tiny(), nullptr, /*validate=*/false);
  prog.spawn_all([w = word.get()](core::CoreCtx& c) -> core::Task {
    co_await c.read(w);
  });
  try {
    prog.run(10'000'000);
    FAIL() << "a body with no space touched memory";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kAddress);
    EXPECT_NE(v.detail.find("no address space"), std::string::npos)
        << v.detail;
  }
}

TEST(MutationAddress, WordsInsideTheSpacePass) {
  sim::AddressSpace space;
  std::uint64_t& first = space.make<std::uint64_t>(7);
  std::uint64_t* second = space.array<std::uint64_t>(4).data() + 3;
  core::Program prog(tiny());
  prog.spawn_all(read_twice(&first, second, &space));
  core::RunResult r;
  ASSERT_NO_THROW(r = prog.run(10'000'000));
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.mem.l1d_reads, 2u);
}

// -------------------------------------------------------- clock probe fires

TEST(MutationClock, BackwardsDispatchIsCaught) {
  EventQueue q;
  ASSERT_TRUE(q.validation());  // env default took effect
  q.schedule(5, [](void*, std::uint64_t) {}, nullptr, 0);
  q.debug_set_now(10);  // seeded fault: clock ahead of the pending event
  try {
    q.run();
    FAIL() << "clock probe did not fire";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.probe, Probe::kClock);
    EXPECT_EQ(v.subsystem, "event_queue");
    EXPECT_EQ(v.cycle, 10u);
  }
}

TEST(Invariant, MessageCarriesStructuredFields) {
  const InvariantViolation v(Probe::kFlow, "network", 42, 7, "boom");
  EXPECT_EQ(v.probe, Probe::kFlow);
  EXPECT_EQ(v.cycle, 42u);
  EXPECT_EQ(v.core, 7);
  const std::string msg = v.what();
  EXPECT_NE(msg.find("[flow]"), std::string::npos);
  EXPECT_NE(msg.find("cycle 42"), std::string::npos);
  EXPECT_NE(msg.find("core 7"), std::string::npos);
  EXPECT_NE(msg.find("boom"), std::string::npos);
}

}  // namespace
}  // namespace atacsim::check
