// The dead-counter check: energy is per-event energy times an activity
// count, so every counter an EnergyModel term reads must count something in
// some run. The counters that feed energy are found by raising one counter
// at a time, not from a hand-kept list; a small sweep then names those that
// stay zero in every cell.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "common/counters.hpp"
#include "harness/runner.hpp"
#include "power/energy_model.hpp"

namespace atacsim::harness {
namespace {

/// ATAC+ with Cluster routing, so the 8x2 mesh sends ONet unicasts (its
/// largest distance, 14, is below Distance-15's threshold), and
/// EMesh-BCast.
std::vector<MachineParams> machines() {
  MachineParams atac = atac_plus(PhotonicFlavor::kDefault,
                                 MachineParams::small(8, 2));
  atac.routing = RoutingPolicy::kCluster;
  return {atac, emesh_bcast(MachineParams::small(8, 2))};
}

bool same(const power::EnergyBreakdown& a, const power::EnergyBreakdown& b) {
  bool eq = true;
#define ATACSIM_X(f) eq = eq && a.f == b.f;
  ATACSIM_ENERGY_FIELDS(ATACSIM_X)
#undef ATACSIM_X
  return eq;
}

/// The counters whose value moves `mp`'s energy over a fixed run length.
std::set<std::string> energy_counters(const MachineParams& mp) {
  const power::EnergyModel em(mp);
  constexpr double kCycles = 1e6;
  NetCounters net;
  MemCounters mem;
  CoreCounters core;
  const auto base = em.compute(net, mem, core, kCycles);
  std::set<std::string> out;
  auto raise = [&](const char* name, std::uint64_t& v) {
    v = 1'000'000;
    if (!same(em.compute(net, mem, core, kCycles), base)) out.insert(name);
    v = 0;
  };
  for_each_counter(raise, net);
  for_each_counter(raise, mem);
  for_each_counter(raise, core);
  return out;
}

TEST(EnergyCounters, RaisingOneCounterAtATimeFindsTheEnergyTerms) {
  const auto ms = machines();
  const auto atac = energy_counters(ms[0]);
  const auto emesh = energy_counters(ms[1]);
  EXPECT_EQ(atac.size(), 19u);
  EXPECT_EQ(emesh.size(), 12u);
  EXPECT_TRUE(atac.count("onet_flits_sent"));
  EXPECT_FALSE(emesh.count("onet_flits_sent"));
  EXPECT_TRUE(emesh.count("l1i_accesses"));
}

TEST(EnergyCounters, OnlyL1iAccessesIsZeroInEveryCellOfASmallSweep) {
  std::set<std::string> feeding, counted;
  std::uint64_t onet_unicasts = 0;
  for (const MachineParams& mp : machines()) {
    for (const auto& c : energy_counters(mp)) feeding.insert(c);
    for (const auto& app : apps::app_names()) {
      Scenario s;
      s.app = app;
      s.mp = mp;
      s.scale = 0.05;
      const Outcome o = run_scenario(s);
      ASSERT_TRUE(o.finished && o.verify_msg.empty()) << app;
      onet_unicasts += o.onet_unicasts;
      auto note = [&](const char* name, std::uint64_t v) {
        if (v) counted.insert(name);
      };
      for_each_counter(note, o.run.net);
      for_each_counter(note, o.run.mem);
      for_each_counter(note, o.run.core);
    }
  }
  EXPECT_GT(onet_unicasts, 0u);
  std::set<std::string> dead;
  for (const auto& c : feeding)
    if (!counted.count(c)) dead.insert(c);
  // Nothing counts instruction fetches yet; model v5 counts them and
  // removes l1i_accesses from this set.
  EXPECT_EQ(dead, std::set<std::string>{"l1i_accesses"});
}

}  // namespace
}  // namespace atacsim::harness
