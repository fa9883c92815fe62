#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "common/digest.hpp"
#include "exp/plan.hpp"
#include "harness/cache.hpp"
#include "harness/runner.hpp"

namespace atacsim::harness {
namespace {

Scenario small_scenario(const char* app = "radix") {
  Scenario s;
  s.app = app;
  s.mp = MachineParams::small(8, 2);
  s.scale = 0.05;
  return s;
}

TEST(Runner, RunsAndVerifiesSmallScenario) {
  const auto o = run_scenario(small_scenario());
  EXPECT_TRUE(o.finished);
  EXPECT_EQ(o.verify_msg, "");
  EXPECT_GT(o.run.completion_cycles, 0u);
  EXPECT_GT(o.energy.chip_no_core(), 0.0);
  EXPECT_GT(o.edp(), 0.0);
}

TEST(Runner, ConfigNames) {
  EXPECT_EQ(config_name(atac_plus()), "ATAC+");
  EXPECT_EQ(config_name(atac_plus(PhotonicFlavor::kCons)), "ATAC+(Cons)");
  EXPECT_EQ(config_name(emesh_bcast()), "EMesh-BCast");
  EXPECT_EQ(config_name(emesh_pure()), "EMesh-Pure");
}

TEST(Runner, StandardConfigsAreThePaperMachine) {
  EXPECT_EQ(atac_plus().num_cores, 1024);
  EXPECT_EQ(atac_plus().routing, RoutingPolicy::kDistance);
  EXPECT_EQ(atac_plus().r_thres, 15);
  EXPECT_EQ(emesh_bcast().network, NetworkKind::kEMeshBCast);
}

TEST(ScenarioKey, DistinguishesSimulationRelevantFields) {
  auto a = small_scenario();
  auto b = a;
  EXPECT_EQ(scenario_key(a), scenario_key(b));
  b.mp.r_thres = 7;
  EXPECT_NE(scenario_key(a), scenario_key(b));
  b = a;
  b.mp.coherence = CoherenceKind::kDirKB;
  EXPECT_NE(scenario_key(a), scenario_key(b));
  b = a;
  b.mp.flit_bits = 128;
  EXPECT_NE(scenario_key(a), scenario_key(b));
  b = a;
  b.scale = 0.1;
  EXPECT_NE(scenario_key(a), scenario_key(b));
  // Photonic flavour is energy-only: same key, cached run reused.
  b = a;
  b.mp.photonics = PhotonicFlavor::kCons;
  EXPECT_EQ(scenario_key(a), scenario_key(b));
}

/// A value of the field's type inside [lo, hi] that differs from `v`.
template <class T, class L, class H>
T other(T v, L lo, H hi) {
  return v == static_cast<T>(lo) ? static_cast<T>(hi) : static_cast<T>(lo);
}

/// Digest of every simulated counter of a run.
std::uint64_t sim_digest(const Outcome& o) {
  Digest d;
  d.add(o.run.completion_cycles);
  d.add(o.run.net);
  d.add(o.run.mem);
  d.add(o.run.core);
  return d.value();
}

TEST(ScenarioKey, EverySimulatedFieldChangesTheKey) {
  const auto a = small_scenario();
#define ATACSIM_X(type, name, def, use, lo, hi)          \
  if (FieldUse::use == FieldUse::kSim) {                 \
    auto b = a;                                          \
    b.mp.name = other(b.mp.name, lo, hi);                \
    EXPECT_NE(scenario_key(b), scenario_key(a)) << #name; \
  }
  ATACSIM_MACHINE_FIELDS(ATACSIM_X)
#undef ATACSIM_X
}

TEST(ScenarioKey, EnergyOnlyFieldsKeepTheKeyAndTheSimulation) {
  const auto a = small_scenario();
  const std::uint64_t base = sim_digest(run_scenario(a));
#define ATACSIM_X(type, name, def, use, lo, hi)                \
  if (FieldUse::use == FieldUse::kEnergy) {                    \
    auto b = a;                                                \
    b.mp.name = other(b.mp.name, lo, hi);                      \
    EXPECT_EQ(scenario_key(b), scenario_key(a)) << #name;      \
    EXPECT_EQ(sim_digest(run_scenario(b)), base) << #name;     \
  }
  ATACSIM_MACHINE_FIELDS(ATACSIM_X)
#undef ATACSIM_X
}

TEST(ScenarioKey, CycleCapAndSeventhDigitOfScaleChangeTheKey) {
  const auto a = small_scenario();
  auto b = a;
  b.max_cycles = 1000;  // a cut-off run must not stand in for a full one
  EXPECT_NE(scenario_key(a), scenario_key(b));
  b = a;
  b.scale = 0.05000001;  // differs in the 7th significant digit
  EXPECT_NE(scenario_key(a), scenario_key(b));
}

TEST(ScenarioKey, PlanSimulatesScenariosThatDifferOnlyInClusterWidth) {
  const auto dir = std::filesystem::temp_directory_path() / "atacsim_cache_cw";
  std::filesystem::remove_all(dir);
  setenv("ATACSIM_CACHE", dir.c_str(), 1);

  auto wide = small_scenario();
  wide.mp = MachineParams::small(8, 4);
  exp::ExperimentPlan plan;
  plan.add(small_scenario());
  plan.add(wide);
  exp::ExecOptions opt;
  opt.jobs = 1;
  opt.progress = false;
  const auto res = plan.run(opt);
  unsetenv("ATACSIM_CACHE");

  EXPECT_EQ(res.cells, 2u);
  EXPECT_EQ(res.simulations, 2u);
  EXPECT_EQ(res.outcomes.at(1).run.completion_cycles,
            run_scenario(wide).run.completion_cycles);
  std::filesystem::remove_all(dir);
}

TEST(ScenarioKey, SanitizationIsInjective) {
  // The v2 sanitizer mapped ' ', '/' (and '+', to 'P') onto overlapping
  // outputs, so distinct scenarios could share one cache entry. The
  // percent-encoding scheme must keep every pair distinct.
  auto key_for_app = [](const std::string& app) {
    auto s = small_scenario();
    s.app = app;
    return scenario_key(s);
  };
  const std::vector<std::string> tricky = {"a b",  "a/b", "a-b", "a+b",
                                           "aPb",  "a%b", "a%20b"};
  for (std::size_t i = 0; i < tricky.size(); ++i)
    for (std::size_t j = i + 1; j < tricky.size(); ++j)
      EXPECT_NE(key_for_app(tricky[i]), key_for_app(tricky[j]))
          << '"' << tricky[i] << "\" vs \"" << tricky[j] << '"';
  // Keys stay filesystem-safe: no separators or spaces survive encoding.
  for (const auto& app : tricky) {
    const auto k = key_for_app(app);
    EXPECT_EQ(k.find('/'), std::string::npos) << k;
    EXPECT_EQ(k.find(' '), std::string::npos) << k;
  }
}

/// A synthetic outcome with a distinct value in every persisted field, so
/// any swapped or dropped key in the store/load maps fails a comparison.
Outcome distinct_outcome() {
  Outcome o;
  o.finished = true;
  o.verify_msg = "";
  o.wall_seconds = 1.5;
  o.swmr_utilization = 0.25;
  o.onet_unicasts = 101;
  o.onet_bcasts = 102;
  o.run.finished = true;
  o.run.completion_cycles = 1001;
  o.run.avg_ipc = 0.75;
  std::uint64_t next = 1;
  auto set = [&next](const char*, std::uint64_t& v) { v = next++; };
  for_each_counter(set, o.run.net);
  for_each_counter(set, o.run.mem);
  for_each_counter(set, o.run.core);
  return o;
}

/// Every listed counter name, net then mem then core.
std::vector<std::string> counter_names() {
  std::vector<std::string> names;
  auto name = [&names](const char* k, std::uint64_t) { names.push_back(k); };
  for_each_counter(name, NetCounters{});
  for_each_counter(name, MemCounters{});
  for_each_counter(name, CoreCounters{});
  return names;
}

std::filesystem::path entry_file(const Scenario& s) {
  return std::filesystem::path(cache_dir()) / (scenario_key(s) + ".txt");
}

std::vector<std::string> read_lines(const std::filesystem::path& p) {
  std::ifstream is(p);
  std::vector<std::string> lines;
  for (std::string l; std::getline(is, l);) lines.push_back(l);
  return lines;
}

TEST(Cache, StoreLoadRoundTripFieldForField) {
  const auto dir = std::filesystem::temp_directory_path() / "atacsim_cache_rt";
  std::filesystem::remove_all(dir);
  setenv("ATACSIM_CACHE", dir.c_str(), 1);

  const Outcome o = distinct_outcome();
  const auto s = small_scenario();
  store_cached(s, o);
  Outcome l;
  ASSERT_TRUE(try_load_cached(s, l));
  unsetenv("ATACSIM_CACHE");

  EXPECT_EQ(l.app, s.app);
  EXPECT_EQ(l.finished, o.finished);
  EXPECT_EQ(l.verify_msg, o.verify_msg);
  EXPECT_DOUBLE_EQ(l.wall_seconds, o.wall_seconds);
  EXPECT_DOUBLE_EQ(l.swmr_utilization, o.swmr_utilization);
  EXPECT_EQ(l.onet_unicasts, o.onet_unicasts);
  EXPECT_EQ(l.onet_bcasts, o.onet_bcasts);
  EXPECT_EQ(l.run.finished, o.run.finished);
  EXPECT_EQ(l.run.completion_cycles, o.run.completion_cycles);
  EXPECT_DOUBLE_EQ(l.run.avg_ipc, o.run.avg_ipc);
  auto same = [](const char* k, std::uint64_t a, std::uint64_t b) {
    EXPECT_EQ(a, b) << k;
  };
  for_each_counter(same, l.run.net, o.run.net);
  for_each_counter(same, l.run.mem, o.run.mem);
  for_each_counter(same, l.run.core, o.run.core);
  std::filesystem::remove_all(dir);
}

TEST(Cache, EntryKeepsEveryKeyOlderBuildsRead) {
  const auto dir = std::filesystem::temp_directory_path() / "atacsim_cache_k";
  std::filesystem::remove_all(dir);
  setenv("ATACSIM_CACHE", dir.c_str(), 1);
  const auto s = small_scenario();
  store_cached(s, distinct_outcome());
  const auto lines = read_lines(entry_file(s));
  unsetenv("ATACSIM_CACHE");

  std::vector<std::string> keys = {
      "verify_msg",    "finished",          "wall_seconds",
      "swmr_utilization", "onet_unicasts",  "onet_bcasts",
      "completion_cycles", "total_instructions", "avg_ipc"};
  for (const auto& k : counter_names()) keys.push_back(k);
  for (const auto& k : keys) {
    bool found = false;
    for (const auto& l : lines) found = found || l.rfind(k + "=", 0) == 0;
    EXPECT_TRUE(found) << k;
  }
  std::filesystem::remove_all(dir);
}

TEST(Cache, EntryMissingAnyCounterIsAMiss) {
  const auto dir = std::filesystem::temp_directory_path() / "atacsim_cache_m";
  std::filesystem::remove_all(dir);
  setenv("ATACSIM_CACHE", dir.c_str(), 1);
  const auto s = small_scenario();
  store_cached(s, distinct_outcome());
  const auto file = entry_file(s);
  const auto whole = read_lines(file);
  Outcome l;
  EXPECT_TRUE(try_load_cached(s, l));

  for (const auto& name : counter_names()) {
    {
      std::ofstream os(file, std::ios::trunc);
      for (const auto& line : whole)
        if (line.rfind(name + "=", 0) != 0) os << line << '\n';
    }
    EXPECT_FALSE(try_load_cached(s, l)) << "entry without " << name;
  }
  unsetenv("ATACSIM_CACHE");
  std::filesystem::remove_all(dir);
}

/// One-cell experiment plan: the exp layer's cache-or-simulate path.
exp::PlanResult run_one_cell(const Scenario& s) {
  exp::ExperimentPlan plan;
  plan.add(s);
  exp::ExecOptions opt;
  opt.jobs = 1;
  opt.progress = false;
  return plan.run(opt);
}

TEST(Cache, RoundTripsCountersExactly) {
  const auto dir = std::filesystem::temp_directory_path() / "atacsim_cache_t";
  std::filesystem::remove_all(dir);
  setenv("ATACSIM_CACHE", dir.c_str(), 1);

  const auto fresh_run = run_one_cell(small_scenario());
  const auto cached_run = run_one_cell(small_scenario());
  unsetenv("ATACSIM_CACHE");

  EXPECT_EQ(fresh_run.simulations, 1u);
  EXPECT_EQ(fresh_run.cache_hits, 0u);
  EXPECT_EQ(cached_run.simulations, 0u);
  EXPECT_EQ(cached_run.cache_hits, 1u);
  const auto& fresh = fresh_run.outcomes.at(0);
  const auto& cached = cached_run.outcomes.at(0);
  EXPECT_EQ(fresh.run.completion_cycles, cached.run.completion_cycles);
  EXPECT_EQ(fresh.run.core.instructions, cached.run.core.instructions);
  EXPECT_EQ(fresh.run.net.flits_injected, cached.run.net.flits_injected);
  EXPECT_EQ(fresh.run.mem.dram_reads, cached.run.mem.dram_reads);
  EXPECT_DOUBLE_EQ(fresh.energy.chip_no_core(), cached.energy.chip_no_core());
  // Cached path is a file read, not a multi-second simulation.
  EXPECT_LT(cached.wall_seconds + 0.0, fresh.wall_seconds + 1.0);
  std::filesystem::remove_all(dir);
}

TEST(Cache, FlavorChangesEnergyWithoutResimulation) {
  const auto dir = std::filesystem::temp_directory_path() / "atacsim_cache_f";
  std::filesystem::remove_all(dir);
  setenv("ATACSIM_CACHE", dir.c_str(), 1);

  auto s = small_scenario();
  s.mp.photonics = PhotonicFlavor::kDefault;
  const auto def = run_one_cell(s).outcomes.at(0);
  s.mp.photonics = PhotonicFlavor::kCons;
  const auto cons_run = run_one_cell(s);
  unsetenv("ATACSIM_CACHE");

  EXPECT_EQ(cons_run.cache_hits, 1u);
  const auto& cons = cons_run.outcomes.at(0);
  EXPECT_EQ(def.run.completion_cycles, cons.run.completion_cycles);
  EXPECT_GT(cons.energy.laser, def.energy.laser);
  EXPECT_GT(cons.energy.ring_tuning, 0.0);
  EXPECT_DOUBLE_EQ(def.energy.ring_tuning, 0.0);
  std::filesystem::remove_all(dir);
}

TEST(Runner, CutOffScenarioComesBackUnfinished) {
  auto s = small_scenario();
  s.max_cycles = 1000;  // far short of the run
  Outcome o;
  ASSERT_NO_THROW(o = run_scenario(s));
  EXPECT_FALSE(o.finished);
  EXPECT_EQ(o.verify_msg, "did not complete");
}

TEST(Runner, RecomputeEnergyRespondsToWaveguideLoss) {
  const auto o = run_scenario(small_scenario());
  ASSERT_EQ(o.verify_msg, "");
  const auto mp = small_scenario().mp;
  TechBundle lo, hi;
  hi.photonics.waveguide_loss_dB_per_cm = 4.0;
  const auto elo = recompute_energy(o, mp, lo);
  const auto ehi = recompute_energy(o, mp, hi);
  EXPECT_GT(ehi.laser, elo.laser);
}

}  // namespace
}  // namespace atacsim::harness
