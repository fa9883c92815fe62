#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "harness/cache.hpp"

namespace atacsim::exp {
namespace {

namespace fs = std::filesystem;

harness::Scenario small_scenario(const char* app, std::uint64_t seed = 12345) {
  harness::Scenario s;
  s.app = app;
  s.mp = MachineParams::small(8, 2);
  s.scale = 0.05;
  s.seed = seed;
  return s;
}

/// Scoped private cache directory so tests never touch the shared cache.
class ScopedCacheDir {
 public:
  explicit ScopedCacheDir(const char* tag)
      : dir_(fs::temp_directory_path() / tag) {
    fs::remove_all(dir_);
    setenv("ATACSIM_CACHE", dir_.c_str(), 1);
  }
  ~ScopedCacheDir() {
    unsetenv("ATACSIM_CACHE");
    fs::remove_all(dir_);
  }
  const fs::path& path() const { return dir_; }
  std::size_t entries() const {
    if (!fs::exists(dir_)) return 0;
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      (void)e;
      ++n;
    }
    return n;
  }

 private:
  fs::path dir_;
};

TEST(Plan, CellPoolRunsEveryCellOnceAndRethrowsFirstFailure) {
  ExecOptions opt;
  opt.jobs = 4;
  opt.progress = false;
  std::vector<std::atomic<int>> runs(64);
  std::atomic<bool> bad_worker{false};
  EXPECT_EQ(for_each_cell(runs.size(), opt,
                          [&](int w, std::size_t i) {
                            if (w < 0 || w >= 4) bad_worker.store(true);
                            runs[i].fetch_add(1);
                          }),
            4);
  EXPECT_FALSE(bad_worker.load());
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);

  // Failing cells do not stop the others; the first in cell order wins
  // whichever worker hit its failure first.
  std::vector<std::atomic<int>> ran(16);
  try {
    for_each_cell(ran.size(), opt, [&](int, std::size_t i) {
      ran[i].fetch_add(1);
      if (i == 3 || i == 7)
        throw std::runtime_error("cell " + std::to_string(i));
    });
    ADD_FAILURE() << "a failing cell must be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 3");
  }
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);

  // The pool never outnumbers the cells; no cells, no calls.
  EXPECT_EQ(for_each_cell(2, opt, [](int, std::size_t) {}), 2);
  EXPECT_EQ(for_each_cell(0, opt,
                          [](int, std::size_t) { ADD_FAILURE(); }),
            1);
}

TEST(Plan, DedupesCellsWithIdenticalScenarioKeys) {
  ExperimentPlan plan;
  const auto s = small_scenario("radix");
  const auto h0 = plan.add(s);
  const auto h1 = plan.add(s);  // exact duplicate
  auto flavoured = s;           // photonic flavour is energy-only: same key
  flavoured.mp.photonics = PhotonicFlavor::kCons;
  const auto h2 = plan.add(flavoured);
  auto different = s;
  different.seed = 999;  // simulation-relevant: its own cell
  const auto h3 = plan.add(different);

  EXPECT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.unique_cells(), 2u);
  EXPECT_EQ(h0, 0u);
  EXPECT_EQ(h1, 1u);
  EXPECT_EQ(h2, 2u);
  EXPECT_EQ(h3, 3u);
}

TEST(Plan, SharedCellFansOutWithPerConsumerEnergy) {
  ScopedCacheDir cache("atacsim_exp_fanout");
  ExperimentPlan plan;
  const auto s = small_scenario("radix");
  const auto def = plan.add(s);
  auto cons = s;
  cons.mp.photonics = PhotonicFlavor::kCons;
  const auto hcons = plan.add(cons);

  ExecOptions opt;
  opt.jobs = 2;
  opt.progress = false;
  const auto res = plan.run(opt);

  ASSERT_EQ(res.outcomes.size(), 2u);
  EXPECT_EQ(res.cells, 1u);  // one simulation served both flavours
  const auto& a = res.outcomes[def];
  const auto& b = res.outcomes[hcons];
  EXPECT_EQ(a.run.completion_cycles, b.run.completion_cycles);
  EXPECT_EQ(a.config, "ATAC+");
  EXPECT_EQ(b.config, "ATAC+(Cons)");
  // Cons has no laser gating and heated rings: strictly more energy.
  EXPECT_GT(b.energy.laser, a.energy.laser);
  EXPECT_GT(b.energy.ring_tuning, 0.0);
  EXPECT_DOUBLE_EQ(a.energy.ring_tuning, 0.0);
}

TEST(Plan, ParallelExecutionIsBitIdenticalToSerial) {
  ExperimentPlan plan;
  for (const char* app : {"radix", "fft", "lu_contig", "dynamic_graph"}) {
    plan.add(small_scenario(app));
    auto emesh = small_scenario(app);
    emesh.mp.network = NetworkKind::kEMeshBCast;
    plan.add(emesh);
  }

  PlanResult serial, parallel;
  {
    ScopedCacheDir cache("atacsim_exp_serial");
    ExecOptions opt;
    opt.jobs = 1;
    opt.progress = false;
    serial = plan.run(opt);
    EXPECT_EQ(serial.cache_hits, 0u);
  }
  {
    ScopedCacheDir cache("atacsim_exp_parallel");
    ExecOptions opt;
    opt.jobs = 4;
    opt.progress = false;
    parallel = plan.run(opt);
    EXPECT_EQ(parallel.cache_hits, 0u);
  }

  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    const auto& a = serial.outcomes[i];
    const auto& b = parallel.outcomes[i];
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.verify_msg, "");
    EXPECT_EQ(b.verify_msg, "");
    // NetCounters, MemCounters, energies, derived metrics: every stat the
    // report serializes must be bit-identical (wall clock excluded — it is
    // host time, not simulated state).
    const auto sa = report::outcome_stats(a);
    const auto sb = report::outcome_stats(b);
    ASSERT_EQ(sa.items().size(), sb.items().size());
    for (std::size_t k = 0; k < sa.items().size(); ++k) {
      EXPECT_EQ(sa.items()[k].first, sb.items()[k].first);
      if (sa.items()[k].first == "wall_seconds") continue;
      EXPECT_EQ(sa.items()[k].second, sb.items()[k].second)
          << a.app << "/" << a.config << " stat " << sa.items()[k].first;
    }
  }
}

TEST(Plan, CacheHitsAreCountedOnSecondRun) {
  ScopedCacheDir cache("atacsim_exp_hits");
  ExperimentPlan plan;
  plan.add(small_scenario("radix"));
  plan.add(small_scenario("fft"));
  ExecOptions opt;
  opt.jobs = 2;
  opt.progress = false;
  const auto cold = plan.run(opt);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.simulations, 2u);
  const auto warm = plan.run(opt);
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(warm.simulations, 0u);
  ASSERT_EQ(cold.outcomes.size(), warm.outcomes.size());
  for (std::size_t i = 0; i < cold.outcomes.size(); ++i)
    EXPECT_EQ(cold.outcomes[i].run.completion_cycles,
              warm.outcomes[i].run.completion_cycles);
}

TEST(Cache, StoreCommitIsAtomicAgainstConcurrentReaders) {
  ScopedCacheDir cache("atacsim_exp_atomic");
  const auto s = small_scenario("fft", 31);
  const auto reference = harness::run_scenario(s);
  ASSERT_EQ(reference.verify_msg, "");

  // Hammer the same entry from writer and reader threads; a torn entry
  // would surface as try_load_cached returning true with wrong counters.
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) harness::store_cached(s, reference);
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r)
    readers.emplace_back([&] {
      while (!stop.load()) {
        harness::Outcome o;
        if (harness::try_load_cached(s, o) &&
            o.run.completion_cycles != reference.run.completion_cycles)
          bad.fetch_add(1);
      }
    });
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);

  // No temp-file litter left behind.
  EXPECT_EQ(cache.entries(), 1u);
}

}  // namespace
}  // namespace atacsim::exp
