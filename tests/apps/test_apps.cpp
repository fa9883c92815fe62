// Application-workload tests: every benchmark must run to completion on a
// small machine and pass its own host-side correctness check, on multiple
// network/coherence configurations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "common/digest.hpp"
#include "core/program.hpp"

namespace atacsim::apps {
namespace {

// Run every machine in this binary with the cross-layer invariant probes
// armed (src/check); set before main() so env_validation_enabled's cached
// read sees it.
const bool kValidateInit = [] {
  ::setenv("ATACSIM_VALIDATE", "1", 1);
  return true;
}();

struct Case {
  const char* app;
  NetworkKind net;
  CoherenceKind coh;
};

// Names the parameter in the ctest name; without it gtest prints the struct's
// raw bytes, whose pointer changes from run to run.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.app << '/' << to_string(c.net) << '/' << to_string(c.coh);
}

class AppCorrectness : public ::testing::TestWithParam<Case> {};

TEST_P(AppCorrectness, RunsAndVerifies) {
  const auto& tc = GetParam();
  auto mp = MachineParams::small(8, 2);
  mp.network = tc.net;
  mp.coherence = tc.coh;
  mp.r_thres = 6;

  AppConfig cfg;
  cfg.num_cores = mp.num_cores;
  cfg.scale = 0.05;
  auto app = make_app(tc.app, cfg);

  core::Program prog(mp);
  prog.spawn_all(app->body());
  const auto r = prog.run(2'000'000'000);
  ASSERT_TRUE(r.finished) << tc.app << " did not complete";
  EXPECT_TRUE(prog.machine().quiescent());
  EXPECT_EQ(app->verify(), "");
  EXPECT_GT(r.core.instructions, 0u);
  EXPECT_GT(r.completion_cycles, 0u);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto& name : app_names()) {
    cases.push_back({name.c_str(), NetworkKind::kAtacPlus,
                     CoherenceKind::kAckwise});
  }
  // Extension workloads (beyond the paper's eight).
  for (const auto& name : extension_app_names())
    cases.push_back({name.c_str(), NetworkKind::kAtacPlus,
                     CoherenceKind::kAckwise});
  // Cross-config coverage on two representative apps.
  cases.push_back({"radix", NetworkKind::kEMeshBCast, CoherenceKind::kAckwise});
  cases.push_back({"radix", NetworkKind::kEMeshPure, CoherenceKind::kAckwise});
  cases.push_back({"dynamic_graph", NetworkKind::kEMeshBCast,
                   CoherenceKind::kDirKB});
  cases.push_back({"barnes", NetworkKind::kAtacPlus, CoherenceKind::kDirKB});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppCorrectness,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& info) {
                           std::string n = info.param.app;
                           n += info.param.net == NetworkKind::kAtacPlus
                                    ? "_atac"
                                    : (info.param.net == NetworkKind::kEMeshBCast
                                           ? "_bcast"
                                           : "_pure");
                           n += info.param.coh == CoherenceKind::kAckwise
                                    ? "_ackwise"
                                    : "_dirkb";
                           return n;
                         });

TEST(Apps, RegistryKnowsAllEight) {
  EXPECT_EQ(app_names().size(), 8u);
  EXPECT_EQ(extension_app_names().size(), 2u);
  AppConfig cfg;
  cfg.num_cores = 64;
  cfg.scale = 0.05;
  for (const auto& n : app_names()) {
    auto app = make_app(n, cfg);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->name(), n);
  }
  EXPECT_THROW(make_app("nonesuch", cfg), std::invalid_argument);
}

TEST(Apps, CompletionTimeInsensitiveToHeapPlacement) {
  // Two app instances place their data at different host addresses, but
  // Machine::translate numbers simulated frames by first touch, so the
  // host placement cannot reach the timing: both runs take the same
  // number of cycles.
  auto once = [] {
    auto mp = MachineParams::small(8, 2);
    AppConfig cfg;
    cfg.num_cores = mp.num_cores;
    cfg.scale = 0.05;
    auto app = make_app("radix", cfg);
    core::Program prog(mp);
    prog.spawn_all(app->body());
    return prog.run().completion_cycles;
  };
  const Cycle a = once();
  EXPECT_EQ(once(), a);
}

TEST(Apps, DynamicGraphIsIndependentOfHostHeapState) {
  // Machine::translate maps simulated data in first-touch order, so a run
  // depends on the host heap only if simulated arrays are reallocated while
  // it runs (a new array can land on granules a freed one already mapped).
  // Leave the heap in a different state before each run: every run must
  // produce identical counters.
  const auto mp = MachineParams::small(8, 2);
  AppConfig cfg;
  cfg.num_cores = mp.num_cores;
  cfg.scale = 0.05;
  cfg.seed = 15;
  std::vector<core::RunResult> runs;
  std::vector<std::vector<std::uint64_t>> churn;  // outlives every run
  for (int k = 0; k < 8; ++k) {
    // Allocate blocks of up to about the graph arrays' size, then free a
    // different third of them, leaving holes of varied sizes.
    for (int j = 0; j < 8 * (k + 1); ++j)
      churn.emplace_back(
          static_cast<std::size_t>(1000 + (j * 1237 + k * 711) % 30000));
    for (std::size_t j = static_cast<std::size_t>(k % 3); j < churn.size();
         j += 3)
      churn[j] = {};
    auto app = make_app("dynamic_graph", cfg);
    core::Program prog(mp);
    prog.spawn_all(app->body());
    runs.push_back(prog.run());
    ASSERT_TRUE(runs.back().finished);
    EXPECT_EQ(app->verify(), "");
  }
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const auto& a = runs[0];
    const auto& b = runs[k];
    EXPECT_EQ(a.completion_cycles, b.completion_cycles) << "run " << k;
    auto same = [k](const char* f, std::uint64_t x, std::uint64_t y) {
      EXPECT_EQ(x, y) << "run " << k << " " << f;
    };
    for_each_counter(same, a.net, b.net);
    for_each_counter(same, a.mem, b.mem);
    for_each_counter(same, a.core, b.core);
  }
}

// The same check for the paper's other seven apps and the two extension
// workloads, by digest: three runs, each after a different heap churn, must
// fold every counter to one value.
class HostHeapState : public ::testing::TestWithParam<std::string> {};

TEST_P(HostHeapState, RunsAreIndependentOfIt) {
  const auto mp = MachineParams::small(8, 2);
  AppConfig cfg;
  cfg.num_cores = mp.num_cores;
  cfg.scale = 0.05;
  std::vector<std::uint64_t> digests;
  std::vector<std::vector<std::uint64_t>> churn;  // outlives every run
  for (int k = 0; k < 3; ++k) {
    for (int j = 0; j < 8 * (k + 1); ++j)
      churn.emplace_back(
          static_cast<std::size_t>(1000 + (j * 1237 + k * 711) % 30000));
    for (std::size_t j = static_cast<std::size_t>(k % 3); j < churn.size();
         j += 3)
      churn[j] = {};
    auto app = make_app(GetParam(), cfg);
    core::Program prog(mp);
    prog.spawn_all(app->body());
    const auto r = prog.run();
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(app->verify(), "");
    Digest d;
    d.add(r.completion_cycles);
    d.add(r.net);
    d.add(r.mem);
    d.add(r.core);
    digests.push_back(d.value());
  }
  EXPECT_EQ(digests[1], digests[0]);
  EXPECT_EQ(digests[2], digests[0]);
}

std::vector<std::string> other_apps() {
  std::vector<std::string> names;
  for (const auto& n : app_names())
    if (n != "dynamic_graph") names.push_back(n);
  for (const auto& n : extension_app_names()) names.push_back(n);
  return names;
}

INSTANTIATE_TEST_SUITE_P(OtherApps, HostHeapState,
                         ::testing::ValuesIn(other_apps()),
                         [](const auto& info) { return info.param; });

TEST(Apps, TrafficSignatures) {
  // dynamic_graph must be far more broadcast-heavy than lu_contig — the
  // paper's Fig. 5 / Table V contrast that drives every result.
  auto run_mix = [](const char* name) {
    auto mp = MachineParams::small(8, 2);
    AppConfig cfg;
    cfg.num_cores = mp.num_cores;
    cfg.scale = 0.05;
    auto app = make_app(name, cfg);
    core::Program prog(mp);
    prog.spawn_all(app->body());
    const auto r = prog.run(2'000'000'000);
    EXPECT_TRUE(r.finished);
    const double bc = static_cast<double>(r.net.recv_bcast_flits);
    const double uni = static_cast<double>(r.net.recv_unicast_flits);
    return bc / (bc + uni + 1);
  };
  const double dg = run_mix("dynamic_graph");
  const double lu = run_mix("lu_contig");
  EXPECT_GT(dg, lu);
  EXPECT_GT(dg, 0.05);
}

}  // namespace
}  // namespace atacsim::apps
