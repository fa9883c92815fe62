// Sanitizer smoke test for the exp worker pool: runs a small experiment
// plan on 2 threads (cold cache, so both workers really simulate), re-runs
// it warm, and cross-checks against a serial run. Built unsanitized it is a
// fast end-to-end check; built with -DATACSIM_SANITIZE=thread it is the
// TSan gate for "two Machines really can run on two threads".
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "exp/plan.hpp"
#include "exp/report.hpp"
#include "harness/runner.hpp"

using namespace atacsim;
namespace fs = std::filesystem;

namespace {

int fail(const char* what) {
  std::fprintf(stderr, "exp_smoke FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main() {
  const fs::path cache = fs::temp_directory_path() / "atacsim_exp_smoke";
  fs::remove_all(cache);
  setenv("ATACSIM_CACHE", cache.c_str(), 1);

  exp::ExperimentPlan plan;
  for (const char* app : {"radix", "fft"}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      harness::Scenario s;
      s.app = app;
      s.mp = MachineParams::small(8, 2);
      s.scale = 0.05;
      s.seed = seed;
      plan.add(s);
    }
  }

  exp::ExecOptions two;
  two.jobs = 2;
  const auto cold = plan.run(two);
  if (cold.simulations != 4) return fail("cold run should simulate 4 cells");

  const auto warm = plan.run(two);
  if (warm.cache_hits != 4) return fail("warm run should hit 4 cells");

  fs::remove_all(cache);
  exp::ExecOptions serial;
  serial.jobs = 1;
  serial.progress = false;
  const auto ref = plan.run(serial);

  for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
    if (cold.outcomes[i].run.completion_cycles !=
            ref.outcomes[i].run.completion_cycles ||
        warm.outcomes[i].run.completion_cycles !=
            ref.outcomes[i].run.completion_cycles)
      return fail("parallel/cached counters diverge from serial");
    // The plan returns failed cells as data; the smoke test judges them.
    for (const auto* run : {&cold, &warm, &ref}) {
      const auto& o = run->outcomes[i];
      if (!o.finished || !o.verify_msg.empty())
        return fail("application did not finish or verify");
    }
  }

  fs::remove_all(cache);
  unsetenv("ATACSIM_CACHE");
  std::printf("exp_smoke OK: %zu cells, jobs=%d, %.2fs cold / %.2fs warm\n",
              cold.cells, cold.jobs, cold.wall_seconds, warm.wall_seconds);
  return 0;
}
