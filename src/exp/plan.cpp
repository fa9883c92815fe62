#include "exp/plan.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "obs/log.hpp"
#include "obs/options.hpp"
#include "obs/profile.hpp"

namespace atacsim::exp {

namespace {

/// Cache-or-simulate one cell without per-consumer finalization: counters
/// only, energy left for the consumer's flavour.
harness::Outcome run_cell(const harness::Scenario& s, bool& cache_hit) {
  harness::Outcome o;
  // Obs-armed runs must simulate (telemetry only exists for executed runs);
  // the result is still stored for later unarmed consumers.
  cache_hit = !obs::options().enabled && harness::try_load_cached(s, o);
  if (!cache_hit) {
    o = harness::run_scenario(s);
    harness::store_cached(s, o);
  }
  return o;
}

/// Stamps a raw (counters-only) outcome with the consumer's identity and
/// energy model.
void finalize(const harness::Scenario& s, harness::Outcome& o) {
  o.app = s.app;
  o.config = harness::config_name(s.mp);
  o.energy = harness::recompute_energy(o, s.mp, TechBundle{});
}

}  // namespace

int pool_size(const ExecOptions& opt, std::size_t cells) {
  const int jobs = opt.jobs > 0
                       ? opt.jobs
                       : static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min<int>(jobs, static_cast<int>(cells)));
}

int for_each_cell(std::size_t cells, const ExecOptions& opt,
                  const std::function<void(int worker, std::size_t i)>& fn) {
  std::vector<std::exception_ptr> errors(cells);
  std::atomic<std::size_t> next{0};
  auto worker = [&](int w) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= cells) return;
      try {
        fn(w, i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const int pool = pool_size(opt, cells);
  if (pool == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(pool));
    for (int w = 0; w < pool; ++w) threads.emplace_back(worker, w);
    for (auto& t : threads) t.join();
  }
  // Deterministic error reporting: the first failing cell in order wins.
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return pool;
}

ExperimentPlan::Handle ExperimentPlan::add(const harness::Scenario& s) {
  const std::string key = harness::scenario_key(s);
  auto [it, inserted] = cell_by_key_.emplace(key, cells_.size());
  if (inserted) cells_.push_back(Cell{s});
  handles_.push_back(HandleEntry{s, it->second});
  return handles_.size() - 1;
}

PlanResult ExperimentPlan::run(const ExecOptions& opt) const {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = cells_.size();

  std::vector<harness::Outcome> raw(n);
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> hits{0};
  std::mutex progress_mu;
  const bool tty = isatty(fileno(stderr)) != 0;

  auto progress = [&](std::size_t d) {
    // Live progress is informational output: the leveled logger's threshold
    // (ATACSIM_LOG) silences it together with the rest of info-level chatter.
    if (!opt.progress || !obs::log::enabled(obs::log::Level::kInfo)) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::lock_guard<std::mutex> lock(progress_mu);
    std::fprintf(stderr, "%s[exp] %zu/%zu cells done, %zu cache hits, %.1fs%s",
                 tty ? "\r" : "", d, n, hits.load(), elapsed,
                 tty ? "\033[K" : "\n");
    if (tty && d == n) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  };

  // Self-profiling (src/obs): per-worker busy time and pool statistics,
  // recorded only when telemetry is armed. Host-time measurements stay in
  // the quarantined profile document, never in outcomes or reports.
  const bool prof = obs::options().enabled;
  const auto slots = static_cast<std::size_t>(pool_size(opt, n));
  std::vector<double> worker_busy(slots, 0.0);
  std::vector<std::uint64_t> worker_cells(slots, 0);

  const int pool = for_each_cell(n, opt, [&](int w, std::size_t i) {
    const auto c0 = std::chrono::steady_clock::now();
    bool hit = false;
    raw[i] = run_cell(cells_[i].s, hit);
    if (hit) hits.fetch_add(1);
    if (prof) {
      worker_busy[static_cast<std::size_t>(w)] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - c0)
              .count();
      ++worker_cells[static_cast<std::size_t>(w)];
    }
    progress(done.fetch_add(1) + 1);
  });

  PlanResult result;
  result.cells = n;
  result.cache_hits = hits.load();
  result.simulations = n - result.cache_hits;
  result.jobs = pool;
  result.outcomes.reserve(handles_.size());
  for (const auto& h : handles_) {
    harness::Outcome o = raw[h.cell];
    finalize(h.s, o);
    result.outcomes.push_back(std::move(o));
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (prof) {
    auto& sp = obs::SelfProfile::instance();
    for (int w = 0; w < pool; ++w)
      sp.add_worker(w, worker_busy[static_cast<std::size_t>(w)],
                    worker_cells[static_cast<std::size_t>(w)]);
    sp.add_pool(pool, n, result.cache_hits, result.simulations,
                result.wall_seconds);
  }
  return result;
}

}  // namespace atacsim::exp
