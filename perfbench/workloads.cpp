#include "workloads.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "alloc_count.hpp"
#include "apps/app.hpp"
#include "check/probes.hpp"
#include "core/program.hpp"
#include "exp/plan.hpp"
#include "harness/cache.hpp"
#include "harness/obs_export.hpp"
#include "harness/runner.hpp"
#include "network/atac_model.hpp"
#include "network/synthetic.hpp"
#include "obs/json.hpp"
#include "obs/options.hpp"
#include "obs/profile.hpp"
#include "obs/series.hpp"
#include "power/energy_model.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace atacsim;

void Result::fail(std::string why) {
  ++failed;
  errors.push_back(std::move(why));
}

void Result::digest(const std::string& id, const std::string& hex) {
  for (const auto& [k, v] : digests) {
    if (k != id) continue;
    if (v != hex)
      fail("simulated statistics of " + id + " differ between runs: " + v +
           " vs " + hex);
    return;
  }
  digests.emplace_back(id, hex);
}

void Result::set(std::string name, double value) {
  metrics.emplace_back(std::move(name), value);
}

namespace {

using Clock = std::chrono::steady_clock;

// --- workload sizes --------------------------------------------------------
// Full sizes were chosen on a 4-core host so that one scenario takes a few
// seconds of host time; the small sizes (8x2 machine) finish in about a
// second and exist for the benchmark's own tests.
constexpr double kOceanScale = 0.1, kOceanSmallScale = 0.05;
constexpr double kFmmScale = 2.0, kFmmSmallScale = 0.1;
constexpr double kSweepScale = 0.5, kSweepSmallScale = 0.05;
constexpr Cycle kSynthWarmup = 3000, kSynthMeasure = 12000;
constexpr Cycle kSynthSmallWarmup = 500, kSynthSmallMeasure = 2000;
// Set-ups short enough to repeat are also timed on their own this many times
// per run, after the timed loop has warmed the process, so that set-up time
// is a median of many samples. A sweep plan sets up in about 0.1 ms and the
// synthetic cells' network models in microseconds.
constexpr int kSetupRepeats = 100, kSynthSetupRepeats = 1000;
// Passes of harness store/load over every sweep cell, and warm plans, in a
// traced run. A warm plan takes well under a millisecond.
constexpr int kHarnessRepeats = 20, kSmallHarnessRepeats = 2;
constexpr int kWarmPasses = 200, kSmallWarmPasses = 5;
// The modelled clock, as in harness::Outcome::seconds().
constexpr double kSecondsPerCycle = 1e-9;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Moves the calling thread from CPU to CPU of the process's affinity mask,
/// one per timed sample, so that the median of every run mixes the same
/// CPUs. On a shared host the CPUs of one machine differ in speed by up to a
/// quarter for minutes at a time, and a process otherwise stays where the
/// scheduler first put it. The destructor restores the mask; restore it
/// before starting threads, which inherit the caller's affinity.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof mask_, &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
  }
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  void restore() {
    if (cpus_.size() >= 2) sched_setaffinity(0, sizeof mask_, &mask_);
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// --- determinism digest ------------------------------------------------------

/// FNV-1a over the exact bits of every simulated statistic.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(const NetCounters& n) {
#define ATACSIM_X(f) add(static_cast<std::uint64_t>(n.f));
    ATACSIM_NET_COUNTER_FIELDS(ATACSIM_X)
#undef ATACSIM_X
  }
  void add(const core::RunResult& r) {
    add(static_cast<std::uint64_t>(r.finished));
    add(static_cast<std::uint64_t>(r.completion_cycles));
    add(r.net);
#define ATACSIM_X(f) add(static_cast<std::uint64_t>(r.mem.f));
    ATACSIM_MEM_COUNTER_FIELDS(ATACSIM_X)
#undef ATACSIM_X
#define ATACSIM_X(f) add(static_cast<std::uint64_t>(r.core.f));
    ATACSIM_CORE_COUNTER_FIELDS(ATACSIM_X)
#undef ATACSIM_X
  }
  void add(const power::EnergyBreakdown& e) {
    for (double v : {e.laser, e.ring_tuning, e.optical_other, e.enet_dynamic,
                     e.enet_static, e.recvnet, e.hub, e.l1i, e.l1d, e.l2,
                     e.directory, e.dram, e.core_dd, e.core_ndd})
      add(v);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::string outcome_digest(const core::RunResult& r,
                           const power::EnergyBreakdown& e) {
  Digest d;
  d.add(r);
  d.add(e);
  return d.hex();
}

// --- scenarios ---------------------------------------------------------------

MachineParams machine(bool small_mesh, NetworkKind net,
                      PhotonicFlavor flavor = PhotonicFlavor::kDefault) {
  MachineParams mp =
      small_mesh ? MachineParams::small(8, 2) : MachineParams::paper();
  mp.network = net;
  mp.photonics = flavor;
  return mp;
}

std::string scenario_id(const harness::Scenario& s) {
  std::ostringstream os;
  os << s.app << "/" << harness::config_name(s.mp) << "/n" << s.mp.num_cores
     << "/s" << s.scale << "/x" << s.seed;
  return os.str();
}

/// Test hook: an application whose result check always fails.
class FailingVerify : public apps::App {
 public:
  explicit FailingVerify(std::unique_ptr<apps::App> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  core::AppBody body() override { return inner_->body(); }
  std::string verify() const override {
    return "verification failure injected by --fail-verify";
  }

 private:
  std::unique_ptr<apps::App> inner_;
};

// --- scratch directories -------------------------------------------------------

/// Per-process scratch area under the output directory, removed on exit.
class Scratch {
 public:
  explicit Scratch(const Options& o)
      : root_(fs::path(o.out_dir) /
              ("scratch-" + std::to_string(::getpid()))) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  /// A new empty directory, made the process's result-cache directory.
  std::string fresh_cache() {
    const fs::path p = root_ / ("cache" + std::to_string(next_++));
    fs::create_directories(p);
    ::setenv("ATACSIM_CACHE", p.c_str(), 1);
    return p.string();
  }

 private:
  fs::path root_;
  int next_ = 0;
};

// --- per-layer counts ---------------------------------------------------------

/// Simulated activity summed over the scenarios of one workload.
struct LayerCounts {
  NetCounters net;
  MemCounters mem;
  CoreCounters core;
  double bcast_deliveries = 0;
  double latency_sum = 0;
  double latency_n = 0;
  double core_cycles = 0;  ///< completion cycles x cores
  double swmr_sum = 0;
  int swmr_n = 0;
  double network_j = 0;
  double caches_j = 0;

  void add_net(const NetCounters& n, int cores) {
    net.add(n);
    bcast_deliveries += static_cast<double>(n.bcast_packets) * (cores - 1);
    latency_sum += n.packet_latency.sum;
    latency_n += static_cast<double>(n.packet_latency.n);
  }
  void add_run(const core::RunResult& r, int cores) {
    add_net(r.net, cores);
#define ATACSIM_X(f) mem.f += r.mem.f;
    ATACSIM_MEM_COUNTER_FIELDS(ATACSIM_X)
#undef ATACSIM_X
#define ATACSIM_X(f) core.f += r.core.f;
    ATACSIM_CORE_COUNTER_FIELDS(ATACSIM_X)
#undef ATACSIM_X
    core_cycles += static_cast<double>(r.completion_cycles) * cores;
  }
  void add_swmr(double u) {
    swmr_sum += u;
    ++swmr_n;
  }
  void add_energy(const power::EnergyBreakdown& e) {
    network_j += e.network();
    caches_j += e.caches();
  }

  void emit(Result& res) const {
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    res.set("net.unicast_packets", d(net.unicast_packets));
    res.set("net.bcast_packets", d(net.bcast_packets));
    res.set("net.bcast_deliveries", bcast_deliveries);
    res.set("net.flits_injected", d(net.flits_injected));
    res.set("net.enet_link_flits", d(net.enet_link_flits));
    res.set("net.onet_flits_sent", d(net.onet_flits_sent));
    res.set("net.swmr_utilization", swmr_n ? swmr_sum / swmr_n : 0.0);
    res.set("net.latency_mean_cycles",
            latency_n > 0 ? latency_sum / latency_n : 0.0);
    const double l1d = d(mem.l1d_reads + mem.l1d_writes);
    res.set("mem.l1d_accesses", l1d);
    res.set("mem.l1d_misses", d(mem.l1d_misses));
    res.set("mem.l1d_miss_ratio", l1d > 0 ? d(mem.l1d_misses) / l1d : 0.0);
    res.set("mem.l2_misses", d(mem.l2_misses));
    res.set("mem.dir_reads", d(mem.dir_reads));
    res.set("mem.dram_reads", d(mem.dram_reads));
    res.set("mem.invalidations_sent", d(mem.invalidations_sent));
    res.set("mem.bcast_invalidations", d(mem.bcast_invalidations));
    res.set("core.instructions", d(core.instructions));
    res.set("core.busy_share",
            core_cycles > 0 ? d(core.busy_cycles) / core_cycles : 0.0);
    res.set("power.network_j", network_j);
    res.set("power.caches_j", caches_j);
  }
};

/// Latency-histogram percentiles (the obs layer's report stats) as
/// per-layer metrics: the median over the scenarios whose histogram holds
/// samples.
void emit_obs_stats(Result& res, const std::vector<const StatList*>& stats) {
  for (const char* cls : {"net_lat_uni_coh", "net_lat_uni_data",
                          "net_lat_bcast_coh", "mem_lat_load",
                          "mem_lat_store"}) {
    for (const char* p : {"p50", "p99"}) {
      const std::string stat = std::string("obs_") + cls + "_" + p;
      std::vector<double> v;
      for (const StatList* s : stats)
        if (s->has(stat) && s->get(std::string("obs_") + cls + "_count") > 0)
          v.push_back(s->get(stat));
      res.set(std::string("obs.") + cls + "_" + p, median(v));
    }
  }
}

/// The figure metrics summed over `outs`: completion cycles (Fig. 4) and
/// chip energy-delay product (Fig. 8).
void set_sim_totals(Result& res, const std::vector<harness::Outcome>& outs) {
  double cycles = 0, edp = 0;
  for (const auto& o : outs) {
    cycles += static_cast<double>(o.run.completion_cycles);
    edp += o.edp();
  }
  res.set("sim_cycles", cycles);
  res.set("edp_j_s", edp);
}

// --- harness and plan statistics ---------------------------------------------

/// Times harness::store_cached / try_load_cached per entry over `cells`
/// (their outcomes in `outs`), and the energy recompute of every handle per
/// pass, in a fresh cache directory.
void time_harness(const std::vector<harness::Scenario>& cells,
                  const std::vector<harness::Outcome>& outs,
                  const std::vector<harness::Scenario>& handles, int repeats,
                  Scratch& scratch, Tracer& tr, Result& res) {
  scratch.fresh_cache();
  std::vector<double> store_us, load_us, compute_s;
  std::vector<harness::Outcome> loaded(cells.size());
  for (int r = 0; r < repeats; ++r)
    for (std::size_t c = 0; c < cells.size(); ++c) {
      Span span(tr, "harness.store_cached", scenario_id(cells[c]));
      harness::store_cached(cells[c], outs[c]);
      store_us.push_back(span.end() * 1e6);
    }
  for (int r = 0; r < repeats; ++r)
    for (std::size_t c = 0; c < cells.size(); ++c) {
      Span span(tr, "harness.try_load_cached", scenario_id(cells[c]));
      const bool hit = harness::try_load_cached(cells[c], loaded[c]);
      load_us.push_back(span.end() * 1e6);
      if (!hit) res.fail("cache entry missing for " + scenario_id(cells[c]));
    }
  // Each handle recomputes energy from the counters of its cell.
  std::map<std::string, const harness::Outcome*> by_key;
  for (std::size_t c = 0; c < cells.size(); ++c)
    by_key[harness::scenario_key(cells[c])] = &loaded[c];
  for (int r = 0; r < repeats; ++r) {
    Span span(tr, "power.compute_pass", "warm");
    for (const auto& h : handles) {
      const harness::Outcome& o = *by_key.at(harness::scenario_key(h));
      const power::EnergyModel em(h.mp);
      const auto e = em.compute(o.run.net, o.run.mem, o.run.core,
                                static_cast<double>(o.run.completion_cycles));
      if (!(e.chip() > 0)) res.fail("non-positive energy for " + scenario_id(h));
    }
    compute_s.push_back(span.end());
  }
  res.set("harness.store_us", median(store_us));
  res.set("harness.load_us", median(load_us));
  res.set("power.compute_s", median(compute_s));
}

/// Plan statistics: simulations from a cold plan, cache hits from a warm one.
void emit_exp(Result& res, std::size_t handles, const exp::PlanResult& cold,
              const exp::PlanResult& warm) {
  const auto d = [](std::size_t v) { return static_cast<double>(v); };
  res.set("exp.handles", d(handles));
  res.set("exp.cells", d(cold.cells));
  res.set("exp.simulations", d(cold.simulations));
  res.set("exp.cache_hits", d(warm.cache_hits));
  res.set("exp.hit_ratio",
          warm.cells ? d(warm.cache_hits) / d(warm.cells) : 0.0);
  res.set("exp.dedupe_ratio", handles ? d(cold.cells) / d(handles) : 0.0);
}

// --- application scenarios ------------------------------------------------------

struct AppRun {
  core::RunResult run;
  power::EnergyBreakdown energy;
  std::string verify_msg;
  double swmr = 0;
  std::uint64_t onet_unicasts = 0, onet_bcasts = 0;
  double apps_setup_s = 0, core_setup_s = 0;
  double run_s = 0, verify_s = 0, power_s = 0;
  std::uint64_t events = 0, allocs = 0;
  StatList obs_stats;

  double setup_s() const { return apps_setup_s + core_setup_s; }
  double wall_s() const { return run_s + verify_s + power_s; }
};

harness::Outcome to_outcome(const harness::Scenario& s, const AppRun& a) {
  harness::Outcome o;
  o.app = s.app;
  o.config = harness::config_name(s.mp);
  o.finished = a.run.finished;
  o.verify_msg = a.verify_msg;
  o.run = a.run;
  o.energy = a.energy;
  o.wall_seconds = a.run_s;
  o.swmr_utilization = a.swmr;
  o.onet_unicasts = a.onet_unicasts;
  o.onet_bcasts = a.onet_bcasts;
  return o;
}

/// One scenario end to end through the layers' public calls: make_app,
/// Program construction + spawn_all, run, verify, energy. With `arm_obs`
/// the src/obs telemetry observes the run and its stats are exported.
AppRun run_app(const harness::Scenario& s, bool fail_verify, Tracer& tr,
               bool arm_obs) {
  const std::string id = scenario_id(s);
  AppRun a;
  Span whole(tr, "bench.scenario", id);

  apps::AppConfig cfg;
  cfg.num_cores = s.mp.num_cores;
  cfg.scale = s.scale;
  cfg.seed = s.seed;
  Span sp_make(tr, "apps.make_app", id);
  std::unique_ptr<apps::App> app = apps::make_app(s.app, cfg);
  if (fail_verify) app = std::make_unique<FailingVerify>(std::move(app));
  a.apps_setup_s = sp_make.end();

  std::unique_ptr<obs::RunObserver> observer;
  if (arm_obs)
    observer = std::make_unique<obs::RunObserver>(obs::options().epoch_cycles);
  Span sp_setup(tr, "core.setup", id);
  core::Program prog(s.mp, observer.get());
  prog.spawn_all(app->body());
  a.core_setup_s = sp_setup.end();

  Span sp_run(tr, "sim.run", id);
  const std::uint64_t allocs0 = allocations();
  a.run = prog.run(s.max_cycles);
  a.allocs = allocations() - allocs0;
  a.events = prog.machine().events().dispatched();
  a.run_s = sp_run.end(
      {{"events", static_cast<double>(a.events)},
       {"allocs", static_cast<double>(a.allocs)},
       {"completion_cycles", static_cast<double>(a.run.completion_cycles)},
       {"unicast_packets", static_cast<double>(a.run.net.unicast_packets)},
       {"bcast_packets", static_cast<double>(a.run.net.bcast_packets)},
       {"l1d_misses", static_cast<double>(a.run.mem.l1d_misses)},
       {"l2_misses", static_cast<double>(a.run.mem.l2_misses)}});

  Span sp_verify(tr, "apps.verify", id);
  a.verify_msg = a.run.finished ? app->verify() : "did not complete";
  a.verify_s = sp_verify.end();

  if (auto* atac = prog.machine().atac()) {
    a.swmr = atac->link_utilization(a.run.completion_cycles);
    a.onet_unicasts = atac->onet_unicast_packets();
    a.onet_bcasts = atac->onet_bcast_packets();
  }

  Span sp_power(tr, "power.compute", id);
  const power::EnergyModel em(s.mp);
  a.energy = em.compute(a.run.net, a.run.mem, a.run.core,
                        static_cast<double>(a.run.completion_cycles));
  a.power_s = sp_power.end({{"network_j", a.energy.network()},
                            {"caches_j", a.energy.caches()}});
  if (prog.machine().validation()) check::check_energy(a.energy, id);

  if (observer) {
    Span sp_obs(tr, "obs.export", id);
    harness::Outcome out = to_outcome(s, a);
    harness::export_run_obs(s, out, *observer, prog.machine().validation());
    a.obs_stats = out.obs_stats;
  }
  whole.end();
  return a;
}

Result app_workload(const Options& o, Tracer& tr, const char* app,
                    NetworkKind net, double scale, double small_scale) {
  Result res;
  harness::Scenario s;
  s.app = app;
  s.mp = machine(o.small, net);
  s.scale = o.small ? small_scale : scale;
  s.seed = o.seed;
  const std::string id = scenario_id(s);

  auto record = [&](const AppRun& a) {
    ++res.attempted;
    if (!a.verify_msg.empty()) res.fail(id + ": " + a.verify_msg);
    res.digest(id, outcome_digest(a.run, a.energy));
  };

  if (o.validate) {
    record(run_app(s, o.fail_verify, tr, false));
    return res;
  }

  // Timed, untraced scenarios for at least o.seconds.
  Tracer untraced(false);
  std::vector<AppRun> runs;
  std::vector<double> setup, wall;
  CpuRotation cpus;
  const auto t0 = Clock::now();
  do {
    cpus.next();
    runs.push_back(run_app(s, o.fail_verify, untraced, false));
    record(runs.back());
    setup.push_back(runs.back().setup_s());
    wall.push_back(runs.back().wall_s());
    std::fprintf(stderr, "[perfbench] %s: setup %.4f s, wall %.4f s\n",
                 id.c_str(), setup.back(), wall.back());
  } while (seconds_since(t0) < o.seconds);
  cpus.restore();

  const AppRun& base = runs.front();
  if (!o.trace) {
    res.set("setup_s", median(setup));
    res.set("wall_s", median(wall));
    set_sim_totals(res, {to_outcome(s, base)});
    return res;
  }

  // Traced scenario: spans plus src/obs telemetry.
  obs::Options oo = obs::options();
  oo.dir = (fs::path(o.out_dir) / "obs").string();
  obs::set_options(oo);
  const AppRun traced = run_app(s, o.fail_verify, tr, true);
  record(traced);

  res.set("obs.trace_overhead_s", traced.wall_s() - median(wall));
  res.set("sim.events", static_cast<double>(base.events));
  res.set("sim.ns_per_event",
          base.events ? base.run_s * 1e9 / static_cast<double>(base.events)
                      : 0.0);
  res.set("sim.allocs", static_cast<double>(base.allocs));
  res.set("sim.allocs_per_event",
          base.events ? static_cast<double>(base.allocs) /
                            static_cast<double>(base.events)
                      : 0.0);
  LayerCounts lc;
  lc.add_run(base.run, s.mp.num_cores);
  if (net == NetworkKind::kAtacPlus) lc.add_swmr(base.swmr);
  lc.add_energy(base.energy);
  lc.emit(res);
  res.set("core.setup_s", base.core_setup_s);
  res.set("apps.setup_s", base.apps_setup_s);
  res.set("apps.verify_s", base.verify_s);
  emit_obs_stats(res, {&traced.obs_stats});
  return res;
}

// --- sweep_64c -----------------------------------------------------------------

/// The paper apps but dynamic_graph x {ATAC+ in the four Table-IV flavours,
/// EMesh-BCast, EMesh-Pure} on the 8x2 machine: 42 handles over 21
/// simulations. dynamic_graph is left out: in a parallel plan its simulated
/// statistics on ATAC+ now and then differ between two cold plans of one
/// process (seen with seed 15 at scale 0.5), a simulator defect that the
/// determinism digest would report as a failed run.
std::vector<harness::Scenario> sweep_handles(const Options& o) {
  std::vector<MachineParams> configs;
  for (PhotonicFlavor f : {PhotonicFlavor::kIdeal, PhotonicFlavor::kDefault,
                           PhotonicFlavor::kRingTuned, PhotonicFlavor::kCons})
    configs.push_back(machine(true, NetworkKind::kAtacPlus, f));
  configs.push_back(machine(true, NetworkKind::kEMeshBCast));
  configs.push_back(machine(true, NetworkKind::kEMeshPure));
  std::vector<harness::Scenario> handles;
  for (const auto& app : apps::app_names()) {
    if (app == "dynamic_graph") continue;
    for (const auto& mp : configs) {
      harness::Scenario s;
      s.app = app;
      s.mp = mp;
      s.scale = o.small ? kSweepSmallScale : kSweepScale;
      s.seed = o.seed;
      handles.push_back(s);
    }
  }
  return handles;
}

struct PlanRun {
  exp::PlanResult pr;
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t allocs = 0;
};

/// The sweep plan run cold against a fresh cache directory, every cell
/// simulated. The traced run adds the warm path: fresh plans over the same
/// cells answered from the cache, every cell a cache read plus energy
/// recompute.
Result sweep_workload(const Options& o, Tracer& tr) {
  Result res;
  const std::vector<harness::Scenario> handles = sweep_handles(o);
  Scratch scratch(o);

  auto add_handles = [&](exp::ExperimentPlan& plan) {
    for (const auto& h : handles) plan.add(h);
  };

  // One plan over every handle on `jobs` workers (0: one per hardware
  // thread). A cold plan gets a fresh cache directory and must simulate
  // every cell, a warm one none; every handle must verify, with the digest
  // its scenario had before. Set-up time leaves out creating the directory:
  // that cost climbs from run to run with the file system's state (about
  // twofold over six consecutive runs).
  auto run_plan = [&](bool cold, int jobs, Tracer& t) {
    PlanRun c;
    const char* phase = cold ? "cold" : "warm";
    if (cold) scratch.fresh_cache();
    exp::ExperimentPlan plan;
    Span sp_setup(t, "exp.setup", phase);
    add_handles(plan);
    c.setup_s = sp_setup.end();
    exp::ExecOptions eo;
    eo.jobs = jobs;
    eo.progress = false;
    Span sp_run(t, cold ? "exp.cold_plan" : "exp.warm_plan", phase);
    const std::uint64_t allocs0 = allocations();
    c.pr = plan.run(eo);
    c.allocs = allocations() - allocs0;
    c.wall_s = sp_run.end(
        {{"cells", static_cast<double>(c.pr.cells)},
         {"simulations", static_cast<double>(c.pr.simulations)},
         {"cache_hits", static_cast<double>(c.pr.cache_hits)},
         {"jobs", static_cast<double>(c.pr.jobs)}});
    res.attempted += handles.size();
    if (cold && c.pr.cache_hits != 0)
      res.fail("cold plan found " + std::to_string(c.pr.cache_hits) +
               " cells in a fresh cache");
    if (!cold && c.pr.simulations != 0)
      res.fail("warm plan simulated " + std::to_string(c.pr.simulations) +
               " of " + std::to_string(c.pr.cells) + " cells");
    for (std::size_t h = 0; h < handles.size(); ++h) {
      const harness::Outcome& out = c.pr.outcomes[h];
      const std::string id = scenario_id(handles[h]);
      if (!out.finished || !out.verify_msg.empty())
        res.fail(id + ": " +
                 (out.verify_msg.empty() ? "did not complete" : out.verify_msg));
      res.digest(id, outcome_digest(out.run, out.energy));
    }
    return c;
  };

  if (o.validate) {
    run_plan(true, 0, tr);
    run_plan(false, 0, tr);
    return res;
  }

  Tracer untraced(false);
  std::vector<double> setup, wall;
  std::vector<PlanRun> runs;
  const auto t0 = Clock::now();
  do {
    runs.push_back(run_plan(true, 0, untraced));
    setup.push_back(runs.back().setup_s);
    wall.push_back(runs.back().wall_s);
  } while (seconds_since(t0) < o.seconds);
  CpuRotation cpus;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cpus.next();
    exp::ExperimentPlan plan;
    const auto s0 = Clock::now();
    add_handles(plan);
    setup.push_back(seconds_since(s0));
  }
  cpus.restore();
  std::fprintf(stderr, "[perfbench] cold sweep: %zu plans, median %.4f s\n",
               wall.size(), median(wall));
  const PlanRun& base = runs.front();

  if (!o.trace) {
    res.set("setup_s", median(setup));
    res.set("wall_s", median(wall));
    set_sim_totals(res, base.pr.outcomes);
    return res;
  }

  // Traced cold plan with src/obs armed; the self-profile supplies the
  // simulate-phase event count and the worker-pool statistics.
  obs::Options armed = obs::options();
  const obs::Options disarmed = armed;
  armed.enabled = true;
  armed.dir = (fs::path(o.out_dir) / "obs").string();
  obs::SelfProfile::instance().reset();
  obs::set_options(armed);
  const PlanRun traced = run_plan(true, 0, tr);
  obs::set_options(disarmed);
  std::ostringstream prof;
  obs::SelfProfile::instance().write_json(prof, "perfbench");
  obs::json::Value pv;
  std::string perr;
  if (!obs::json::parse(prof.str(), pv, &perr))
    res.fail("self-profile is not valid JSON: " + perr);
  auto num = [&](std::initializer_list<const char*> path) {
    const obs::json::Value* v = &pv;
    for (const char* k : path)
      if (!v || !(v = v->find(k))) return 0.0;
    return v && v->is_number() ? v->number : 0.0;
  };

  // Parallel == serial: the same plan on one worker must reproduce every
  // digest recorded so far. Its cache then serves the warm plans, untimed
  // and then traced; telemetry stays off for them, as an armed plan
  // bypasses cache loads.
  run_plan(true, 1, untraced);
  std::vector<double> warm_s;
  for (int i = 0; i < (o.small ? kSmallWarmPasses : kWarmPasses); ++i)
    warm_s.push_back(run_plan(false, 0, untraced).wall_s);
  const PlanRun warm = run_plan(false, 0, tr);

  res.set("obs.trace_overhead_s", traced.wall_s - median(wall));
  const double events = num({"phases", "simulate", "events"});
  res.set("sim.events", events);
  res.set("sim.ns_per_event",
          events > 0 ? num({"phases", "simulate", "wall_seconds"}) * 1e9 / events
                     : 0.0);
  res.set("sim.allocs", static_cast<double>(base.allocs));
  res.set("sim.allocs_per_event",
          events > 0 ? static_cast<double>(base.allocs) / events : 0.0);
  res.set("apps.verify_s", num({"phases", "verify", "wall_seconds"}));

  // Distinct cells: the first handle of each scenario key.
  std::set<std::string> seen;
  std::vector<std::size_t> cell_handles;
  std::vector<harness::Scenario> cells;
  std::vector<harness::Outcome> cell_outs;
  for (std::size_t h = 0; h < handles.size(); ++h)
    if (seen.insert(harness::scenario_key(handles[h])).second) {
      cell_handles.push_back(h);
      cells.push_back(handles[h]);
      cell_outs.push_back(base.pr.outcomes[h]);
    }
  LayerCounts lc;
  for (const auto& out : cell_outs) {
    lc.add_run(out.run, handles.front().mp.num_cores);
    if (out.config.rfind("ATAC+", 0) == 0) lc.add_swmr(out.swmr_utilization);
  }
  for (const auto& out : base.pr.outcomes) lc.add_energy(out.energy);
  lc.emit(res);
  time_harness(cells, cell_outs, handles,
               o.small ? kSmallHarnessRepeats : kHarnessRepeats, scratch, tr,
               res);
  emit_exp(res, handles.size(), traced.pr, warm.pr);
  res.set("exp.warm_plan_s", median(warm_s));
  res.set("exp.worker_busy_share", num({"pool", "utilization"}));
  res.set("exp.singleflight_waits", num({"pool", "singleflight_waits"}));
  std::vector<const StatList*> stats;
  for (std::size_t h : cell_handles)
    stats.push_back(&traced.pr.outcomes[h].obs_stats);
  emit_obs_stats(res, stats);
  return res;
}

// --- synth_openloop --------------------------------------------------------------

struct SynthCell {
  const char* name;
  NetworkKind net;
  double load;
};

// Two networks at one offered load below saturation and one near it.
const SynthCell kSynthCells[] = {
    {"atac_0.02", NetworkKind::kAtacPlus, 0.02},
    {"atac_0.06", NetworkKind::kAtacPlus, 0.06},
    {"emesh_0.02", NetworkKind::kEMeshBCast, 0.02},
    {"emesh_0.06", NetworkKind::kEMeshBCast, 0.06},
};

struct SynthRun {
  net::SyntheticResult r;
  NetCounters counters;
  power::EnergyBreakdown energy;
  double swmr = -1;  ///< < 0 on electrical networks
  double setup_s = 0, run_s = 0;
  std::uint64_t injections = 0;
};

SynthRun run_synth_cell(const SynthCell& cell, const MachineParams& mp,
                        const net::SyntheticConfig& cfg, bool validate,
                        Tracer& tr) {
  SynthRun s;
  const Cycle window = cfg.warmup_cycles + cfg.measure_cycles;
  Span sp_setup(tr, "net.make_network", cell.name);
  const std::unique_ptr<net::NetworkModel> model = net::make_network(mp);
  const net::MeshGeom geom(mp);
  s.setup_s = sp_setup.end();

  Span sp_run(tr, "net.run_synthetic", cell.name);
  s.r = net::run_synthetic(*model, geom, cfg);
  s.counters = model->counters();
  s.injections = s.counters.unicast_packets + s.counters.bcast_packets;
  s.run_s = sp_run.end(
      {{"injections", static_cast<double>(s.injections)},
       {"packets_measured", static_cast<double>(s.r.packets_measured)}});
  if (auto* atac = dynamic_cast<net::AtacModel*>(model.get()))
    s.swmr = atac->link_utilization(window);
  if (validate) check::check_flow_conservation(s.counters, mp.num_cores, window);

  Span sp_power(tr, "power.compute", cell.name);
  const power::EnergyModel em(mp);
  s.energy = em.compute(s.counters, {}, {}, static_cast<double>(window));
  sp_power.end();
  return s;
}

Result synth_workload(const Options& o, Tracer& tr) {
  Result res;
  net::SyntheticConfig base_cfg;
  base_cfg.bcast_fraction = 0.001;
  base_cfg.warmup_cycles = o.small ? kSynthSmallWarmup : kSynthWarmup;
  base_cfg.measure_cycles = o.small ? kSynthSmallMeasure : kSynthMeasure;
  base_cfg.seed = o.seed;

  // One pass over every cell; returns them in kSynthCells order.
  auto pass = [&](Tracer& t) {
    std::vector<SynthRun> runs;
    for (const SynthCell& cell : kSynthCells) {
      net::SyntheticConfig cfg = base_cfg;
      cfg.offered_load = cell.load;
      runs.push_back(
          run_synth_cell(cell, machine(o.small, cell.net), cfg, o.validate, t));
      const SynthRun& s = runs.back();
      ++res.attempted;
      if (s.r.packets_measured == 0)
        res.fail(std::string(cell.name) + ": no packets measured");
      Digest d;
      d.add(s.counters);
      d.add(s.r.avg_latency_cycles);
      d.add(s.r.max_latency_cycles);
      d.add(s.r.packets_measured);
      d.add(s.r.accepted_flits_per_cycle_per_core);
      d.add(s.energy);
      res.digest(cell.name, d.hex());
    }
    return runs;
  };

  if (o.validate) {
    pass(tr);
    return res;
  }

  auto total = [](const std::vector<SynthRun>& rep,
                  double SynthRun::*field) {
    double sum = 0;
    for (const auto& s : rep) sum += s.*field;
    return sum;
  };
  std::vector<double> setup, wall;
  Tracer untraced(false);
  std::vector<std::vector<SynthRun>> reps;
  CpuRotation cpus;
  const auto t0 = Clock::now();
  do {
    cpus.next();
    reps.push_back(pass(untraced));
    setup.push_back(total(reps.back(), &SynthRun::setup_s));
    wall.push_back(total(reps.back(), &SynthRun::run_s));
    std::fprintf(stderr, "[perfbench] synthetic cells: wall %.4f s\n",
                 wall.back());
  } while (seconds_since(t0) < o.seconds);
  for (int i = 0; i < kSynthSetupRepeats; ++i) {
    cpus.next();
    const auto s0 = Clock::now();
    for (const SynthCell& cell : kSynthCells) {
      const MachineParams mp = machine(o.small, cell.net);
      const std::unique_ptr<net::NetworkModel> model = net::make_network(mp);
      const net::MeshGeom geom(mp);
    }
    setup.push_back(seconds_since(s0));
  }
  cpus.restore();
  const std::vector<SynthRun>& base = reps.front();

  if (!o.trace) {
    // An open-loop cell has no completion time; its unit of work is a
    // packet. sim_cycles sums the cells' mean packet latencies, edp_j_s the
    // cells' network energy per injected packet times that latency.
    double cycles = 0, edp = 0;
    for (const auto& s : base) {
      cycles += s.r.avg_latency_cycles;
      edp += s.energy.network() / static_cast<double>(s.injections) *
             s.r.avg_latency_cycles * kSecondsPerCycle;
    }
    res.set("setup_s", median(setup));
    res.set("wall_s", median(wall));
    res.set("sim_cycles", cycles);
    res.set("edp_j_s", edp);
    return res;
  }

  const std::vector<SynthRun> traced = pass(tr);
  res.set("obs.trace_overhead_s",
          total(traced, &SynthRun::run_s) - median(wall));
  LayerCounts lc;
  for (std::size_t c = 0; c < base.size(); ++c) {
    const SynthCell& cell = kSynthCells[c];
    std::vector<double> inject_ns;
    for (const auto& rep : reps)
      inject_ns.push_back(rep[c].run_s * 1e9 /
                          static_cast<double>(rep[c].injections));
    res.set(std::string("net.inject_ns.") + cell.name, median(inject_ns));
    res.set(std::string("net.latency_cycles.") + cell.name,
            base[c].r.avg_latency_cycles);
    res.set(std::string("net.accepted_flits_per_cycle_per_core.") + cell.name,
            base[c].r.accepted_flits_per_cycle_per_core);
    lc.add_net(base[c].counters, machine(o.small, cell.net).num_cores);
    if (base[c].swmr >= 0) lc.add_swmr(base[c].swmr);
    lc.add_energy(base[c].energy);
  }
  lc.emit(res);
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ocean_bcast_atac", "fmm_unicast_emesh", "sweep_64c", "synth_openloop"};
  return names;
}

Result run_workload(const Options& o, Tracer& tracer) {
  if (o.fail_verify && o.workload != "ocean_bcast_atac" &&
      o.workload != "fmm_unicast_emesh")
    throw std::invalid_argument("--fail-verify applies to the app workloads");
  if (o.workload == "ocean_bcast_atac")
    return app_workload(o, tracer, "ocean_contig", NetworkKind::kAtacPlus,
                        kOceanScale, kOceanSmallScale);
  if (o.workload == "fmm_unicast_emesh")
    return app_workload(o, tracer, "fmm", NetworkKind::kEMeshBCast, kFmmScale,
                        kFmmSmallScale);
  if (o.workload == "sweep_64c") return sweep_workload(o, tracer);
  if (o.workload == "synth_openloop") return synth_workload(o, tracer);
  throw std::invalid_argument("unknown workload: " + o.workload);
}

}  // namespace perfbench
