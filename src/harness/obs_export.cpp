#include "harness/obs_export.hpp"

#include <filesystem>
#include <fstream>

#include "check/probes.hpp"
#include "harness/cache.hpp"
#include "obs/log.hpp"
#include "obs/options.hpp"
#include "obs/timeline.hpp"
#include "power/energy_model.hpp"

namespace atacsim::harness {
namespace fs = std::filesystem;

namespace {

/// One histogram -> the fixed five summary stats. Always emitted (zeros for
/// an empty histogram) so every report row carries the same stat names and
/// CSV columns line up across apps and configs.
void hist_stats(StatList& st, const std::string& prefix,
                const obs::Histogram& h) {
  st.add(prefix + "_count", static_cast<double>(h.count()));
  st.add(prefix + "_p50", static_cast<double>(h.percentile(50)));
  st.add(prefix + "_p90", static_cast<double>(h.percentile(90)));
  st.add(prefix + "_p99", static_cast<double>(h.percentile(99)));
  st.add(prefix + "_max", static_cast<double>(h.max_value()));
}

obs::SeriesDoc build_series(const Scenario& s, const obs::RunObserver& obs) {
  obs::SeriesDoc doc;
  doc.name = s.app + " on " + config_name(s.mp);
  doc.meta_str.emplace_back("app", s.app);
  doc.meta_str.emplace_back("config", config_name(s.mp));
  doc.meta_str.emplace_back("key", scenario_key(s));
  doc.meta_num.emplace_back("epoch_cycles",
                            static_cast<double>(obs.epoch_cycles()));
  doc.meta_num.emplace_back("num_cores",
                            static_cast<double>(s.mp.num_cores));

  const auto& epochs = obs.epochs();
  const std::size_t n = epochs.size();
  auto& t_end = doc.add_column("t_end");
  t_end.reserve(n);
  for (const auto& e : epochs) t_end.push_back(static_cast<double>(e.t_end));
  // One column per listed counter, named by a walk over a blank record and
  // filled by one walk per epoch.
  auto counter_columns = [&](auto block) {
    const std::size_t first = doc.data.size();
    for_each_counter([&](const char* name, auto) { doc.add_column(name); },
                     obs::EpochRecord{}.*block);
    for (const auto& e : epochs) {
      std::size_t c = first;
      for_each_counter(
          [&](auto, auto v) {
            doc.data[c++].push_back(static_cast<double>(v));
          },
          e.*block);
    }
  };
  counter_columns(&obs::EpochRecord::net);
  counter_columns(&obs::EpochRecord::mem);
  counter_columns(&obs::EpochRecord::core);

  const auto& chans = obs.channel_names();
  for (std::size_t c = 0; c < chans.size(); ++c) {
    auto& col = doc.add_column("busy_" + chans[c]);
    col.reserve(n);
    for (const auto& e : epochs)
      col.push_back(c < e.chan_busy.size()
                        ? static_cast<double>(e.chan_busy[c])
                        : 0.0);
  }

  // Per-epoch energy: the same model the report uses, integrated over each
  // window's deltas — so the series' energy columns sum to the run total
  // (modulo the static-power term, which is linear in elapsed cycles and
  // therefore also tiles exactly).
  const power::EnergyModel em(s.mp);
  auto& e_net = doc.add_column("energy_network");
  auto& e_cache = doc.add_column("energy_caches");
  auto& e_dram = doc.add_column("energy_dram");
  auto& e_core = doc.add_column("energy_core");
  auto& e_chip = doc.add_column("energy_chip");
  Cycle prev = 0;
  for (const auto& e : epochs) {
    const auto eb = em.compute(e.net, e.mem, e.core,
                               static_cast<double>(e.t_end - prev));
    e_net.push_back(eb.network());
    e_cache.push_back(eb.caches());
    e_dram.push_back(eb.dram);
    e_core.push_back(eb.core_dd + eb.core_ndd);
    e_chip.push_back(eb.chip());
    prev = e.t_end;
  }
  return doc;
}

}  // namespace

void export_run_obs(const Scenario& s, Outcome& o, const obs::RunObserver& obs,
                    bool validate) {
  const std::string context = s.app + " on " + config_name(s.mp);

  if (validate) {
    NetCounters net;
    MemCounters mem;
    CoreCounters core;
    obs.totals(net, mem, core);
    check::check_epoch_totals(net, o.run.net, mem, o.run.mem, core,
                              o.run.core, context);
  }

  // Histogram summaries ride the report rows. The stat set is fixed — every
  // class/direction/op combination, populated or not — so CSV columns are
  // identical across every obs-armed row.
  for (int bcast = 0; bcast < 2; ++bcast)
    for (int cls = 0; cls < obs::kNumTrafficClasses; ++cls)
      hist_stats(o.obs_stats,
                 std::string("obs_net_lat_") + (bcast ? "bcast_" : "uni_") +
                     obs::traffic_class_name(cls),
                 obs.net_hist(cls, bcast != 0));
  hist_stats(o.obs_stats, "obs_mem_lat_load", obs.mem_hist(false));
  hist_stats(o.obs_stats, "obs_mem_lat_store", obs.mem_hist(true));

  const std::string dir = obs::options().dir;
  if (dir.empty()) return;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    obs::log::warnf("obs: cannot create artifact dir %s: %s", dir.c_str(),
                    ec.message().c_str());
    return;
  }

  const std::string stem = (fs::path(dir) / scenario_key(s)).string();
  const obs::SeriesDoc doc = build_series(s, obs);
  auto emit = [&](const std::string& path, auto writer) {
    std::ofstream os(path);
    writer(os);
    if (!os.good())
      obs::log::warnf("obs: failed writing %s", path.c_str());
  };
  emit(stem + ".series.json",
       [&](std::ostream& os) { obs::write_series_json(os, doc); });
  emit(stem + ".series.csv",
       [&](std::ostream& os) { obs::write_series_csv(os, doc); });
  emit(stem + ".trace.json", [&](std::ostream& os) {
    obs::write_trace_json(os, obs, context);
  });
  obs::log::infof("obs: wrote %s.{series.json,series.csv,trace.json}",
                  stem.c_str());
}

}  // namespace atacsim::harness
