#include "exp/report.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "check/probes.hpp"
#include "obs/json.hpp"

namespace atacsim::exp::report {
namespace fs = std::filesystem;
using obs::json::escape;
using obs::json::num;

StatList outcome_stats(const harness::Outcome& o) {
  StatList st;
  const auto& r = o.run;
  const auto& e = o.energy;
  auto u = [&](const char* k, std::uint64_t v) {
    st.add(k, static_cast<double>(v));
  };
  // run
  u("completion_cycles", r.completion_cycles);
  st.add("simulated_seconds", o.seconds());
  u("total_instructions", r.core.instructions);
  st.add("avg_ipc", r.avg_ipc);
  u("busy_cycles", r.core.busy_cycles);
  st.add("wall_seconds", o.wall_seconds);
  // network and memory counters
  for_each_counter(u, r.net);
  for_each_counter(u, r.mem);
  // ATAC+ link stats
  st.add("swmr_utilization", o.swmr_utilization);
  u("onet_unicasts", o.onet_unicasts);
  u("onet_bcasts", o.onet_bcasts);
  // energy (Joules): every component, then the subtotals
#define ATACSIM_X(f) st.add("energy_" #f, e.f);
  ATACSIM_ENERGY_FIELDS(ATACSIM_X)
#undef ATACSIM_X
  st.add("energy_network", e.network());
  st.add("energy_caches", e.caches());
  st.add("energy_chip_no_core", e.chip_no_core());
  st.add("energy_chip", e.chip());
  // derived
  st.add("edp", o.edp());
  st.add("bcast_recv_fraction", o.bcast_recv_fraction());
  // telemetry summaries (empty unless the run executed with obs armed, so
  // unarmed reports are byte-identical to pre-telemetry output)
  st.add_all(o.obs_stats);
  if (check::env_validation_enabled())
    check::check_energy_stats(st, o.app + " on " + o.config);
  return st;
}

void write_json(std::ostream& os, const Report& r) {
  os << "{\n"
     << "  \"name\": \"" << escape(r.name) << "\",\n"
     << "  \"schema\": \"atacsim-exp-report-v1\",\n"
     << "  \"jobs\": " << r.jobs << ",\n"
     << "  \"cells\": " << r.cells << ",\n"
     << "  \"cache_hits\": " << r.cache_hits << ",\n"
     << "  \"simulations\": " << r.simulations << ",\n"
     << "  \"wall_seconds\": " << num(r.wall_seconds) << ",\n"
     << "  \"outcomes\": [";
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const auto& o = r.rows[i];
    os << (i ? ",\n" : "\n") << "    {\"app\": \"" << escape(o.app)
       << "\", \"config\": \"" << escape(o.config)
       << "\", \"finished\": " << (o.finished ? "true" : "false")
       << ", \"verify_msg\": \"" << escape(o.verify_msg)
       << "\", \"stats\": {";
    bool first = true;
    for (const auto& [k, v] : o.stats.items()) {
      os << (first ? "" : ", ") << "\"" << escape(k) << "\": " << num(v);
      first = false;
    }
    os << "}}";
  }
  os << "\n  ]\n}\n";
}

void write_csv(std::ostream& os, const Report& r) {
  if (r.rows.empty()) {
    os << "app,config,finished,verify_msg\n";
    return;
  }
  // Stat names are identical across rows; the first row fixes the order.
  os << "app,config,finished,verify_msg";
  for (const auto& [k, v] : r.rows.front().stats.items()) {
    (void)v;
    os << ',' << k;
  }
  os << '\n';
  auto field = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"') q += '"';
      q += c;
    }
    return q + "\"";
  };
  for (const auto& o : r.rows) {
    os << field(o.app) << ',' << field(o.config) << ','
       << (o.finished ? 1 : 0) << ',' << field(o.verify_msg);
    for (const auto& [k, v] : o.stats.items()) {
      (void)k;
      os << ',' << num(v);
    }
    os << '\n';
  }
}

std::string report_dir() {
  if (const char* e = std::getenv("ATACSIM_REPORT_DIR")) return e;
  return "bench_reports";
}

std::vector<std::string> write_report(const Report& r) {
  const fs::path dir = report_dir();
  std::error_code ec;
  fs::create_directories(dir, ec);
  std::vector<std::string> written;
  const fs::path json = dir / (r.name + ".json");
  {
    std::ofstream os(json);
    if (!os) return written;
    write_json(os, r);
    if (!os.good()) return written;
  }
  written.push_back(json.string());
  const fs::path csv = dir / (r.name + ".csv");
  {
    std::ofstream os(csv);
    if (!os) return written;
    write_csv(os, r);
    if (!os.good()) return written;
  }
  written.push_back(csv.string());
  return written;
}

}  // namespace atacsim::exp::report
