#include "harness/cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/counters.hpp"

namespace atacsim::harness {
namespace fs = std::filesystem;

std::string cache_dir() {
  if (const char* e = std::getenv("ATACSIM_CACHE")) return e;
  return "bench_cache";
}

std::string scenario_key(const Scenario& s) {
  // Model-version prefix: bump whenever a simulator change alters counters
  // for an unchanged scenario (e.g. v2 = deterministic first-touch address
  // translation, v3 = offered-flit conservation counters + injective key
  // sanitization, v4 = dynamic_graph builds both graph versions up front),
  // so stale cache entries from older binaries are ignored rather than
  // silently served.
  constexpr const char* kModelVersion = "v4";
  const auto& m = s.mp;
  std::ostringstream k;
  k << kModelVersion << "_" << s.app << "_n" << m.num_cores << "_"
    << to_string(m.network) << "_rt";
  switch (m.routing) {
    case RoutingPolicy::kCluster: k << "C"; break;
    case RoutingPolicy::kDistance: k << "D" << m.r_thres; break;
    case RoutingPolicy::kDistanceAll: k << "A"; break;
  }
  k << "_" << to_string(m.receive_net) << "_f" << m.flit_bits << "_"
    << to_string(m.coherence) << m.num_hw_sharers << "_t" << m.onet_link_delay
    << "." << m.onet_select_data_lag << "." << m.starnets_per_cluster << "_s"
    << s.scale << "_x" << s.seed;
  // Injective filename sanitization: every byte outside [A-Za-z0-9._-] is
  // percent-encoded ('%' itself included), so two distinct scenarios can
  // never share a cache entry. (The old map sent both ' ' and '/' to '-',
  // which collided e.g. app names differing only in those characters.)
  const std::string raw = k.str();
  std::string key;
  key.reserve(raw.size());
  for (const char rc : raw) {
    const unsigned char c = static_cast<unsigned char>(rc);
    const bool safe = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    if (safe) {
      key += rc;
    } else {
      static const char* hex = "0123456789ABCDEF";
      key += '%';
      key += hex[c >> 4];
      key += hex[c & 0xF];
    }
  }
  return key;
}

namespace {

void store(std::ostream& os, const Outcome& o) {
  const auto& r = o.run;
  std::map<std::string, double> kv = {
      {"finished", o.finished ? 1.0 : 0.0},
      {"wall_seconds", o.wall_seconds},
      {"swmr_utilization", o.swmr_utilization},
      {"onet_unicasts", static_cast<double>(o.onet_unicasts)},
      {"onet_bcasts", static_cast<double>(o.onet_bcasts)},
      {"completion_cycles", static_cast<double>(r.completion_cycles)},
      {"total_instructions", static_cast<double>(r.total_instructions)},
      {"avg_ipc", r.avg_ipc},
      {"busy_cycles", static_cast<double>(r.core.busy_cycles)},
  };
#define ATACSIM_X(f) kv[#f] = static_cast<double>(r.net.f);
  ATACSIM_NET_COUNTER_FIELDS(ATACSIM_X)
#undef ATACSIM_X
#define ATACSIM_X(f) kv[#f] = static_cast<double>(r.mem.f);
  ATACSIM_MEM_COUNTER_FIELDS(ATACSIM_X)
#undef ATACSIM_X
  os << "verify_msg=" << o.verify_msg << '\n';
  os.precision(17);  // counters are exact integers stored as doubles
  for (const auto& [key, v] : kv) os << key << '=' << v << '\n';
}

bool load(std::istream& is, Outcome& o) {
  std::map<std::string, double> kv;
  std::string line;
  bool have_verify = false;
  while (std::getline(is, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    if (key == "verify_msg") {
      o.verify_msg = val;
      have_verify = true;
    } else {
      kv[key] = std::strtod(val.c_str(), nullptr);
    }
  }
  if (!have_verify || !kv.count("completion_cycles")) return false;
  auto g = [&](const char* k) { return kv.count(k) ? kv[k] : 0.0; };
  auto gu = [&](const char* k) { return static_cast<std::uint64_t>(g(k)); };
  o.finished = g("finished") > 0.5;
  o.wall_seconds = g("wall_seconds");
  o.swmr_utilization = g("swmr_utilization");
  o.onet_unicasts = gu("onet_unicasts");
  o.onet_bcasts = gu("onet_bcasts");
  auto& r = o.run;
  r.finished = o.finished;
  r.completion_cycles = gu("completion_cycles");
  r.total_instructions = gu("total_instructions");
  r.avg_ipc = g("avg_ipc");
  r.core.instructions = r.total_instructions;
  r.core.busy_cycles = gu("busy_cycles");
#define ATACSIM_X(f) r.net.f = gu(#f);
  ATACSIM_NET_COUNTER_FIELDS(ATACSIM_X)
#undef ATACSIM_X
#define ATACSIM_X(f) r.mem.f = gu(#f);
  ATACSIM_MEM_COUNTER_FIELDS(ATACSIM_X)
#undef ATACSIM_X
  return true;
}

fs::path entry_path(const Scenario& s) {
  return fs::path(cache_dir()) / (scenario_key(s) + ".txt");
}

}  // namespace

bool try_load_cached(const Scenario& s, Outcome& o) {
  o = Outcome{};
  o.app = s.app;
  o.config = config_name(s.mp);
  std::ifstream is(entry_path(s));
  return is && load(is, o);
}

void store_cached(const Scenario& s, const Outcome& o) {
  const fs::path file = entry_path(s);
  fs::create_directories(file.parent_path());
  // Unique temp name per process and store() call, committed with an atomic
  // rename so concurrent readers never see a torn entry and competing
  // writers simply race to install equivalent contents.
  static std::atomic<std::uint64_t> seq{0};
  fs::path tmp = file;
  tmp += ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1));
  {
    std::ofstream os(tmp);
    store(os, o);
    if (!os.good()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp, file, ec);
  if (ec) fs::remove(tmp, ec);
}

}  // namespace atacsim::harness
