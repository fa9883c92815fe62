// Command-line experiment driver: run any workload on any machine
// configuration and print a full performance/traffic/energy report.
//
//   $ ./build/examples/run_experiment --app radix --net atac --scale 0.5
//   $ ./build/examples/run_experiment --app fmm --net emesh-bcast
//   $ ./build/examples/run_experiment --app fmm --coherence dirkb --sharers 8
//   $ ./build/examples/run_experiment --config my_machine.cfg --app fft
//   $ ./build/examples/run_experiment --list
//
// Flags: --app NAME  --net atac|emesh-bcast|emesh-pure
//        --flavor ideal|default|ringtuned|cons  --coherence ackwise|dirkb
//        --sharers K  --routing cluster|distance|all  --rthres N
//        --recvnet starnet|bnet  --flits BITS  --scale X  --seed S
// The machine flags are checked like the keys of a --config file; a bad
// value of any flag is an error (exit 2).
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness/config_file.hpp"
#include "harness/runner.hpp"

using namespace atacsim;

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\nsee the header of run_experiment.cpp\n",
               msg.c_str());
  std::exit(2);
}

/// The config-file key a machine flag sets, or null for other flags.
const char* config_key(const std::string& flag) {
  static constexpr const char* kKeys[][2] = {
      {"--net", "network"},          {"--flavor", "photonics"},
      {"--coherence", "coherence"},  {"--sharers", "num_hw_sharers"},
      {"--routing", "routing"},      {"--rthres", "r_thres"},
      {"--recvnet", "receive_net"},  {"--flits", "flit_bits"}};
  for (const auto& k : kKeys)
    if (flag == k[0]) return k[1];
  return nullptr;
}

/// The whole of `v` as a number; anything else is a usage error.
template <class T>
T parse_number(const std::string& flag, const std::string& v) {
  T x{};
  const char* end = v.data() + v.size();
  const auto [p, ec] = std::from_chars(v.data(), end, x);
  if (ec != std::errc() || p != end)
    usage("malformed " + flag + " value '" + v + "'");
  return x;
}

bool known_app(const std::string& name) {
  for (const auto* names : {&apps::app_names(), &apps::extension_app_names()})
    if (std::find(names->begin(), names->end(), name) != names->end())
      return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Scenario s;
  s.app = "radix";
  s.mp = harness::atac_plus();
  s.scale = 0.5;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--list") {
        std::printf("paper benchmarks:");
        for (const auto& n : apps::app_names()) std::printf(" %s", n.c_str());
        std::printf("\nextensions:");
        for (const auto& n : apps::extension_app_names())
          std::printf(" %s", n.c_str());
        std::printf("\n");
        return 0;
      }
      if (i + 1 >= argc) usage("missing value for " + flag);
      const std::string v = argv[++i];
      if (const char* key = config_key(flag)) {
        // One config line per flag, applied in flag order; a '#' or a line
        // break would smuggle in a comment or a second key.
        if (v.find_first_of("#\n") != std::string::npos)
          usage("malformed " + flag + " value '" + v + "'");
        s.mp = harness::parse_machine_config(std::string(key) + " = " + v,
                                             s.mp);
      } else if (flag == "--config") {
        s.mp = harness::load_machine_config(v, s.mp);
      } else if (flag == "--app") {
        if (!known_app(v)) usage("unknown --app " + v + " (see --list)");
        s.app = v;
      } else if (flag == "--scale") {
        s.scale = parse_number<double>(flag, v);
        if (!(s.scale > 0 && std::isfinite(s.scale)))
          usage("--scale must be a positive number, got '" + v + "'");
      } else if (flag == "--seed") {
        s.seed = parse_number<std::uint64_t>(flag, v);
      } else {
        usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    usage(e.what());
  }

  std::printf("running %s on %s (%d cores, %s%d, %s, flits=%d, scale=%.2f)\n",
              s.app.c_str(), harness::config_name(s.mp).c_str(),
              s.mp.num_cores, to_string(s.mp.coherence), s.mp.num_hw_sharers,
              to_string(s.mp.routing), s.mp.flit_bits, s.scale);

  const auto o = harness::run_scenario(s);
  const auto& r = o.run;
  const auto& e = o.energy;
  std::printf("\n-- result --------------------------------------------\n");
  std::printf("finished / verified : %s / %s\n", o.finished ? "yes" : "NO",
              o.verify_msg.empty() ? "ok" : o.verify_msg.c_str());
  std::printf("completion          : %llu cycles (%.3f ms)  wall %.1fs\n",
              (unsigned long long)r.completion_cycles, o.seconds() * 1e3,
              o.wall_seconds);
  std::printf("instructions / IPC  : %llu / %.4f\n",
              (unsigned long long)r.core.instructions, r.avg_ipc);
  std::printf("L2 misses / DRAM    : %llu / %llu+%llu\n",
              (unsigned long long)r.mem.l2_misses,
              (unsigned long long)r.mem.dram_reads,
              (unsigned long long)r.mem.dram_writes);
  std::printf("packets uni / bcast : %llu / %llu  (recv bcast %.1f%%)\n",
              (unsigned long long)r.net.unicast_packets,
              (unsigned long long)r.net.bcast_packets,
              100.0 * o.bcast_recv_fraction());
  if (o.swmr_utilization > 0)
    std::printf("SWMR utilization    : %.2f%%  (uni/bcast on ONet: %.0f)\n",
                100.0 * o.swmr_utilization,
                o.onet_bcasts
                    ? double(o.onet_unicasts) / double(o.onet_bcasts)
                    : 0.0);
  std::printf("\n-- energy (mJ) ---------------------------------------\n");
  std::printf("laser / tuning / optical-other : %.4f / %.4f / %.4f\n",
              e.laser * 1e3, e.ring_tuning * 1e3, e.optical_other * 1e3);
  std::printf("ENet dyn / static / recv / hub : %.4f / %.4f / %.4f / %.4f\n",
              e.enet_dynamic * 1e3, e.enet_static * 1e3, e.recvnet * 1e3,
              e.hub * 1e3);
  std::printf("L1-I / L1-D / L2 / directory   : %.4f / %.4f / %.4f / %.4f\n",
              e.l1i * 1e3, e.l1d * 1e3, e.l2 * 1e3, e.directory * 1e3);
  std::printf("core NDD / DD                  : %.4f / %.4f\n",
              e.core_ndd * 1e3, e.core_dd * 1e3);
  std::printf("chip (net+cache) / chip (+core): %.4f / %.4f\n",
              e.chip_no_core() * 1e3, e.chip() * 1e3);
  std::printf("E-D product (net+cache)        : %.4g mJ*s\n",
              o.edp() * 1e3);
  return o.verify_msg.empty() ? 0 : 1;
}
