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
#include <cstdio>
#include <cstring>
#include <string>

#include "harness/config_file.hpp"
#include "harness/runner.hpp"

using namespace atacsim;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\nsee the header of run_experiment.cpp\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  harness::Scenario s;
  s.app = "radix";
  s.mp = harness::atac_plus();
  s.scale = 0.5;

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
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--config") {
      s.mp = harness::load_machine_config(v, s.mp);
    } else if (flag == "--app") {
      s.app = v;
    } else if (flag == "--net") {
      if (v == "atac") s.mp.network = NetworkKind::kAtacPlus;
      else if (v == "emesh-bcast") s.mp.network = NetworkKind::kEMeshBCast;
      else if (v == "emesh-pure") s.mp.network = NetworkKind::kEMeshPure;
      else usage("unknown --net");
    } else if (flag == "--flavor") {
      if (v == "ideal") s.mp.photonics = PhotonicFlavor::kIdeal;
      else if (v == "default") s.mp.photonics = PhotonicFlavor::kDefault;
      else if (v == "ringtuned") s.mp.photonics = PhotonicFlavor::kRingTuned;
      else if (v == "cons") s.mp.photonics = PhotonicFlavor::kCons;
      else usage("unknown --flavor");
    } else if (flag == "--coherence") {
      if (v == "ackwise") s.mp.coherence = CoherenceKind::kAckwise;
      else if (v == "dirkb") s.mp.coherence = CoherenceKind::kDirKB;
      else usage("unknown --coherence");
    } else if (flag == "--sharers") {
      s.mp.num_hw_sharers = std::atoi(v.c_str());
    } else if (flag == "--routing") {
      if (v == "cluster") s.mp.routing = RoutingPolicy::kCluster;
      else if (v == "distance") s.mp.routing = RoutingPolicy::kDistance;
      else if (v == "all") s.mp.routing = RoutingPolicy::kDistanceAll;
      else usage("unknown --routing");
    } else if (flag == "--rthres") {
      s.mp.r_thres = std::atoi(v.c_str());
    } else if (flag == "--recvnet") {
      if (v == "starnet") s.mp.receive_net = ReceiveNet::kStarNet;
      else if (v == "bnet") s.mp.receive_net = ReceiveNet::kBNet;
      else usage("unknown --recvnet");
    } else if (flag == "--flits") {
      s.mp.flit_bits = std::atoi(v.c_str());
    } else if (flag == "--scale") {
      s.scale = std::atof(v.c_str());
    } else if (flag == "--seed") {
      s.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  s.mp.validate();

  std::printf("running %s on %s (%d cores, %s%d, %s, flits=%d, scale=%.2f)\n",
              s.app.c_str(), harness::config_name(s.mp).c_str(),
              s.mp.num_cores, to_string(s.mp.coherence), s.mp.num_hw_sharers,
              to_string(s.mp.routing), s.mp.flit_bits, s.scale);

  const auto o = harness::run_scenario(s, /*allow_failure=*/true);
  const auto& r = o.run;
  const auto& e = o.energy;
  std::printf("\n-- result --------------------------------------------\n");
  std::printf("finished / verified : %s / %s\n", o.finished ? "yes" : "NO",
              o.verify_msg.empty() ? "ok" : o.verify_msg.c_str());
  std::printf("completion          : %llu cycles (%.3f ms)  wall %.1fs\n",
              (unsigned long long)r.completion_cycles, o.seconds() * 1e3,
              o.wall_seconds);
  std::printf("instructions / IPC  : %llu / %.4f\n",
              (unsigned long long)r.total_instructions, r.avg_ipc);
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
