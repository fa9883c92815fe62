#include "harness/config_file.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace atacsim::harness {
namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  const auto e = s.find_last_not_of(" \t\r");
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

[[noreturn]] void fail(const std::string& line, const std::string& why) {
  throw std::invalid_argument("config line '" + line + "': " + why);
}

}  // namespace

MachineParams parse_machine_config(const std::string& text,
                                   MachineParams base) {
  MachineParams mp = base;
  std::istringstream is(text);
  std::string raw;
  while (std::getline(is, raw)) {
    std::string line = raw;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(raw, "expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (key.empty() || val.empty()) fail(raw, "empty key or value");

    // std::stoi / std::stod throw a bare "stoi" / "stod" on garbage; name
    // the offending line instead.
    auto as_int = [&] {
      std::size_t pos = 0;
      int v = 0;
      try {
        v = std::stoi(val, &pos);
      } catch (const std::logic_error&) {
        fail(raw, "not an integer");
      }
      if (pos != val.size()) fail(raw, "not an integer");
      return v;
    };
    auto as_double = [&] {
      std::size_t pos = 0;
      double v = 0;
      try {
        v = std::stod(val, &pos);
      } catch (const std::logic_error&) {
        fail(raw, "not a number");
      }
      if (pos != val.size()) fail(raw, "not a number");
      return v;
    };

    if (key == "mesh_width") {
      mp.mesh_width = as_int();
      mp.num_cores = mp.mesh_width * mp.mesh_width;
    } else if (key == "cluster_width") {
      mp.cluster_width = as_int();
    } else if (key == "network") {
      if (val == "atac") mp.network = NetworkKind::kAtacPlus;
      else if (val == "emesh-bcast") mp.network = NetworkKind::kEMeshBCast;
      else if (val == "emesh-pure") mp.network = NetworkKind::kEMeshPure;
      else fail(raw, "network must be atac|emesh-bcast|emesh-pure");
    } else if (key == "photonics") {
      if (val == "ideal") mp.photonics = PhotonicFlavor::kIdeal;
      else if (val == "default") mp.photonics = PhotonicFlavor::kDefault;
      else if (val == "ringtuned") mp.photonics = PhotonicFlavor::kRingTuned;
      else if (val == "cons") mp.photonics = PhotonicFlavor::kCons;
      else fail(raw, "photonics must be ideal|default|ringtuned|cons");
    } else if (key == "coherence") {
      if (val == "ackwise") mp.coherence = CoherenceKind::kAckwise;
      else if (val == "dirkb") mp.coherence = CoherenceKind::kDirKB;
      else fail(raw, "coherence must be ackwise|dirkb");
    } else if (key == "routing") {
      if (val == "cluster") mp.routing = RoutingPolicy::kCluster;
      else if (val == "distance") mp.routing = RoutingPolicy::kDistance;
      else if (val == "all") mp.routing = RoutingPolicy::kDistanceAll;
      else fail(raw, "routing must be cluster|distance|all");
    } else if (key == "receive_net") {
      if (val == "starnet") mp.receive_net = ReceiveNet::kStarNet;
      else if (val == "bnet") mp.receive_net = ReceiveNet::kBNet;
      else fail(raw, "receive_net must be starnet|bnet");
    } else if (key == "r_thres") {
      mp.r_thres = as_int();
    } else if (key == "num_hw_sharers") {
      mp.num_hw_sharers = as_int();
    } else if (key == "flit_bits") {
      mp.flit_bits = as_int();
    } else if (key == "l1d_size_KB") {
      mp.l1d_size_KB = as_int();
    } else if (key == "l1i_size_KB") {
      mp.l1i_size_KB = as_int();
    } else if (key == "l2_size_KB") {
      mp.l2_size_KB = as_int();
    } else if (key == "l1_assoc") {
      mp.l1_assoc = as_int();
    } else if (key == "l2_assoc") {
      mp.l2_assoc = as_int();
    } else if (key == "mem_latency_cycles") {
      mp.mem_latency_cycles = static_cast<Cycle>(as_int());
    } else if (key == "mem_bw_GBps_per_ctrl") {
      mp.mem_bw_GBps_per_ctrl = as_double();
    } else if (key == "onet_link_delay") {
      mp.onet_link_delay = static_cast<Cycle>(as_int());
    } else if (key == "onet_select_data_lag") {
      mp.onet_select_data_lag = static_cast<Cycle>(as_int());
    } else if (key == "starnets_per_cluster") {
      mp.starnets_per_cluster = as_int();
    } else if (key == "core_ndd_fraction") {
      mp.core_ndd_fraction = as_double();
    } else if (key == "core_peak_mW") {
      mp.core_peak_mW = as_double();
    } else {
      fail(raw, "unknown key");
    }
  }
  mp.validate();
  return mp;
}

MachineParams load_machine_config(const std::string& path,
                                  MachineParams base) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read config file: " + path);
  std::stringstream ss;
  ss << is.rdbuf();
  return parse_machine_config(ss.str(), base);
}

}  // namespace atacsim::harness
