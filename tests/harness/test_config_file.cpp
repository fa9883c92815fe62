#include <gtest/gtest.h>

#include <string>

#include "harness/config_file.hpp"

namespace atacsim::harness {
namespace {

TEST(ConfigFile, EmptyTextKeepsBase) {
  const auto mp = parse_machine_config("");
  EXPECT_EQ(mp.num_cores, 1024);
  EXPECT_EQ(mp.network, NetworkKind::kAtacPlus);
}

TEST(ConfigFile, ParsesAllKnobKinds) {
  const auto mp = parse_machine_config(R"(
    # a 256-core Dir_8B machine on the broadcast mesh
    mesh_width     = 16
    cluster_width  = 4
    network        = emesh-bcast
    coherence      = dirkb
    num_hw_sharers = 8
    routing        = cluster
    receive_net    = bnet
    flit_bits      = 128
    l2_size_KB     = 128
    mem_latency_cycles = 80
    core_ndd_fraction  = 0.4
    l1i_size_KB = 16
    l1d_size_KB = 16
    l1_assoc = 2
    l2_assoc = 4
    mem_bw_GBps_per_ctrl = 2.5
    onet_link_delay = 4
    onet_select_data_lag = 0
    starnets_per_cluster = 1
    photonics = cons
    core_peak_mW = 10
  )");
  EXPECT_EQ(mp.num_cores, 256);
  EXPECT_EQ(mp.num_clusters(), 16);
  EXPECT_EQ(mp.network, NetworkKind::kEMeshBCast);
  EXPECT_EQ(mp.coherence, CoherenceKind::kDirKB);
  EXPECT_EQ(mp.num_hw_sharers, 8);
  EXPECT_EQ(mp.routing, RoutingPolicy::kCluster);
  EXPECT_EQ(mp.receive_net, ReceiveNet::kBNet);
  EXPECT_EQ(mp.flit_bits, 128);
  EXPECT_EQ(mp.l2_size_KB, 128);
  EXPECT_EQ(mp.mem_latency_cycles, 80u);
  EXPECT_DOUBLE_EQ(mp.core_ndd_fraction, 0.4);
  EXPECT_EQ(mp.l1i_size_KB, 16);
  EXPECT_EQ(mp.l1d_size_KB, 16);
  EXPECT_EQ(mp.l1_assoc, 2);
  EXPECT_EQ(mp.l2_assoc, 4);
  EXPECT_DOUBLE_EQ(mp.mem_bw_GBps_per_ctrl, 2.5);
  EXPECT_EQ(mp.onet_link_delay, 4u);
  EXPECT_EQ(mp.onet_select_data_lag, 0u);
  EXPECT_EQ(mp.starnets_per_cluster, 1);
  EXPECT_EQ(mp.photonics, PhotonicFlavor::kCons);
  EXPECT_DOUBLE_EQ(mp.core_peak_mW, 10.0);
}

TEST(ConfigFile, CommentsAndBlankLinesIgnored) {
  const auto mp = parse_machine_config(
      "# only comments\n\n   \n r_thres = 7 # trailing comment\n");
  EXPECT_EQ(mp.r_thres, 7);
}

TEST(ConfigFile, RejectsUnknownKey) {
  EXPECT_THROW(parse_machine_config("frobnicate = 3\n"),
               std::invalid_argument);
  // num_cores follows mesh_width and is no key of its own.
  EXPECT_THROW(parse_machine_config("num_cores = 64\n"),
               std::invalid_argument);
}

TEST(ConfigFile, RejectsMalformedLines) {
  EXPECT_THROW(parse_machine_config("mesh_width\n"), std::invalid_argument);
  EXPECT_THROW(parse_machine_config("mesh_width = \n"),
               std::invalid_argument);
  EXPECT_THROW(parse_machine_config("mesh_width = eight\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_machine_config("network = tokenring\n"),
               std::invalid_argument);
}

TEST(ConfigFile, RejectsInvalidGeometry) {
  // 10 does not divide by cluster_width 4 -> validate() must throw.
  EXPECT_THROW(parse_machine_config("mesh_width = 10\n"),
               std::invalid_argument);
}

/// The message parse_machine_config throws for `text`, or "" if none.
std::string parse_error(const std::string& text) {
  try {
    parse_machine_config(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigFile, RejectsOutOfRangeValuesNamingTheLine) {
  // Each once crashed, wrapped or failed deep inside a run.
  for (const std::string line :
       {"starnets_per_cluster = 0", "mem_latency_cycles = -1",
        "onet_link_delay = -5", "mem_bw_GBps_per_ctrl = 0", "l2_assoc = 0"}) {
    const std::string msg = parse_error(line + "\n");
    EXPECT_NE(msg.find("'" + line + "'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("outside ["), std::string::npos) << msg;
  }
}

TEST(ConfigFile, MissingFileThrows) {
  EXPECT_THROW(load_machine_config("/nonexistent/path.cfg"),
               std::runtime_error);
}

}  // namespace
}  // namespace atacsim::harness
