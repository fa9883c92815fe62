#include <gtest/gtest.h>

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
}

TEST(ConfigFile, CommentsAndBlankLinesIgnored) {
  const auto mp = parse_machine_config(
      "# only comments\n\n   \n r_thres = 7 # trailing comment\n");
  EXPECT_EQ(mp.r_thres, 7);
}

TEST(ConfigFile, RejectsUnknownKey) {
  EXPECT_THROW(parse_machine_config("frobnicate = 3\n"),
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

TEST(ConfigFile, MissingFileThrows) {
  EXPECT_THROW(load_machine_config("/nonexistent/path.cfg"),
               std::runtime_error);
}

}  // namespace
}  // namespace atacsim::harness
