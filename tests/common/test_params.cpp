#include <gtest/gtest.h>

#include "common/params.hpp"

namespace atacsim {
namespace {

TEST(MachineParams, PaperConfigurationIsThePaperMachine) {
  const auto p = MachineParams::paper();
  EXPECT_EQ(p.num_cores, 1024);
  EXPECT_EQ(p.mesh_width, 32);
  EXPECT_EQ(p.num_clusters(), 64);
  EXPECT_EQ(p.cores_per_cluster(), 16);
  EXPECT_EQ(p.flit_bits, 64);
  EXPECT_EQ(p.l2_size_KB, 256);
  EXPECT_EQ(p.onet_link_delay, 3u);
  EXPECT_EQ(p.mem_latency_cycles, 100u);
}

TEST(MachineParams, MessageFlitCountsMatchPaper) {
  const auto p = MachineParams::paper();
  // 88-bit coherence + 16-bit seqnum = 104 bits -> 2 flits of 64 bits.
  EXPECT_EQ(p.coherence_flits(), 2);
  // 600-bit data + 16-bit seqnum = 616 bits -> 10 flits (no extra flit from
  // the sequence number, as the paper argues).
  EXPECT_EQ(p.data_flits(), 10);
}

TEST(MachineParams, SeqnumDoesNotAddFlits) {
  const auto p = MachineParams::paper();
  const int without_seq = (600 + p.flit_bits - 1) / p.flit_bits;
  static_assert(kDataMsgBits == 600 + 16);
  EXPECT_EQ(p.data_flits(), without_seq);
}

TEST(MachineParams, SmallFactoryScalesGeometry) {
  const auto p = MachineParams::small(8, 2);
  EXPECT_EQ(p.num_cores, 64);
  EXPECT_EQ(p.num_clusters(), 16);
  EXPECT_EQ(p.cores_per_cluster(), 4);
  EXPECT_NO_THROW(p.validate());
}

TEST(MachineParams, ValidateRejectsBadGeometry) {
  auto p = MachineParams::paper();
  p.num_cores = 1000;  // not mesh_width^2
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = MachineParams::paper();
  p.cluster_width = 5;  // does not divide 32
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = MachineParams::paper();
  p.flit_bits = 48;  // not a power of two
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(MachineParams, EnumNames) {
  EXPECT_STREQ(to_string(NetworkKind::kAtacPlus), "ATAC+");
  EXPECT_STREQ(to_string(NetworkKind::kEMeshPure), "EMesh-Pure");
  EXPECT_STREQ(to_string(NetworkKind::kEMeshBCast), "EMesh-BCast");
  EXPECT_STREQ(to_string(ReceiveNet::kStarNet), "StarNet");
  EXPECT_STREQ(to_string(PhotonicFlavor::kCons), "ATAC+(Cons)");
  EXPECT_STREQ(to_string(CoherenceKind::kAckwise), "ACKwise");
}

}  // namespace
}  // namespace atacsim
