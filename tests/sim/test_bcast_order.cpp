// Pins broadcast-heavy application runs to recorded results, on every
// network that carries broadcasts and under both coherence schemes.
//
// How a broadcast's deliveries are turned into events decides the order in
// which handlers run within a cycle, and every later message depends on
// that order. Under Dir_kB every receiver of a broadcast invalidation sends
// an acknowledgement from its handler, which makes it the most
// order-sensitive case. The expected values below were produced by the
// simulator itself; any change that reorders handlers moves them. They are
// integers only (no energy values), so they hold across hosts and compilers.
// A model-version bump of the result cache (src/harness/cache.cpp) means
// simulated results changed on purpose: re-record the table then.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "apps/app.hpp"
#include "common/digest.hpp"
#include "core/program.hpp"

namespace atacsim {
namespace {

struct Pinned {
  const char* app;
  NetworkKind net;
  CoherenceKind coh;
  Cycle completion_cycles;
  std::uint64_t counters_fnv;  ///< FNV-1a over the net and mem counters
};

void PrintTo(const Pinned& p, std::ostream* os) {
  *os << p.app << '/' << to_string(p.net) << '/' << to_string(p.coh);
}

/// The digest of the net and mem counters, in X-macro list order.
std::uint64_t counters_fnv(const core::RunResult& r) {
  Digest d;
  d.add(r.net);
  d.add(r.mem);
  return d.value();
}

/// Runs `p` on `mp` at `scale` and compares it with the recorded row.
/// `validate` arms the src/check probes or leaves them off.
void expect_recorded(const Pinned& p, MachineParams mp, double scale,
                     bool validate = true) {
  mp.network = p.net;
  mp.coherence = p.coh;

  apps::AppConfig cfg;
  cfg.num_cores = mp.num_cores;
  cfg.scale = scale;
  auto app = apps::make_app(p.app, cfg);

  core::Program prog(mp, nullptr, validate);
  prog.spawn_all(app->body());
  const auto r = prog.run(2'000'000'000);
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(app->verify(), "");
  // The pin means something only if broadcasts were delivered.
  ASSERT_GT(r.net.bcast_packets, 0u);

  EXPECT_EQ(r.completion_cycles, p.completion_cycles);
  EXPECT_EQ(counters_fnv(r), p.counters_fnv)
      << "recorded row: " << r.completion_cycles << ", 0x" << std::hex
      << counters_fnv(r);
}

class BroadcastOrder : public ::testing::TestWithParam<Pinned> {};

TEST_P(BroadcastOrder, MatchesRecordedResults) {
  expect_recorded(GetParam(), MachineParams::small(8, 2), 0.05);
}

// The paper's 1024-core machine (32x32 mesh, 4x4 clusters) at the apps'
// smallest inputs: a broadcast reaches 1023 cores, nearly all of which hold
// no copy of the line. Validation is off here because its per-transaction
// coherence probe reads all 1024 caches (radix: ~10 s instead of ~1 s); the
// 8x2 rows above and CI's 1024-core fig05 run keep the probes armed.
class BroadcastOrderFullSize : public ::testing::TestWithParam<Pinned> {};

TEST_P(BroadcastOrderFullSize, MatchesRecordedResults) {
  expect_recorded(GetParam(), MachineParams::paper(), 0.01,
                  /*validate=*/false);
}

constexpr auto kAtac = NetworkKind::kAtacPlus;
constexpr auto kBcast = NetworkKind::kEMeshBCast;
constexpr auto kPure = NetworkKind::kEMeshPure;
constexpr auto kAckwise = CoherenceKind::kAckwise;
constexpr auto kDirKB = CoherenceKind::kDirKB;

std::string pinned_name(const ::testing::TestParamInfo<Pinned>& info) {
  const Pinned& p = info.param;
  std::string n = p.app;
  n += p.net == kAtac ? "_atac" : (p.net == kBcast ? "_bcast" : "_pure");
  n += p.coh == kAckwise ? "_ackwise" : "_dirkb";
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    OceanRadix8x2, BroadcastOrder,
    ::testing::Values(
        Pinned{"ocean_contig", kAtac, kAckwise, 52578,
               0xaf8243a9b947f2aeull},
        Pinned{"ocean_contig", kAtac, kDirKB, 64844,
               0x6bcca2e659597efcull},
        Pinned{"ocean_contig", kBcast, kAckwise, 54120,
               0x8b07d7150f9495eeull},
        Pinned{"ocean_contig", kBcast, kDirKB, 64169,
               0xa802f00853b1b02bull},
        Pinned{"ocean_contig", kPure, kAckwise, 98171,
               0x5cf81eaaded3c96dull},
        Pinned{"ocean_contig", kPure, kDirKB, 103012,
               0x29850ec2b366bde3ull},
        Pinned{"radix", kAtac, kAckwise, 88046,
               0xc175f892ace5f40cull},
        Pinned{"radix", kAtac, kDirKB, 94438,
               0x1001939bd9583e7full},
        Pinned{"radix", kBcast, kAckwise, 91313,
               0xd9500d615506e0b1ull},
        Pinned{"radix", kBcast, kDirKB, 95616,
               0xb91fc24a1138057aull},
        Pinned{"radix", kPure, kAckwise, 108892,
               0xe6f234e01757f401ull},
        Pinned{"radix", kPure, kDirKB, 112044,
               0xf1d24fefbb3af922ull}),
    pinned_name);

INSTANTIATE_TEST_SUITE_P(
    OceanRadix32x4, BroadcastOrderFullSize,
    ::testing::Values(
        Pinned{"ocean_contig", kAtac, kAckwise, 145374,
               0xccb267ebe50b1456ull},
        Pinned{"ocean_contig", kBcast, kAckwise, 216028,
               0x4a72abffc07475eeull},
        Pinned{"radix", kAtac, kAckwise, 803839,
               0x5d78d38331aebef2ull},
        Pinned{"radix", kBcast, kAckwise, 1683502,
               0x860a143cd7759600ull}),
    pinned_name);

}  // namespace
}  // namespace atacsim
