#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "check/probes.hpp"
#include "obs/json.hpp"
#include "obs/series.hpp"
#include "obs/validate.hpp"

namespace atacsim::obs {
namespace {

/// Drives a RunObserver with hand-built absolute counter snapshots. `core`
/// is the first of two cores; the second stays idle.
struct Driver {
  RunObserver obs{100};
  NetCounters net;
  MemCounters mem;
  CoreCounters core;
  std::vector<Cycle> chan{0, 0};

  Driver() { obs.set_channel_names({"enet.links", "onet.wg"}); }
  std::vector<CoreCounters> cores() const { return {core, CoreCounters{}}; }
  void sample(Cycle t) { obs.sample(t, net, mem, cores(), chan); }
  void finalize(Cycle t) { obs.finalize(t, net, mem, cores(), chan); }
};

TEST(RunObserver, RecordsPerEpochDeltasNotAbsolutes) {
  Driver d;
  d.net.unicast_packets = 10;
  d.mem.l1d_reads = 7;
  d.core.instructions = 100;
  d.chan = {40, 5};
  d.sample(100);
  d.net.unicast_packets = 25;  // +15 in epoch 2
  d.mem.l1d_reads = 7;         // +0
  d.core.instructions = 160;   // +60
  d.chan = {90, 5};            // +50, +0
  d.sample(200);
  d.finalize(250);  // final partial epoch: records the run end

  const auto& e = d.obs.epochs();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].t_end, 100u);
  EXPECT_EQ(e[0].net.unicast_packets, 10u);
  EXPECT_EQ(e[0].mem.l1d_reads, 7u);
  EXPECT_EQ(e[0].core.instructions, 100u);
  EXPECT_EQ(e[0].chan_busy, (std::vector<Cycle>{40, 5}));
  EXPECT_EQ(e[1].t_end, 200u);
  EXPECT_EQ(e[1].net.unicast_packets, 15u);
  EXPECT_EQ(e[1].mem.l1d_reads, 0u);
  EXPECT_EQ(e[1].core.instructions, 60u);
  EXPECT_EQ(e[1].chan_busy, (std::vector<Cycle>{50, 0}));
  // The trailing partial epoch marks the true run end even when idle.
  EXPECT_EQ(e[2].t_end, 250u);
  EXPECT_EQ(e[2].net.unicast_packets, 0u);
  EXPECT_EQ(e[2].core.instructions, 0u);
}

TEST(RunObserver, TotalsTileTheRun) {
  Driver d;
  d.net.flits_injected = 3;
  d.mem.dram_reads = 1;
  d.core.busy_cycles = 90;
  d.sample(100);
  d.net.flits_injected = 1000;
  d.mem.dram_reads = 44;
  d.core.busy_cycles = 180;
  d.sample(200);
  d.net.flits_injected = 1001;
  d.finalize(205);

  NetCounters sn;
  MemCounters sm;
  CoreCounters sc;
  d.obs.totals(sn, sm, sc);
  EXPECT_EQ(sn.flits_injected, 1001u);
  EXPECT_EQ(sm.dram_reads, 44u);
  EXPECT_EQ(sc.busy_cycles, 180u);
  // The kObs probe accepts exactly this pairing...
  EXPECT_NO_THROW(check::check_epoch_totals(sn, d.net, sm, d.mem, sc, d.core,
                                            "series test"));
}

TEST(RunObserver, EpochTotalsProbeTripsOnAnyLostDelta) {
  // Mutation test for the validation probe: corrupt one field of each
  // counter family and the probe must raise kObs naming that family.
  Driver d;
  d.net.bcast_packets = 5;
  d.mem.l2_misses = 2;
  d.core.instructions = 10;
  d.finalize(100);
  NetCounters sn;
  MemCounters sm;
  CoreCounters sc;
  d.obs.totals(sn, sm, sc);

  auto expect_trip = [&](const NetCounters& n, const MemCounters& m,
                         const CoreCounters& c) {
    try {
      check::check_epoch_totals(n, d.net, m, d.mem, c, d.core, "mutation");
      FAIL() << "probe did not fire";
    } catch (const check::InvariantViolation& v) {
      EXPECT_EQ(v.probe, check::Probe::kObs);
    }
  };
  auto n = sn;
  n.bcast_packets += 1;
  expect_trip(n, sm, sc);
  auto m = sm;
  m.l2_misses -= 1;
  expect_trip(sn, m, sc);
  auto c = sc;
  c.instructions = 0;
  expect_trip(sn, sm, c);
}

TEST(RunObserver, LateFlushMergesIntoLastEpochKeepingTEndIncreasing) {
  Driver d;
  d.net.unicast_packets = 4;
  d.sample(100);
  // Final flush lands exactly on the last boundary but carries fresh
  // activity (events that executed at the sampled cycle): it must merge
  // into the existing record, not emit a non-increasing t_end.
  d.net.unicast_packets = 6;
  d.finalize(100);
  const auto& e = d.obs.epochs();
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].t_end, 100u);
  EXPECT_EQ(e[0].net.unicast_packets, 6u);
  NetCounters sn;
  MemCounters sm;
  CoreCounters sc;
  d.obs.totals(sn, sm, sc);
  EXPECT_EQ(sn.unicast_packets, 6u);  // merged, not dropped
}

TEST(RunObserver, FinalizeIsIdempotentAndFreezes) {
  Driver d;
  d.net.unicast_packets = 1;
  d.finalize(50);
  ASSERT_EQ(d.obs.epochs().size(), 1u);
  EXPECT_TRUE(d.obs.finalized());
  d.net.unicast_packets = 99;
  d.finalize(80);  // ignored
  d.sample(90);    // ignored
  ASSERT_EQ(d.obs.epochs().size(), 1u);
  EXPECT_EQ(d.obs.epochs()[0].net.unicast_packets, 1u);
}

TEST(RunObserver, LatencyHistogramsRouteByClassAndKind) {
  RunObserver obs(100);
  obs.record_net(0, false, 10);
  obs.record_net(0, false, 20);
  obs.record_net(1, true, 30);
  obs.record_mem(false, 5);
  obs.record_mem(true, 7);
  EXPECT_EQ(obs.net_hist(0, false).count(), 2u);
  EXPECT_EQ(obs.net_hist(0, true).count(), 0u);
  EXPECT_EQ(obs.net_hist(1, true).count(), 1u);
  EXPECT_EQ(obs.net_hist(1, true).max_value(), 30u);
  EXPECT_EQ(obs.mem_hist(false).count(), 1u);
  EXPECT_EQ(obs.mem_hist(true).count(), 1u);
}

TEST(SeriesDoc, JsonOutputPassesTheSchemaValidator) {
  SeriesDoc doc;
  doc.name = "unit test";
  doc.meta_str.emplace_back("app", "radix \"quoted\"");
  doc.meta_num.emplace_back("epoch_cycles", 100.0);
  doc.add_column("t_end") = {100.0, 200.0};
  doc.add_column("unicast_packets") = {10.0, 15.0};
  std::ostringstream os;
  write_series_json(os, doc);

  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(os.str(), v, &err)) << err;
  EXPECT_EQ(validate_series(v), "");
  EXPECT_EQ(v.find("schema")->str, "atacsim-obs-series-v1");
  EXPECT_EQ(v.find("epochs")->number, 2.0);
}

TEST(SeriesDoc, ValidatorRejectsNonIncreasingTEnd) {
  SeriesDoc doc;
  doc.name = "bad";
  doc.add_column("t_end") = {200.0, 200.0};
  std::ostringstream os;
  write_series_json(os, doc);
  json::Value v;
  ASSERT_TRUE(json::parse(os.str(), v, nullptr));
  EXPECT_NE(validate_series(v), "");
}

TEST(SeriesDoc, CsvHasHeaderPlusOneRowPerEpoch) {
  SeriesDoc doc;
  doc.add_column("t_end") = {100.0, 200.0, 300.0};
  doc.add_column("x") = {1.0, 2.0, 3.0};
  std::ostringstream os;
  write_series_csv(os, doc);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "t_end,x");
  int rows = 0;
  while (std::getline(is, line)) ++rows;
  EXPECT_EQ(rows, 3);
}

}  // namespace
}  // namespace atacsim::obs
