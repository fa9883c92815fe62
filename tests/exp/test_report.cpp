#include <gtest/gtest.h>

#include <sstream>

#include "exp/report.hpp"
#include "obs/json.hpp"

namespace atacsim::exp::report {
namespace {

harness::Outcome fake_outcome(const char* app, const char* config) {
  harness::Outcome o;
  o.app = app;
  o.config = config;
  o.finished = true;
  o.run.finished = true;
  o.run.completion_cycles = 123456789ull;
  o.run.core.instructions = 987654321ull;
  o.run.avg_ipc = 0.75;
  o.run.net.flits_injected = 42;
  o.run.net.bcast_packets = 7;
  o.run.mem.l1d_reads = 1000;
  o.energy.laser = 0.5;
  o.energy.l2 = 1.25;
  o.wall_seconds = 3.5;
  return o;
}

/// A scenario report: one row per outcome.
Report report_of(const std::string& name,
                 const std::vector<harness::Outcome>& outcomes) {
  Report rep;
  rep.name = name;
  for (const auto& o : outcomes)
    rep.rows.push_back(
        Row{o.app, o.config, o.finished, o.verify_msg, outcome_stats(o)});
  return rep;
}

TEST(Report, JsonEscaping) {
  const std::string raw = "q\"b\\s\nline\ttab\x01";
  Report rep;
  rep.name = raw;
  rep.rows.push_back(Row{raw, "ATAC+", false, raw, {}});
  std::ostringstream os;
  write_json(os, rep);

  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(os.str(), v, &err)) << err;
  EXPECT_EQ(v.find("name")->str, raw);
  const auto& row = v.find("outcomes")->arr.at(0);
  EXPECT_EQ(row.find("app")->str, raw);
  EXPECT_EQ(row.find("verify_msg")->str, raw);
}

TEST(Report, OutcomeStatsCoverCountersEnergyAndDerived) {
  const auto o = fake_outcome("radix", "ATAC+");
  const auto st = outcome_stats(o);
  EXPECT_EQ(st.get("completion_cycles"), 123456789.0);
  EXPECT_EQ(st.get("total_instructions"), 987654321.0);
  EXPECT_EQ(st.get("flits_injected"), 42.0);
  EXPECT_EQ(st.get("l1d_reads"), 1000.0);
  EXPECT_EQ(st.get("energy_laser"), 0.5);
  EXPECT_EQ(st.get("energy_l2"), 1.25);
  EXPECT_DOUBLE_EQ(st.get("energy_chip_no_core"), o.energy.chip_no_core());
  EXPECT_DOUBLE_EQ(st.get("edp"), o.edp());
  EXPECT_DOUBLE_EQ(st.get("simulated_seconds"), o.seconds());
  EXPECT_TRUE(st.has("wall_seconds"));
}

TEST(Report, JsonIsWellFormedAndCarriesMeta) {
  Report r = report_of("fig99_test", {fake_outcome("radix", "ATAC+"),
                                      fake_outcome("b\"ad", "EMesh-BCast")});
  r.cells = 2;
  r.cache_hits = 1;
  r.simulations = 1;
  r.jobs = 4;
  r.wall_seconds = 1.5;

  std::ostringstream os;
  write_json(os, r);
  const std::string j = os.str();

  EXPECT_NE(j.find("\"name\": \"fig99_test\""), std::string::npos);
  EXPECT_NE(j.find("\"schema\": \"atacsim-exp-report-v1\""),
            std::string::npos);
  EXPECT_NE(j.find("\"jobs\": 4"), std::string::npos);
  EXPECT_NE(j.find("\"cache_hits\": 1"), std::string::npos);
  EXPECT_NE(j.find("\"app\": \"b\\\"ad\""), std::string::npos);
  EXPECT_NE(j.find("\"completion_cycles\": 123456789"), std::string::npos);

  // Structural sanity: braces and brackets balance, quotes pair up.
  int brace = 0, bracket = 0;
  bool in_string = false, escaped = false;
  for (const char c : j) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    EXPECT_GE(brace, 0);
    EXPECT_GE(bracket, 0);
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
  EXPECT_FALSE(in_string);
}

TEST(Report, CsvHasHeaderAndOneRowPerOutcome) {
  std::ostringstream os;
  write_csv(os, report_of("fig99_test", {fake_outcome("radix", "ATAC+"),
                                         fake_outcome("lu,contig",
                                                      "EMesh-Pure")}));
  const std::string csv = os.str();

  std::istringstream is(csv);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("app,config,finished,verify_msg,", 0), 0u);
  EXPECT_EQ(lines[1].rfind("radix,ATAC+,1,,", 0), 0u);
  // Comma in a field gets quoted.
  EXPECT_EQ(lines[2].rfind("\"lu,contig\",EMesh-Pure,1,,", 0), 0u);
  // Header and rows agree on column count.
  const auto cols = [](const std::string& l) {
    std::size_t n = 1;
    bool quoted = false;
    for (const char c : l) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++n;
    }
    return n;
  };
  EXPECT_EQ(cols(lines[0]), cols(lines[1]));
  EXPECT_EQ(cols(lines[0]), cols(lines[2]));
}

TEST(Report, EmptyOutcomesStillProducesHeader) {
  std::ostringstream os;
  write_csv(os, Report{});
  EXPECT_EQ(os.str(), "app,config,finished,verify_msg\n");
}

}  // namespace
}  // namespace atacsim::exp::report
