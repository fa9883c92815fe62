#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/args.hpp"
#include "bench/common.hpp"
#include "bench/registry.hpp"
#include "exp/sweep.hpp"

namespace atacsim::bench {
namespace {

Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "atacsim-bench");
  return parse_args(static_cast<int>(argv.size()), argv.data());
}

/// Scoped environment variable override.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value)
      setenv(name, value, 1);
    else
      unsetenv(name);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(GlobMatch, LiteralAndWildcards) {
  EXPECT_TRUE(glob_match("fig08_edp", "fig08_edp"));
  EXPECT_FALSE(glob_match("fig08_edp", "fig08_ed"));
  EXPECT_TRUE(glob_match("fig*", "fig08_edp"));
  EXPECT_TRUE(glob_match("*edp", "fig08_edp"));
  EXPECT_TRUE(glob_match("fig1?_*", "fig11_flit_width"));
  EXPECT_FALSE(glob_match("fig1?_*", "fig03_latency_load"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_FALSE(glob_match("", "anything"));
  EXPECT_TRUE(glob_match("*", ""));
  // Star backtracking: the first '*' must be able to re-expand.
  EXPECT_TRUE(glob_match("a*b*c", "aXbXbYc"));
  EXPECT_FALSE(glob_match("a*b*c", "aXbXbY"));
}

TEST(Registry, AddFindMatchAndDuplicateRejection) {
  Registry reg;
  const auto fn = +[](const Context&) { return 0; };
  reg.add({"fig99_zeta", "z", fn});
  reg.add({"fig98_alpha", "a", fn});
  EXPECT_EQ(reg.size(), 2u);

  // all() and match() come back sorted by name.
  const auto all = reg.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0]->name, "fig98_alpha");
  EXPECT_EQ(all[1]->name, "fig99_zeta");

  ASSERT_EQ(reg.match("fig99_zeta").size(), 1u);
  EXPECT_TRUE(reg.match("fig97_none").empty());
  EXPECT_EQ(reg.match("fig9*").size(), 2u);
  EXPECT_EQ(reg.match("*alpha").size(), 1u);
  EXPECT_THROW(reg.add({"fig99_zeta", "dup", fn}), std::logic_error);
}

TEST(ParseArgs, FlagsAndPositionals) {
  const auto a = parse({"--list"});
  EXPECT_TRUE(a.list);
  EXPECT_FALSE(a.all);
  EXPECT_EQ(a.jobs, 0);

  const auto b = parse({"--all", "--jobs", "4"});
  EXPECT_TRUE(b.all);
  EXPECT_EQ(b.jobs, 4);

  const auto c = parse({"--jobs=8", "--filter=fig1*", "tab05_swmr_util"});
  EXPECT_EQ(c.jobs, 8);
  ASSERT_EQ(c.filters.size(), 2u);
  EXPECT_EQ(c.filters[0], "fig1*");
  EXPECT_EQ(c.filters[1], "tab05_swmr_util");

  const auto d = parse({"-h"});
  EXPECT_TRUE(d.help);
}

TEST(ParseArgs, RejectsUnknownFlagsAndMalformedValues) {
  EXPECT_THROW(parse({"--bogus"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs", "abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs=0"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs=-2"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs=1x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--filter"}), std::invalid_argument);  // missing value
  // An explicit empty glob is accepted but matches no entry.
  const auto a = parse({"--filter="});
  ASSERT_EQ(a.filters.size(), 1u);
  EXPECT_TRUE(a.filters[0].empty());
}

TEST(BenchScale, DefaultsAndValidation) {
  {
    ScopedEnv e("ATACSIM_SCALE", nullptr);
    EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  }
  {
    ScopedEnv e("ATACSIM_SCALE", "0.25");
    EXPECT_DOUBLE_EQ(bench_scale(), 0.25);
  }
  {
    // std::atof would have silently read these as 0 (degenerate runs).
    ScopedEnv e("ATACSIM_SCALE", "garbage");
    EXPECT_THROW(bench_scale(), std::runtime_error);
  }
  {
    ScopedEnv e("ATACSIM_SCALE", "0");
    EXPECT_THROW(bench_scale(), std::runtime_error);
  }
  {
    ScopedEnv e("ATACSIM_SCALE", "-1");
    EXPECT_THROW(bench_scale(), std::runtime_error);
  }
  {
    ScopedEnv e("ATACSIM_SCALE", "1.5trailing");
    EXPECT_THROW(bench_scale(), std::runtime_error);
  }
  {
    ScopedEnv e("ATACSIM_SCALE", "inf");
    EXPECT_THROW(bench_scale(), std::runtime_error);
  }
}

TEST(BaseMachine, PaperDefaultAndMeshOverride) {
  {
    ScopedEnv e("ATACSIM_BENCH_MESH", nullptr);
    EXPECT_EQ(base_machine().num_cores, MachineParams::paper().num_cores);
  }
  {
    ScopedEnv e("ATACSIM_BENCH_MESH", "8x2");
    const auto mp = base_machine();
    EXPECT_EQ(mp.num_cores, 64);
    EXPECT_EQ(mp.num_clusters(), 16);
    // The standard configs inherit the override.
    EXPECT_EQ(atac_plus().num_cores, 64);
    EXPECT_EQ(atac_plus().network, NetworkKind::kAtacPlus);
    EXPECT_EQ(emesh_bcast().network, NetworkKind::kEMeshBCast);
    EXPECT_EQ(emesh_pure().network, NetworkKind::kEMeshPure);
  }
  {
    ScopedEnv e("ATACSIM_BENCH_MESH", "bogus");
    EXPECT_THROW(base_machine(), std::runtime_error);
  }
  {
    ScopedEnv e("ATACSIM_BENCH_MESH", "8x");
    EXPECT_THROW(base_machine(), std::runtime_error);
  }
  {
    ScopedEnv e("ATACSIM_BENCH_MESH", "0x2");
    EXPECT_THROW(base_machine(), std::runtime_error);
  }
  {
    ScopedEnv e("ATACSIM_BENCH_MESH", "8x2x3");
    EXPECT_THROW(base_machine(), std::runtime_error);
  }
}

/// A private report directory and scenario cache, emptied on both ends.
class ScopedReportDir {
 public:
  explicit ScopedReportDir(const char* tag)
      : dir_(std::filesystem::temp_directory_path() / tag),
        reports_("ATACSIM_REPORT_DIR", (dir_ / "reports").c_str()),
        cache_("ATACSIM_CACHE", (dir_ / "cache").c_str()) {
    std::filesystem::remove_all(dir_);
  }
  ~ScopedReportDir() { std::filesystem::remove_all(dir_); }

  /// The JSON report `name` as written, empty if it is missing.
  std::string json(const std::string& name) const {
    std::ifstream is(dir_ / "reports" / (name + ".json"));
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
  }

 private:
  std::filesystem::path dir_;
  ScopedEnv reports_, cache_;
};

/// emit_report's failure message, empty if it did not throw.
template <typename... Report>
std::string emit_failure(const Report&... rep) {
  try {
    emit_report(rep...);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(EmitReport, UnfinishedCellFailsTheEntryAfterWritingTheReport) {
  ScopedReportDir dir("atacsim_emit_unfinished");
  exp::sweep::CellConfig base;
  base.scenario.mp = MachineParams::small(8, 2);
  base.scenario.scale = 0.05;
  exp::sweep::SweepSpec spec(base);
  spec.axis(exp::sweep::SweepAxis{
      "cell",
      {{"radix starved",
        [](exp::sweep::CellConfig& c) {
          c.scenario.app = "radix";
          c.scenario.max_cycles = 1000;  // far too few to finish
        }},
       {"fft", [](exp::sweep::CellConfig& c) { c.scenario.app = "fft"; }}}});
  exp::ExecOptions opt;
  opt.progress = false;
  const auto res = exp::sweep::run_scenarios(spec, opt);

  const std::string msg = emit_failure("emit_unfinished", res.plan_result());
  EXPECT_NE(msg.find("radix on ATAC+: did not complete"), std::string::npos)
      << msg;
  EXPECT_EQ(msg.find("fft on"), std::string::npos) << msg;
  // The report is on disk first, failed row included.
  const std::string json = dir.json("emit_unfinished");
  EXPECT_NE(json.find("\"finished\": false"), std::string::npos);
  EXPECT_NE(json.find("\"app\": \"fft\""), std::string::npos);
}

TEST(EmitReport, VerifyFailureFailsTheEntryAfterWritingTheReport) {
  ScopedReportDir dir("atacsim_emit_verify");
  exp::report::Report rep;
  rep.name = "emit_verify";
  rep.rows.push_back({"radix", "ATAC+", true, "", {}});
  rep.rows.push_back({"lu_contig", "EMesh-Pure", true, "checksum mismatch", {}});

  const std::string msg = emit_failure(rep);
  EXPECT_NE(msg.find("lu_contig on EMesh-Pure: checksum mismatch"),
            std::string::npos)
      << msg;
  EXPECT_EQ(msg.find("radix on"), std::string::npos) << msg;
  EXPECT_NE(dir.json("emit_verify").find("checksum mismatch"),
            std::string::npos);

  rep.rows.pop_back();
  EXPECT_EQ(emit_failure(rep), "");  // every row verified: the entry passes
}

}  // namespace
}  // namespace atacsim::bench
