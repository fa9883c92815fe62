#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/args.hpp"
#include "bench/common.hpp"
#include "bench/registry.hpp"
#include "exp/sweep.hpp"
#include "harness/runner.hpp"

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
  const auto fn =
      +[](const exp::ExecOptions&) { return exp::report::Report{}; };
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

  const auto c = parse({"--jobs=8", "fig1*", "tab05_swmr_util"});
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
  // The one number parser: no leading space, sign or trailing text.
  for (const char* bad : {" 4", "+4", "4 ", "0x4", "4.0"}) {
    EXPECT_THROW(parse({"--jobs", bad}), std::invalid_argument)
        << '"' << bad << '"';
    EXPECT_THROW(parse({(std::string("--jobs=") + bad).c_str()}),
                 std::invalid_argument)
        << '"' << bad << '"';
  }
  // A bare argument is the glob, and ATACSIM_OBS=1 with ATACSIM_OBS_DIR
  // arms telemetry: the two flags that spelled them again are unknown.
  for (const char* flag :
       {"--filter=fig1*", "--filter", "--obs-dir=obs", "--obs-dir"}) {
    try {
      parse({flag, "x"});
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag"), std::string::npos)
          << e.what();
    }
  }
  // An explicit empty glob is accepted but matches no entry.
  const auto a = parse({""});
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
  // Only the whole value in plain decimal: no space, sign or hex form.
  for (const char* bad : {"inf", "nan", " 0.5", "0.5 ", "+0.5", "0x1p-1",
                          "1e999"}) {
    ScopedEnv e("ATACSIM_SCALE", bad);
    EXPECT_THROW(bench_scale(), std::runtime_error) << '"' << bad << '"';
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
  // Exactly two decimal ints: no space, sign or value past INT_MAX.
  for (const char* bad : {"8x2x3", " 8x2", "8x 2", "8 x2", "8x2 ", "+8x2",
                          "8x+2", "4294967304x2", "99999999999x2"}) {
    ScopedEnv e("ATACSIM_BENCH_MESH", bad);
    EXPECT_THROW(base_machine(), std::runtime_error) << '"' << bad << '"';
  }
}

/// A private report directory and scenario cache, emptied on both ends.
/// The process id keeps two test processes from sharing one.
class ScopedReportDir {
 public:
  explicit ScopedReportDir(const char* tag)
      : dir_(std::filesystem::temp_directory_path() /
             (tag + std::to_string(getpid()))),
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

/// A run_entry call: its failure message (empty if it did not throw) and
/// the digest lines it printed.
struct EntryRun {
  std::string failure;
  std::vector<std::string> digests;
};

EntryRun run(const char* name, BenchFn fn, int jobs = 1) {
  exp::ExecOptions opt;
  opt.jobs = jobs;
  opt.progress = false;
  EntryRun r;
  testing::internal::CaptureStdout();
  try {
    run_entry(Entry{name, "test entry", fn}, opt);
  } catch (const std::runtime_error& e) {
    r.failure = e.what();
  }
  std::fflush(stdout);
  std::istringstream out(testing::internal::GetCapturedStdout());
  for (std::string line; std::getline(out, line);)
    if (line.rfind("digest\t", 0) == 0) r.digests.push_back(line);
  return r;
}

exp::sweep::CellConfig small_base() {
  exp::sweep::CellConfig base;
  base.scenario.mp = MachineParams::small(8, 2);
  base.scenario.scale = 0.05;
  return base;
}

/// Radix starved of cycles beside an fft that finishes.
exp::report::Report starved_radix(const exp::ExecOptions& opt) {
  exp::sweep::SweepSpec spec(small_base());
  spec.axis(exp::sweep::SweepAxis{
      "cell",
      {{"starved",
        [](exp::sweep::CellConfig& c) {
          c.scenario.app = "radix";
          c.scenario.max_cycles = 1000;  // far too few to finish
        }},
       {"full", [](exp::sweep::CellConfig& c) { c.scenario.app = "fft"; }}}});
  return exp::sweep::run_scenarios(spec, opt).report();
}

TEST(FinishReport, UnfinishedCellFailsTheEntryAfterWritingTheReport) {
  ScopedReportDir dir("atacsim_finish_unfinished");
  const auto r = run("finish_unfinished", starved_radix);
  EXPECT_NE(r.failure.find("radix on starved: did not complete"),
            std::string::npos)
      << r.failure;
  EXPECT_EQ(r.failure.find("fft on"), std::string::npos) << r.failure;
  // The report is on disk first, named after the entry, timed, failed row
  // included; every row printed its digest line.
  const std::string json = dir.json("finish_unfinished");
  EXPECT_NE(json.find("\"name\": \"finish_unfinished\""), std::string::npos);
  EXPECT_NE(json.find("\"finished\": false"), std::string::npos);
  EXPECT_NE(json.find("\"app\": \"fft\""), std::string::npos);
  const auto at = json.find("\"wall_seconds\": ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::stod(json.substr(at + 16)), 0.0);
  ASSERT_EQ(r.digests.size(), 2u);
  const std::string prefix = "digest\tfinish_unfinished\t";
  EXPECT_EQ(r.digests[0].rfind(prefix + "radix\tstarved\t", 0), 0u)
      << r.digests[0];
  EXPECT_EQ(r.digests[1].rfind(prefix + "fft\tfull\t", 0), 0u)
      << r.digests[1];
  EXPECT_EQ(r.digests[1].size() - r.digests[1].rfind('\t') - 1, 16u);
}

exp::report::Report verified_rows(const exp::ExecOptions&) {
  exp::report::Report rep;
  rep.rows.push_back({"radix", "ATAC+", true, "", {}});
  return rep;
}

exp::report::Report misverified_rows(const exp::ExecOptions& opt) {
  auto rep = verified_rows(opt);
  rep.rows.push_back({"lu_contig", "EMesh-Pure", true, "checksum mismatch", {}});
  return rep;
}

TEST(FinishReport, VerifyFailureFailsTheEntryAfterWritingTheReport) {
  ScopedReportDir dir("atacsim_finish_verify");
  const auto bad = run("finish_verify", misverified_rows);
  EXPECT_NE(bad.failure.find("lu_contig on EMesh-Pure: checksum mismatch"),
            std::string::npos)
      << bad.failure;
  EXPECT_EQ(bad.failure.find("radix on"), std::string::npos) << bad.failure;
  EXPECT_NE(dir.json("finish_verify").find("checksum mismatch"),
            std::string::npos);
  EXPECT_EQ(bad.digests.size(), 2u);

  // Every row verified: the entry passes, and a row's digest does not
  // depend on the rows beside it.
  const auto good = run("finish_verify", verified_rows);
  EXPECT_EQ(good.failure, "");
  ASSERT_EQ(good.digests.size(), 1u);
  EXPECT_EQ(good.digests[0], bad.digests[0]);
  EXPECT_NE(bad.digests[1].substr(bad.digests[1].rfind('\t')),
            good.digests[0].substr(good.digests[0].rfind('\t')));
}

TEST(FinishReport, UnwritableReportFailsTheEntryNamingTheDirectory) {
  // A report directory under a regular file cannot be created.
  const auto file = std::filesystem::temp_directory_path() /
                    ("atacsim_not_a_dir" + std::to_string(getpid()));
  std::ofstream(file) << "x";
  const std::string reports = (file / "sub").string();
  {
    ScopedEnv e("ATACSIM_REPORT_DIR", reports.c_str());
    const auto r = run("finish_unwritable", verified_rows);
    EXPECT_NE(r.failure.find("could not write its report under " + reports),
              std::string::npos)
        << r.failure;
    EXPECT_EQ(r.digests.size(), 1u);
  }
  std::filesystem::remove(file);
}

exp::report::Report tiny_sweep(const exp::ExecOptions& opt) {
  exp::sweep::SweepSpec spec(small_base());
  spec.axis(exp::sweep::apps_axis({"radix", "fft"}))
      .axis(exp::sweep::machine_axis(
          {{"ATAC+", harness::atac_plus(PhotonicFlavor::kDefault,
                                        MachineParams::small(8, 2))},
           {"EMesh-BCast",
            harness::emesh_bcast(MachineParams::small(8, 2))}}));
  return exp::sweep::run_scenarios(spec, opt).report();
}

TEST(FinishReport, DigestLinesMatchAcrossCacheStateAndPoolSize) {
  std::vector<std::vector<std::string>> runs;
  for (const int jobs : {1, 2}) {
    ScopedReportDir dir("atacsim_finish_digests");
    const auto cold = run("tiny_sweep", tiny_sweep, jobs);
    EXPECT_NE(dir.json("tiny_sweep").find("\"simulations\": 4"),
              std::string::npos);
    const auto warm = run("tiny_sweep", tiny_sweep, jobs);
    EXPECT_NE(dir.json("tiny_sweep").find("\"simulations\": 0"),
              std::string::npos);
    EXPECT_EQ(cold.failure, "");
    EXPECT_EQ(warm.failure, "");
    runs.push_back(cold.digests);
    runs.push_back(warm.digests);
  }
  ASSERT_EQ(runs[0].size(), 4u);
  for (std::size_t i = 1; i < runs.size(); ++i)
    EXPECT_EQ(runs[i], runs[0]) << i;
}

}  // namespace
}  // namespace atacsim::bench
