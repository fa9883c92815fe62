// The host self-profile ("atacsim-obs-profile-v1") and its validator.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/validate.hpp"

namespace atacsim::obs {
namespace {

json::Value written_profile() {
  std::ostringstream os;
  SelfProfile::instance().write_json(os, "rss");
  json::Value doc;
  std::string err;
  EXPECT_TRUE(json::parse(os.str(), doc, &err)) << err;
  return doc;
}

json::Value* member(json::Value& doc, const std::string& key) {
  for (auto& [k, v] : doc.obj)
    if (k == key) return &v;
  return nullptr;
}

// A block of `mb` MiB with every page written, so all of it is resident.
std::vector<char> resident_block(std::size_t mb) {
  return std::vector<char>(mb << 20, 1);
}

TEST(SelfProfile, CarriesTheProcessPeakResidentSet) {
  constexpr std::size_t kTouchedMb = 64;
  const std::vector<char> block = resident_block(kTouchedMb);
  json::Value doc = written_profile();
  EXPECT_EQ(validate_profile(doc), "");
  const json::Value* rss = doc.find("process_peak_rss_mb");
  ASSERT_NE(rss, nullptr);
  ASSERT_TRUE(rss->is_number());
  // The peak counts every page this process has held.
  EXPECT_GE(rss->number, static_cast<double>(kTouchedMb));
  EXPECT_EQ(block[block.size() / 2], 1);
}

// Linux carries getrusage's ru_maxrss across fork and exec, so a child
// reading it reports its parent's peak. The profile of a child started from
// a process that holds 128 MiB must report the child's own, far smaller,
// peak.
TEST(SelfProfile, AChildReportsItsOwnPeakNotItsParents) {
  constexpr std::size_t kHeldMb = 128;
  const std::vector<char> held = resident_block(kHeldMb);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execl(ATACSIM_PROFILE_CHILD, ATACSIM_PROFILE_CHILD,
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;)
    out.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << ATACSIM_PROFILE_CHILD;

  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(out, doc, &err)) << err;
  EXPECT_EQ(validate_profile(doc), "");
  const json::Value* rss = doc.find("process_peak_rss_mb");
  ASSERT_NE(rss, nullptr);
  ASSERT_TRUE(rss->is_number());
  EXPECT_GT(rss->number, 0.0);
  EXPECT_LT(rss->number, static_cast<double>(kHeldMb));
  EXPECT_EQ(held[held.size() / 2], 1);
}

TEST(SelfProfile, ValidatorRequiresANonNegativePeakResidentSet) {
  const std::string want = "missing non-negative \"process_peak_rss_mb\"";
  {
    json::Value doc = written_profile();
    member(doc, "process_peak_rss_mb")->number = 0;
    EXPECT_EQ(validate_profile(doc), "");
    member(doc, "process_peak_rss_mb")->number = -1;
    EXPECT_EQ(validate_profile(doc), want);
  }
  {
    json::Value doc = written_profile();
    json::Value* rss = member(doc, "process_peak_rss_mb");
    rss->type = json::Value::Type::kString;
    rss->str = "12.5";
    EXPECT_EQ(validate_profile(doc), want);
  }
  {
    json::Value doc = written_profile();
    std::erase_if(doc.obj, [](const auto& kv) {
      return kv.first == "process_peak_rss_mb";
    });
    EXPECT_EQ(validate_profile(doc), want);
  }
}

}  // namespace
}  // namespace atacsim::obs
