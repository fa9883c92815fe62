// The host self-profile ("atacsim-obs-profile-v1") and its validator.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <sstream>
#include <string>

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

TEST(SelfProfile, CarriesTheProcessPeakResidentSet) {
  rusage ru{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &ru), 0);
  const double before_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  json::Value doc = written_profile();
  EXPECT_EQ(validate_profile(doc), "");
  const json::Value* rss = doc.find("process_peak_rss_mb");
  ASSERT_NE(rss, nullptr);
  ASSERT_TRUE(rss->is_number());
  // The peak only grows, and this process has touched memory.
  EXPECT_GT(rss->number, 0.0);
  EXPECT_GE(rss->number, before_mb);
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
