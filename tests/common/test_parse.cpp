#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/parse.hpp"

namespace atacsim {
namespace {

TEST(ParseWhole, TakesThePlainDecimalValue) {
  EXPECT_EQ(parse_whole<int>("4"), 4);
  EXPECT_EQ(parse_whole<int>("-3"), -3);
  EXPECT_EQ(parse_whole<std::uint64_t>("18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(parse_whole<double>("0.05"), 0.05);
  EXPECT_EQ(parse_whole<double>("1.2345678901234568e+16"),
            1.2345678901234568e+16);
}

TEST(ParseWhole, RefusesEverythingButTheWholeValue) {
  for (const char* bad : {" 4", "+4", "4x", "0x10", "", "4 ", "1e999"}) {
    EXPECT_FALSE(parse_whole<int>(bad)) << '"' << bad << '"';
    EXPECT_FALSE(parse_whole<double>(bad)) << '"' << bad << '"';
  }
  EXPECT_FALSE(parse_whole<int>("2.5"));
  EXPECT_FALSE(parse_whole<int>("4294967304"));  // outside int
  EXPECT_FALSE(parse_whole<std::uint64_t>("-1"));  // no wrap to 2^64 - 1
}

/// Sets (or, for null, unsets) one variable for the life of the object.
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

constexpr const char* kVar = "ATACSIM_PARSE_TEST";

TEST(EnvValue, AnEmptyValueIsUnset) {
  {
    ScopedEnv e(kVar, nullptr);
    EXPECT_EQ(env_value(kVar), nullptr);
  }
  {
    ScopedEnv e(kVar, "");
    EXPECT_EQ(env_value(kVar), nullptr);
  }
  {
    ScopedEnv e(kVar, "x");
    EXPECT_STREQ(env_value(kVar), "x");
  }
}

TEST(EnvSwitch, ZeroAndOneOnly) {
  for (const char* off : {static_cast<const char*>(nullptr), "", "0"}) {
    ScopedEnv e(kVar, off);
    EXPECT_FALSE(env_switch(kVar));
  }
  {
    ScopedEnv e(kVar, "1");
    EXPECT_TRUE(env_switch(kVar));
  }
  for (const char* bad : {"false", "no", "off", "true", "yes", "2", " 1",
                          "01"}) {
    ScopedEnv e(kVar, bad);
    try {
      env_switch(kVar);
      ADD_FAILURE() << '"' << bad << "\" was accepted";
    } catch (const std::invalid_argument& ex) {
      EXPECT_EQ(std::string(ex.what()),
                std::string(kVar) + "=\"" + bad + "\": expected 0 or 1");
    }
  }
}

}  // namespace
}  // namespace atacsim
