#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "obs/json.hpp"

namespace atacsim::obs::json {
namespace {

TEST(Json, Escaping) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, NumbersRoundTripAndNonFiniteIsNull) {
  EXPECT_EQ(num(123456789.0), "123456789");
  EXPECT_EQ(std::stod(num(0.1)), 0.1);
  EXPECT_EQ(num(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(num(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(num(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(Json, EscapedStringsParseBack) {
  const std::string raw = "q\"b\\s\bf\fn\nr\rt\t\x01";
  Value v;
  ASSERT_TRUE(parse("\"" + escape(raw) + "\"", v));
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.str, raw);
}

}  // namespace
}  // namespace atacsim::obs::json
