#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hpp"
#include "common/table.hpp"

namespace atacsim {
namespace {

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  // All lines after the separator should start at the same column offsets.
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(StatList, AddAndGet) {
  StatList s;
  s.add("a", 1.5);
  s.add("b", 2.5);
  EXPECT_DOUBLE_EQ(s.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(s.get("missing", -1), -1);
  EXPECT_TRUE(s.has("b"));
  EXPECT_FALSE(s.has("c"));
}

TEST(StatList, MergeAppendsTheOtherListInOrder) {
  StatList a, b;
  a.add("x", 1);
  b.add("y", 2);
  b.add("x", 3);
  a.add_all(b);
  ASSERT_EQ(a.items().size(), 3u);
  EXPECT_EQ(a.items()[1].first, "y");
  EXPECT_EQ(a.items()[2].first, "x");
  EXPECT_DOUBLE_EQ(a.items()[2].second, 3);
  EXPECT_DOUBLE_EQ(a.get("x"), 1);  // the first of equal names wins
}

TEST(Accumulator, MeanAndMax) {
  Accumulator acc;
  acc.sample(1);
  acc.sample(3);
  acc.sample(5);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.max, 5.0);
  acc.reset();
  EXPECT_EQ(acc.n, 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

}  // namespace
}  // namespace atacsim
