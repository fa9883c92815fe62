// The counter walks (for_each_counter and the +=, - and is_zero built on
// it) checked against the X-macro lists themselves, one typed test per
// counter block.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "common/digest.hpp"

namespace atacsim {
namespace {

/// Per block, straight from its list: the field names, the field values in
/// list order, and setters that give each field its own value.
template <typename T>
struct Fields;

#define ATACSIM_NAME(f) #f,
#define ATACSIM_GET(f) b.f,
#define ATACSIM_SET(f) b.f = v++;
#define ATACSIM_SET_ONE(f) b.f = (k++ == i) ? 1 : 0;
#define ATACSIM_FIELDS(T, LIST)                                       \
  template <>                                                         \
  struct Fields<T> {                                                  \
    static std::vector<std::string> names() {                         \
      return {LIST(ATACSIM_NAME)};                                    \
    }                                                                 \
    static std::vector<std::uint64_t> values(const T& b) {            \
      return {LIST(ATACSIM_GET)};                                     \
    }                                                                 \
    /* Fields from `v` upward, one apart, in list order. */           \
    static T distinct(std::uint64_t v) {                              \
      T b;                                                            \
      LIST(ATACSIM_SET)                                               \
      return b;                                                       \
    }                                                                 \
    /* Field `i` is 1, every other field 0. */                        \
    static T only(std::size_t i) {                                    \
      T b;                                                            \
      std::size_t k = 0;                                              \
      LIST(ATACSIM_SET_ONE)                                           \
      return b;                                                       \
    }                                                                 \
  };
ATACSIM_FIELDS(NetCounters, ATACSIM_NET_COUNTER_FIELDS)
ATACSIM_FIELDS(MemCounters, ATACSIM_MEM_COUNTER_FIELDS)
ATACSIM_FIELDS(CoreCounters, ATACSIM_CORE_COUNTER_FIELDS)
#undef ATACSIM_FIELDS
#undef ATACSIM_SET_ONE
#undef ATACSIM_SET
#undef ATACSIM_GET
#undef ATACSIM_NAME

template <typename T>
class CounterWalk : public ::testing::Test {};
using Blocks = ::testing::Types<NetCounters, MemCounters, CoreCounters>;
TYPED_TEST_SUITE(CounterWalk, Blocks);

TYPED_TEST(CounterWalk, VisitsEveryListedFieldInListOrder) {
  using F = Fields<TypeParam>;
  const TypeParam b = F::distinct(1);
  std::vector<std::string> names;
  std::vector<std::uint64_t> values;
  for_each_counter(
      [&](const char* name, std::uint64_t v) {
        names.push_back(name);
        values.push_back(v);
      },
      b);
  EXPECT_EQ(names, F::names());
  EXPECT_EQ(values, F::values(b));
}

TYPED_TEST(CounterWalk, SumAndDifferenceAreFieldWise) {
  using F = Fields<TypeParam>;
  const TypeParam a = F::distinct(1);
  const TypeParam b = F::distinct(1000);
  TypeParam s = a;
  s += b;
  const auto va = F::values(a), vb = F::values(b), vs = F::values(s);
  ASSERT_EQ(vs.size(), va.size());
  for (std::size_t i = 0; i < va.size(); ++i)
    EXPECT_EQ(vs[i], va[i] + vb[i]) << F::names()[i];
  EXPECT_EQ(F::values(s - b), va);
}

TYPED_TEST(CounterWalk, ZeroOnlyForADefaultBlock) {
  using F = Fields<TypeParam>;
  EXPECT_TRUE(is_zero(TypeParam{}));
  for (std::size_t i = 0; i < F::names().size(); ++i)
    EXPECT_FALSE(is_zero(F::only(i))) << F::names()[i];
}

TYPED_TEST(CounterWalk, DigestAddsTheFieldsInListOrder) {
  using F = Fields<TypeParam>;
  const TypeParam b = F::distinct(7);
  Digest whole, by_field;
  whole.add(b);
  for (const std::uint64_t v : F::values(b)) by_field.add(v);
  EXPECT_EQ(whole.value(), by_field.value());
}

}  // namespace
}  // namespace atacsim
