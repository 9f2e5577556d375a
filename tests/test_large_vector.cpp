// LargeVector (common/large_vector.hpp): band storage mapped outside
// malloc, with released mappings reused by the next same-size allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "common/large_vector.hpp"

namespace liquid3d {
namespace {

constexpr std::size_t kDoubles = (std::size_t{512} << 10) / sizeof(double);

TEST(LargeVector, ReusedMappingIsStillValueInitialized) {
  const double* first = nullptr;
  {
    LargeVector<double> a(kDoubles, 7.0);
    first = a.data();
  }
  // The released mapping comes back for the same size, holding the old
  // sevens; the vector must still hand out zeros.
  LargeVector<double> b(kDoubles);
  EXPECT_EQ(b.data(), first);
  EXPECT_TRUE(std::all_of(b.begin(), b.end(), [](double v) { return v == 0.0; }));
}

TEST(LargeVector, GrowsAndCopiesLikeAVector) {
  LargeVector<double> v(16, 1.0);  // below the mapping threshold
  v.resize(kDoubles, 2.0);         // crosses it
  EXPECT_EQ(v.front(), 1.0);
  EXPECT_EQ(v[15], 1.0);
  EXPECT_EQ(v[16], 2.0);
  EXPECT_EQ(v.back(), 2.0);
  const LargeVector<double> copy = v;
  EXPECT_NE(copy.data(), v.data());
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), v.begin()));
}

}  // namespace
}  // namespace liquid3d
