// Banded SPD direct solver (thermal/solver/banded_spd.hpp), validated
// against the dense Gaussian solver on random diffusion-like matrices.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/linalg.hpp"
#include "common/rng.hpp"
#include "thermal/solver/banded_spd.hpp"

namespace liquid3d {
namespace {

TEST(BandedCholesky, SolvesSmallKnownSystem) {
  // Tridiagonal Laplacian-like SPD system.
  BandedSpdMatrix m(4, 1);
  for (std::size_t i = 0; i < 4; ++i) m.add_diagonal(i, 2.0);
  for (std::size_t i = 0; i + 1 < 4; ++i) m.add_coupling(i, i + 1, 1.0);
  // add_coupling adds +1 to both diagonals and -1 off-diagonal:
  // diag = [3,4,4,3], off = -1.
  m.factorize();
  std::vector<double> rhs = {1, 0, 0, 1};
  m.solve(rhs);
  // Verify by residual against the explicit matrix.
  const double d[4] = {3, 4, 4, 3};
  for (std::size_t i = 0; i < 4; ++i) {
    double ax = d[i] * rhs[i];
    if (i > 0) ax -= rhs[i - 1];
    if (i < 3) ax += -rhs[i + 1];
    const double b = (i == 0 || i == 3) ? 1.0 : 0.0;
    EXPECT_NEAR(ax, b, 1e-12);
  }
}

struct BandCase {
  std::size_t n;
  std::size_t bandwidth;
  std::uint64_t seed;
};

class BandedSweep : public ::testing::TestWithParam<BandCase> {};

TEST_P(BandedSweep, MatchesDenseSolver) {
  const auto [n, bw, seed] = GetParam();
  Rng rng(seed);

  BandedSpdMatrix banded(n, bw);
  Matrix dense(n, n);

  // Random conduction network restricted to the band: this is exactly the
  // structure the thermal model produces (diagonal capacitance + couplings).
  for (std::size_t i = 0; i < n; ++i) {
    const double c = 0.5 + rng.uniform();
    banded.add_diagonal(i, c);
    dense(i, i) += c;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < std::min(n, i + bw + 1); ++j) {
      if (!rng.bernoulli(0.4)) continue;
      const double g = rng.uniform(0.1, 2.0);
      banded.add_coupling(i, j, g);
      dense(i, i) += g;
      dense(j, j) += g;
      dense(i, j) -= g;
      dense(j, i) -= g;
    }
  }

  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-3, 3);

  banded.factorize();
  std::vector<double> x_banded = b;
  banded.solve(x_banded);
  const std::vector<double> x_dense = solve_linear(dense, b);

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_banded[i], x_dense[i], 1e-8 * (1.0 + std::abs(x_dense[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BandedSweep,
    ::testing::Values(BandCase{10, 1, 1}, BandCase{25, 3, 2}, BandCase{50, 7, 3},
                      BandCase{80, 12, 4}, BandCase{120, 20, 5}, BandCase{64, 63, 6},
                      BandCase{200, 2, 7}));

TEST(BandedCholesky, MultipleSolvesReuseFactorization) {
  BandedSpdMatrix m(3, 1);
  for (std::size_t i = 0; i < 3; ++i) m.add_diagonal(i, 1.0);
  m.add_coupling(0, 1, 0.5);
  m.add_coupling(1, 2, 0.5);
  m.factorize();
  for (double scale : {1.0, 2.0, -3.0}) {
    std::vector<double> rhs = {scale, 0.0, 0.0};
    m.solve(rhs);
    EXPECT_NE(rhs[0], 0.0);
    // Linearity: solution scales with rhs.
    std::vector<double> rhs2 = {2.0 * scale, 0.0, 0.0};
    m.solve(rhs2);
    EXPECT_NEAR(rhs2[0], 2.0 * rhs[0], 1e-12);
  }
}

TEST(BandedCholesky, NonSpdDetected) {
  BandedSpdMatrix m(2, 1);
  m.add_diagonal(0, 1.0);
  m.add_diagonal(1, -2.0);  // negative pivot -> not SPD
  EXPECT_THROW(m.factorize(), LogicError);
}

TEST(BandedCholesky, RhsSizeMismatchRejected) {
  BandedSpdMatrix m(3, 1);
  for (std::size_t i = 0; i < 3; ++i) m.add_diagonal(i, 1.0);
  m.factorize();
  std::vector<double> bad = {1.0, 2.0};
  EXPECT_THROW(m.solve(bad), ConfigError);
}

}  // namespace
}  // namespace liquid3d
