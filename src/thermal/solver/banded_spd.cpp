#include "thermal/solver/banded_spd.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace liquid3d {

BandedSpdMatrix::BandedSpdMatrix(std::size_t n, std::size_t half_bandwidth)
    : n_(n),
      b_(half_bandwidth),
      w_(half_bandwidth + 1),
      band_(n * (half_bandwidth + 1), 0.0) {
  LIQUID3D_REQUIRE(n > 0, "matrix must be non-empty");
}

double& BandedSpdMatrix::at(std::size_t i, std::size_t j) {
  LIQUID3D_ASSERT(j <= i && i - j <= b_ && i < n_, "band index out of range");
  return band_[j * w_ + (i - j)];
}

double BandedSpdMatrix::at(std::size_t i, std::size_t j) const {
  LIQUID3D_ASSERT(j <= i && i - j <= b_ && i < n_, "band index out of range");
  return band_[j * w_ + (i - j)];
}

void BandedSpdMatrix::add_coupling(std::size_t i, std::size_t j, double g) {
  LIQUID3D_ASSERT(i != j, "coupling requires distinct nodes");
  const std::size_t lo = std::min(i, j);
  const std::size_t hi = std::max(i, j);
  at(lo, lo) += g;
  at(hi, hi) += g;
  at(hi, lo) -= g;
}

void BandedSpdMatrix::add_diagonal(std::size_t i, double g) { at(i, i) += g; }

void BandedSpdMatrix::set_zero() {
  std::fill(band_.begin(), band_.end(), 0.0);
  factorized_ = false;
}

void BandedSpdMatrix::factorize() {
  LIQUID3D_ASSERT(!factorized_, "matrix already factorized");
  // Panel-blocked right-looking Cholesky.  Pivots are processed in panels
  // of kPanel columns: the panel is factorized internally with rank-1
  // updates, then every trailing column receives the whole panel's updates
  // in one visit.  Compared with plain right-looking (one visit per pivot),
  // each trailing column — up to b+1 doubles, L1-resident once loaded — is
  // streamed from cache kPanel times instead of being re-fetched from the
  // O(b^2) trailing window, cutting the dominant write-back traffic by the
  // panel width.
  constexpr std::size_t kPanel = 8;
  double* const band = band_.data();
  for (std::size_t k0 = 0; k0 < n_; k0 += kPanel) {
    const std::size_t nb = std::min(kPanel, n_ - k0);
    const std::size_t panel_end = k0 + nb;  // exclusive
    // 1. Factorize the panel: full-length pivot scaling, but updates only
    // onto columns still inside the panel.
    for (std::size_t k = k0; k < panel_end; ++k) {
      double* const colk = band + k * w_;
      const double d = colk[0];
      LIQUID3D_ASSERT(d > 0.0, "banded Cholesky: non-positive pivot");
      const double lkk = std::sqrt(d);
      colk[0] = lkk;
      const std::size_t m = std::min(b_, n_ - 1 - k);
      const double inv = 1.0 / lkk;
      for (std::size_t i = 1; i <= m; ++i) colk[i] *= inv;
      const std::size_t j_hi = std::min(panel_end - 1, k + m);
      for (std::size_t j = k + 1; j <= j_hi; ++j) {
        const double ljk = colk[j - k];
        if (ljk == 0.0) continue;
        double* const colj = band + j * w_;
        const double* const src = colk + (j - k);
        const std::size_t len = m - (j - k);
        for (std::size_t t = 0; t <= len; ++t) colj[t] -= ljk * src[t];
      }
    }
    // 2. Trailing update: each column beyond the panel accumulates every
    // panel pivot that reaches it while it stays hot in cache.
    const std::size_t j_last = std::min(n_ - 1, panel_end - 1 + b_);
    for (std::size_t j = panel_end; j <= j_last; ++j) {
      double* const colj = band + j * w_;
      const std::size_t p_lo = (j >= b_) ? std::max(k0, j - b_) : k0;
      for (std::size_t p = p_lo; p < panel_end; ++p) {
        const double* const colp = band + p * w_;
        const double ljp = colp[j - p];
        if (ljp == 0.0) continue;
        const double* const src = colp + (j - p);
        const std::size_t len = std::min(b_, n_ - 1 - p) - (j - p);
        for (std::size_t t = 0; t <= len; ++t) colj[t] -= ljp * src[t];
      }
    }
  }
  factorized_ = true;
}

}  // namespace liquid3d
