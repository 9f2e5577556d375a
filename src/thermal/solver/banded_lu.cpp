#include "thermal/solver/banded_lu.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace liquid3d {

BandedLuMatrix::BandedLuMatrix(std::size_t n, std::size_t lower_bandwidth,
                               std::size_t upper_bandwidth)
    : n_(n),
      bl_(lower_bandwidth),
      bu_(upper_bandwidth),
      w_(lower_bandwidth + upper_bandwidth + 1),
      band_(n * (lower_bandwidth + upper_bandwidth + 1), 0.0) {
  LIQUID3D_REQUIRE(n > 0, "matrix must be non-empty");
}

double& BandedLuMatrix::at(std::size_t i, std::size_t j) {
  LIQUID3D_ASSERT(i < n_ && j < n_ && i + bu_ >= j && j + bl_ >= i,
                  "band index out of range");
  return band_[j * w_ + (i - j + bu_)];
}

double BandedLuMatrix::at(std::size_t i, std::size_t j) const {
  LIQUID3D_ASSERT(i < n_ && j < n_ && i + bu_ >= j && j + bl_ >= i,
                  "band index out of range");
  return band_[j * w_ + (i - j + bu_)];
}

void BandedLuMatrix::set_zero() {
  std::fill(band_.begin(), band_.end(), 0.0);
  factorized_ = false;
}

void BandedLuMatrix::factorize() {
  LIQUID3D_ASSERT(!factorized_, "matrix already factorized");
  double* const band = band_.data();
  for (std::size_t k = 0; k < n_; ++k) {
    double* const colk = band + k * w_;
    const double pivot = colk[bu_];
    LIQUID3D_ASSERT(std::abs(pivot) > 1e-300, "banded LU: vanishing pivot");
    const double inv = 1.0 / pivot;
    const std::size_t ml = std::min(bl_, n_ - 1 - k);
    for (std::size_t i = 1; i <= ml; ++i) colk[bu_ + i] *= inv;
    const std::size_t mu = std::min(bu_, n_ - 1 - k);
    for (std::size_t j = 1; j <= mu; ++j) {
      double* const colj = band + (k + j) * w_;
      const double ukj = colj[bu_ - j];
      if (ukj == 0.0) continue;
      double* const dst = colj + (bu_ - j);
      const double* const src = colk + bu_;
      for (std::size_t i = 1; i <= ml; ++i) dst[i] -= src[i] * ukj;
    }
  }
  factorized_ = true;
}

}  // namespace liquid3d
