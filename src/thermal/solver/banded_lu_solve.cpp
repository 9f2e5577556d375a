// banded_lu_solve.cpp — the triangular solves of the banded LU: one
// explicit-SIMD kernel for the single-RHS and the multi-RHS solve.  The
// TU builds with -ffp-contract=off (see CMakeLists), like the SPD solve:
// every lane of a batched solve performs exactly the arithmetic of a
// standalone solve of its right-hand side, so the two are bit-identical.
//
// Both sweeps are blocked eight columns at a time.  Forward (unit L):
// finalize eight y values, then apply their eight L columns to the rows
// below in one fused pass.  Backward (U): finalize eight x values from the
// bottom up, then apply their eight U columns to the rows above in one
// fused pass.  The factor is read once per sweep either way; the blocking
// divides the x write traffic by eight.  The single-RHS instantiation
// (one-lane "vector" double, unit stride) auto-vectorizes the fused
// passes along the rows instead of across systems; per element the
// operations and their order are the same.
#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "thermal/solver/banded_lu.hpp"
#include "thermal/solver/simd_lanes.hpp"

namespace liquid3d {

namespace {

using simd::kLanes;
using simd::load;
using simd::store;

constexpr std::size_t kBlk = 8;

/// Solve L U X = B for NV * kLanes<V> interleaved systems starting at `x`
/// (row i at x[i * stride]).  `kStride` fixes the stride at compile time
/// (the single-RHS case); 0 reads it from `stride_arg`.  Band layout:
/// A(i, j) = band[j * w + bu + i - j], so `band + j * w + bu - j` indexed
/// by i walks column j, and column j + 1 starts w - 1 doubles later.
template <typename V, std::size_t NV, std::size_t kStride>
void lu_solve_block(const double* const band, double* const x, std::size_t n,
                    std::size_t bl, std::size_t bu, std::size_t w,
                    std::size_t stride_arg) {
  constexpr std::size_t L = kLanes<V>;
  const std::size_t stride = kStride != 0 ? kStride : stride_arg;
  const auto row = [x, stride](std::size_t i) { return x + i * stride; };
  const auto col = [band, w, bu](std::size_t j) { return band + j * w + bu - j; };

  // Forward: L y = b, unit diagonal.
  std::size_t j0 = 0;
  for (; j0 + kBlk <= n; j0 += kBlk) {
    V y[kBlk][NV];
    for (std::size_t j = j0; j < j0 + kBlk; ++j) {
      V* const yj = y[j - j0];
      for (std::size_t k = 0; k < NV; ++k) yj[k] = load<V>(row(j) + k * L);
      for (std::size_t p = j0; p < j; ++p) {
        if (j - p > bl) continue;
        const double ljp = col(p)[j];
        for (std::size_t k = 0; k < NV; ++k) yj[k] -= ljp * y[p - j0][k];
      }
      for (std::size_t k = 0; k < NV; ++k) store(row(j) + k * L, yj[k]);
    }
    const double* const c0 = col(j0);
    const double* const c1 = c0 + w - 1;
    const double* const c2 = c1 + w - 1;
    const double* const c3 = c2 + w - 1;
    const double* const c4 = c3 + w - 1;
    const double* const c5 = c4 + w - 1;
    const double* const c6 = c5 + w - 1;
    const double* const c7 = c6 + w - 1;
    const std::size_t i_common = std::min(n - 1, j0 + bl);
    for (std::size_t i = j0 + kBlk; i <= i_common; ++i) {
      const double l0 = c0[i], l1 = c1[i], l2 = c2[i], l3 = c3[i];
      const double l4 = c4[i], l5 = c5[i], l6 = c6[i], l7 = c7[i];
      double* const xi = row(i);
      for (std::size_t k = 0; k < NV; ++k) {
        const V sum = l0 * y[0][k] + l1 * y[1][k] + l2 * y[2][k] +
                      l3 * y[3][k] + l4 * y[4][k] + l5 * y[5][k] +
                      l6 * y[6][k] + l7 * y[7][k];
        store(xi + k * L, load<V>(xi + k * L) - sum);
      }
    }
    // Per-column tails beyond the first column's reach.
    for (std::size_t j = j0 + 1; j < j0 + kBlk; ++j) {
      const std::size_t i_hi = std::min(n - 1, j + bl);
      const double* const cj = col(j);
      for (std::size_t i = std::max(i_common + 1, j0 + kBlk); i <= i_hi; ++i) {
        const double lij = cj[i];
        double* const xi = row(i);
        for (std::size_t k = 0; k < NV; ++k) {
          store(xi + k * L, load<V>(xi + k * L) - lij * y[j - j0][k]);
        }
      }
    }
  }
  for (std::size_t j = j0; j < n; ++j) {
    const double* const cj = col(j);
    const std::size_t i_hi = std::min(n - 1, j + bl);
    for (std::size_t k = 0; k < NV; ++k) {
      const V yj = load<V>(row(j) + k * L);
      for (std::size_t i = j + 1; i <= i_hi; ++i) {
        double* const xi = row(i) + k * L;
        store(xi, load<V>(xi) - cj[i] * yj);
      }
    }
  }

  // Backward: U x = y.  The n % 8 columns at the bottom go one at a time;
  // the rest in aligned blocks of eight, bottom block first.
  const std::size_t n8 = n - n % kBlk;
  for (std::size_t j = n; j-- > n8;) {
    const double* const cj = col(j);
    const std::size_t i_lo = j >= bu ? j - bu : 0;
    for (std::size_t k = 0; k < NV; ++k) {
      const V xj = load<V>(row(j) + k * L) / cj[j];
      store(row(j) + k * L, xj);
      for (std::size_t i = i_lo; i < j; ++i) {
        double* const xi = row(i) + k * L;
        store(xi, load<V>(xi) - cj[i] * xj);
      }
    }
  }
  for (std::size_t jb = n8; jb > 0;) {
    jb -= kBlk;
    const std::size_t j_top = jb + kBlk - 1;
    V v[kBlk][NV];
    for (std::size_t j = j_top + 1; j-- > jb;) {
      V* const xj = v[j - jb];
      for (std::size_t k = 0; k < NV; ++k) xj[k] = load<V>(row(j) + k * L);
      for (std::size_t p = j + 1; p <= j_top; ++p) {
        if (p - j > bu) continue;
        const double ujp = col(p)[j];
        for (std::size_t k = 0; k < NV; ++k) xj[k] -= ujp * v[p - jb][k];
      }
      const double ujj = col(j)[j];
      for (std::size_t k = 0; k < NV; ++k) {
        xj[k] /= ujj;
        store(row(j) + k * L, xj[k]);
      }
    }
    // Fused update of the rows above the block every block column reaches
    // (the top column reaches least far up).
    const double* const c0 = col(jb);
    const double* const c1 = c0 + w - 1;
    const double* const c2 = c1 + w - 1;
    const double* const c3 = c2 + w - 1;
    const double* const c4 = c3 + w - 1;
    const double* const c5 = c4 + w - 1;
    const double* const c6 = c5 + w - 1;
    const double* const c7 = c6 + w - 1;
    const std::size_t i_common = j_top >= bu ? j_top - bu : 0;
    for (std::size_t i = i_common; i < jb; ++i) {
      const double u0 = c0[i], u1 = c1[i], u2 = c2[i], u3 = c3[i];
      const double u4 = c4[i], u5 = c5[i], u6 = c6[i], u7 = c7[i];
      double* const xi = row(i);
      for (std::size_t k = 0; k < NV; ++k) {
        const V sum = u0 * v[0][k] + u1 * v[1][k] + u2 * v[2][k] +
                      u3 * v[3][k] + u4 * v[4][k] + u5 * v[5][k] +
                      u6 * v[6][k] + u7 * v[7][k];
        store(xi + k * L, load<V>(xi + k * L) - sum);
      }
    }
    // Per-column tails above the top column's reach.
    for (std::size_t p = jb; p < j_top; ++p) {
      const double* const cp = col(p);
      const std::size_t i_lo = p >= bu ? p - bu : 0;
      for (std::size_t i = i_lo; i < std::min(i_common, jb); ++i) {
        const double uip = cp[i];
        double* const xi = row(i);
        for (std::size_t k = 0; k < NV; ++k) {
          store(xi + k * L, load<V>(xi + k * L) - uip * v[p - jb][k]);
        }
      }
    }
  }
}

/// Solve the `stride` interleaved systems as vectors of V, at most four
/// vectors per pass over the factor.
template <typename V>
void lu_solve_lanes(const double* band, double* x, std::size_t n,
                    std::size_t bl, std::size_t bu, std::size_t w,
                    std::size_t stride) {
  constexpr std::size_t kMaxVectors = 4;
  const std::size_t vectors = stride / kLanes<V>;
  for (std::size_t v = 0; v < vectors; v += kMaxVectors) {
    double* const xv = x + v * kLanes<V>;
    switch (std::min(kMaxVectors, vectors - v)) {
      case 1: lu_solve_block<V, 1, 0>(band, xv, n, bl, bu, w, stride); break;
      case 2: lu_solve_block<V, 2, 0>(band, xv, n, bl, bu, w, stride); break;
      case 3: lu_solve_block<V, 3, 0>(band, xv, n, bl, bu, w, stride); break;
      default: lu_solve_block<V, 4, 0>(band, xv, n, bl, bu, w, stride); break;
    }
  }
}

}  // namespace

std::size_t BandedLuMatrix::lane_stride(std::size_t nrhs) {
  return simd::lane_stride(nrhs);
}

void BandedLuMatrix::solve(std::vector<double>& rhs) const {
  LIQUID3D_REQUIRE(rhs.size() == n_, "rhs size mismatch");
  solve(std::span<double>(rhs), 1);
}

void BandedLuMatrix::solve(std::span<double> rhs, std::size_t nrhs) const {
  LIQUID3D_ASSERT(factorized_, "solve requires a factorized matrix");
  LIQUID3D_REQUIRE(nrhs > 0, "need at least one right-hand side");
  LIQUID3D_REQUIRE(rhs.size() == n_ * nrhs, "rhs size mismatch");
  const double* const band = band_.data();
  double* const x = rhs.data();
  if (nrhs == 1) {
    lu_solve_block<double, 1, 1>(band, x, n_, bl_, bu_, w_, 1);
    return;
  }
  simd::at_lane_stride(x, n_, nrhs, [&](double* block, std::size_t stride) {
    simd::dispatch_lanes(stride, [&]<typename V>() {
      lu_solve_lanes<V>(band, block, n_, bl_, bu_, w_, stride);
    });
  });
}

}  // namespace liquid3d
