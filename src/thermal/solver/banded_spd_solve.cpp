// banded_spd_solve.cpp — the triangular solves: the single-RHS path and
// the multi-RHS kernel.  The TU builds with -ffp-contract=off (see
// CMakeLists): with FMA contraction on, the two code shapes contract
// differently and the bit-identity contract between batched and serial
// solves breaks.  Factorization stays in banded_spd.cpp with contraction
// enabled — it is the same code for every model, so parity never depends
// on it.
//
// The multi-RHS kernel is written with explicit GCC/Clang vector
// extensions instead of leaning on the auto-vectorizer: the systems of a
// batch are interleaved node-major at a padded lane stride (lane_stride),
// so every row of the batch is a whole number of vectors and one kernel —
// templated only on vectors per row — serves every width at the same
// per-lane cost.  Every lane performs exactly the single-RHS arithmetic:
// the same operation order, the same eight-accumulator backward
// reduction, true division.  Vector operations are lane-wise IEEE
// operations, so each lane of a batched solve is bit-identical to a
// standalone solve of that right-hand side, whatever the batch width, and
// lanes never mix, so padding lanes are inert.
#include "thermal/solver/banded_spd.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "thermal/solver/simd_lanes.hpp"

namespace liquid3d {

namespace {

using simd::kLanes;
using simd::load;
using simd::store;

/// Solve L L^T X = B for the NV * kLanes<V> interleaved systems starting at
/// `x`; row i of the block is x[i * stride ...].  The blocked algorithm is
/// the single-RHS one with each scalar widened to NV vectors.
template <typename V, std::size_t NV>
void solve_block(const double* const band, double* const x, std::size_t n,
                 std::size_t b, std::size_t w, std::size_t stride) {
  constexpr std::size_t L = kLanes<V>;
  constexpr std::size_t kBlk = 8;
  const auto row = [x, stride](std::size_t i) { return x + i * stride; };

  // Forward: L y = rhs.
  std::size_t j0 = 0;
  for (; j0 + kBlk <= n; j0 += kBlk) {
    // Finalize y within the block (intra-block dependencies are the
    // kBlk x kBlk lower triangle at the top of the block's columns).
    V y[kBlk][NV];
    for (std::size_t j = j0; j < j0 + kBlk; ++j) {
      V* const yj = y[j - j0];
      for (std::size_t k = 0; k < NV; ++k) yj[k] = load<V>(row(j) + k * L);
      for (std::size_t p = j0; p < j; ++p) {
        if (j - p > b) continue;
        const double lpj = band[p * w + (j - p)];
        for (std::size_t k = 0; k < NV; ++k) yj[k] -= lpj * y[p - j0][k];
      }
      const double dj = band[j * w];
      for (std::size_t k = 0; k < NV; ++k) {
        yj[k] /= dj;
        store(row(j) + k * L, yj[k]);
      }
    }
    // Fused update of the rows every block column reaches.  cJ[i] is
    // L(i, J) — base pointers shifted so all eight streams index by i.
    const double* const c0 = band + j0 * w - j0;
    const double* const c1 = c0 + w - 1;
    const double* const c2 = c1 + w - 1;
    const double* const c3 = c2 + w - 1;
    const double* const c4 = c3 + w - 1;
    const double* const c5 = c4 + w - 1;
    const double* const c6 = c5 + w - 1;
    const double* const c7 = c6 + w - 1;
    const std::size_t i_common = std::min(n - 1, j0 + b);
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
    // Per-column tails beyond the first column's band reach.
    for (std::size_t j = j0 + 1; j < j0 + kBlk; ++j) {
      const std::size_t i_hi = std::min(n - 1, j + b);
      const double* const cj = band + j * w - j;
      for (std::size_t i = std::max(i_common + 1, j0 + kBlk); i <= i_hi; ++i) {
        const double lj = cj[i];
        double* const xi = row(i);
        for (std::size_t k = 0; k < NV; ++k) {
          store(xi + k * L, load<V>(xi + k * L) - lj * y[j - j0][k]);
        }
      }
    }
  }
  for (std::size_t j = j0; j < n; ++j) {
    const double* const colj = band + j * w;
    const std::size_t m = std::min(b, n - 1 - j);
    for (std::size_t k = 0; k < NV; ++k) {
      const V yj = load<V>(row(j) + k * L) / colj[0];
      store(row(j) + k * L, yj);
      for (std::size_t t = 1; t <= m; ++t) {
        double* const xt = row(j + t) + k * L;
        store(xt, load<V>(xt) - colj[t] * yj);
      }
    }
  }

  // Backward: L^T x = y — the single-RHS eight-accumulator dot product,
  // one set of accumulators per vector, reduced in the same fixed order.
  for (std::size_t jj = n; jj-- > 0;) {
    const double* const colj = band + jj * w;
    const std::size_t m = std::min(b, n - 1 - jj);
    V s[kBlk][NV] = {};
    std::size_t t = 1;
    for (; t + 7 <= m; t += 8) {
      for (std::size_t u = 0; u < kBlk; ++u) {
        const double l = colj[t + u];
        const double* const xt = row(jj + t + u);
        for (std::size_t k = 0; k < NV; ++k) s[u][k] += l * load<V>(xt + k * L);
      }
    }
    for (; t <= m; ++t) {
      const double l = colj[t];
      const double* const xt = row(jj + t);
      for (std::size_t k = 0; k < NV; ++k) s[0][k] += l * load<V>(xt + k * L);
    }
    double* const xj = row(jj);
    for (std::size_t k = 0; k < NV; ++k) {
      const V dot = ((s[0][k] + s[1][k]) + (s[2][k] + s[3][k])) +
                    ((s[4][k] + s[5][k]) + (s[6][k] + s[7][k]));
      store(xj + k * L, (load<V>(xj + k * L) - dot) / colj[0]);
    }
  }
}

/// Solve the `stride` interleaved systems as vectors of V, at most four
/// vectors per pass over the factor (more would spill the accumulators).
template <typename V>
void solve_lanes(const double* band, double* x, std::size_t n, std::size_t b,
                 std::size_t w, std::size_t stride) {
  constexpr std::size_t kMaxVectors = 4;
  const std::size_t vectors = stride / kLanes<V>;
  for (std::size_t v = 0; v < vectors; v += kMaxVectors) {
    double* const xv = x + v * kLanes<V>;
    switch (std::min(kMaxVectors, vectors - v)) {
      case 1: solve_block<V, 1>(band, xv, n, b, w, stride); break;
      case 2: solve_block<V, 2>(band, xv, n, b, w, stride); break;
      case 3: solve_block<V, 3>(band, xv, n, b, w, stride); break;
      default: solve_block<V, 4>(band, xv, n, b, w, stride); break;
    }
  }
}

/// Solve L L^T X = B in place for `stride` interleaved right-hand sides
/// (layout x[i * stride + r]); `stride` is even.
void solve_multi_lanes(const double* band, double* x, std::size_t n,
                       std::size_t b, std::size_t w, std::size_t stride) {
  simd::dispatch_lanes(stride, [&]<typename V>() {
    solve_lanes<V>(band, x, n, b, w, stride);
  });
}

}  // namespace

std::size_t BandedSpdMatrix::lane_stride(std::size_t nrhs) {
  return simd::lane_stride(nrhs);
}

void BandedSpdMatrix::solve(std::vector<double>& rhs) const {
  LIQUID3D_REQUIRE(rhs.size() == n_, "rhs size mismatch");
  solve(std::span<double>(rhs), 1);
}

void BandedSpdMatrix::solve(std::span<double> rhs, std::size_t nrhs) const {
  LIQUID3D_ASSERT(factorized_, "solve requires a factorized matrix");
  LIQUID3D_REQUIRE(nrhs > 0, "need at least one right-hand side");
  LIQUID3D_REQUIRE(rhs.size() == n_ * nrhs, "rhs size mismatch");
  const double* const band = band_.data();
  double* const x = rhs.data();

  if (nrhs > 1) {
    simd::at_lane_stride(x, n_, nrhs, [&](double* block, std::size_t stride) {
      solve_multi_lanes(band, block, n_, b_, w_, stride);
    });
    return;
  }

  // Forward: L y = rhs, column-oriented — once y[j] is final, its
  // contribution is pushed down the contiguous L column (an axpy).  The
  // blocked path finalizes kBlk y values at a time and applies their
  // columns in one fused sweep: the factor is read exactly once either
  // way, but the x update — a full store stream per column in the naive
  // axpy — is written once per block, dividing write traffic by kBlk.
  {
    constexpr std::size_t kBlk = 8;
    std::size_t j0 = 0;
    for (; j0 + kBlk <= n_; j0 += kBlk) {
      // Finalize y within the block (intra-block dependencies are the
      // kBlk x kBlk lower triangle at the top of the block's columns).
      for (std::size_t j = j0; j < j0 + kBlk; ++j) {
        double yj = x[j];
        for (std::size_t p = j0; p < j; ++p) {
          if (j - p <= b_) yj -= band[p * w_ + (j - p)] * x[p];
        }
        x[j] = yj / band[j * w_];
      }
      // Fused update of the rows every block column reaches.  cJ[i] is
      // L(i, J) — base pointers shifted so all eight streams index by i.
      const double y0 = x[j0], y1 = x[j0 + 1], y2 = x[j0 + 2], y3 = x[j0 + 3];
      const double y4 = x[j0 + 4], y5 = x[j0 + 5], y6 = x[j0 + 6], y7 = x[j0 + 7];
      const double* const c0 = band + j0 * w_ - j0;
      const double* const c1 = c0 + w_ - 1;
      const double* const c2 = c1 + w_ - 1;
      const double* const c3 = c2 + w_ - 1;
      const double* const c4 = c3 + w_ - 1;
      const double* const c5 = c4 + w_ - 1;
      const double* const c6 = c5 + w_ - 1;
      const double* const c7 = c6 + w_ - 1;
      const std::size_t i_common = std::min(n_ - 1, j0 + b_);
      for (std::size_t i = j0 + kBlk; i <= i_common; ++i) {
        x[i] -= c0[i] * y0 + c1[i] * y1 + c2[i] * y2 + c3[i] * y3 +
                c4[i] * y4 + c5[i] * y5 + c6[i] * y6 + c7[i] * y7;
      }
      // Per-column tails beyond the first column's band reach.  Rows inside
      // the block were already finalized above, so tails start no earlier
      // than the block end (narrow bands would otherwise re-apply
      // intra-block updates).
      for (std::size_t j = j0 + 1; j < j0 + kBlk; ++j) {
        const std::size_t i_hi = std::min(n_ - 1, j + b_);
        const double* const cj = band + j * w_ - j;
        const double yj = x[j];
        for (std::size_t i = std::max(i_common + 1, j0 + kBlk); i <= i_hi; ++i) {
          x[i] -= cj[i] * yj;
        }
      }
    }
    for (std::size_t j = j0; j < n_; ++j) {
      const double* const colj = band + j * w_;
      const double yj = x[j] / colj[0];
      x[j] = yj;
      const std::size_t m = std::min(b_, n_ - 1 - j);
      for (std::size_t t = 1; t <= m; ++t) x[j + t] -= colj[t] * yj;
    }
  }
  // Backward: L^T x = y — row j of L^T is column j of L, so this is a dot
  // product over the same contiguous run.  The reduction uses eight explicit
  // accumulators: a single serial chain is FMA-latency-bound and the
  // compiler may not reassociate floating-point sums on its own.  The
  // summation order is fixed, so results stay deterministic.
  for (std::size_t jj = n_; jj-- > 0;) {
    const double* const colj = band + jj * w_;
    const std::size_t m = std::min(b_, n_ - 1 - jj);
    const double* const xs = x + jj;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
    std::size_t t = 1;
    for (; t + 7 <= m; t += 8) {
      s0 += colj[t] * xs[t];
      s1 += colj[t + 1] * xs[t + 1];
      s2 += colj[t + 2] * xs[t + 2];
      s3 += colj[t + 3] * xs[t + 3];
      s4 += colj[t + 4] * xs[t + 4];
      s5 += colj[t + 5] * xs[t + 5];
      s6 += colj[t + 6] * xs[t + 6];
      s7 += colj[t + 7] * xs[t + 7];
    }
    for (; t <= m; ++t) s0 += colj[t] * xs[t];
    x[jj] = (x[jj] - (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)))) / colj[0];
  }
}

}  // namespace liquid3d
