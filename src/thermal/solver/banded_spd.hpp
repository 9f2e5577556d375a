// banded_spd.hpp — symmetric positive-definite banded direct solver.
//
// The 3D thermal grid, ordered column-of-cells-major with layers innermost,
// produces an SPD matrix with half-bandwidth cols x layers.  Backward-Euler
// stepping solves with the same matrix thousands of times, so we factorize
// once (O(n b^2)) and back-substitute per step (O(n b)).
//
// Storage is LAPACK-style lower-band column-major ('L' of dpbtrf): column j
// of the band — the diagonal followed by the sub-diagonal entries — is a
// contiguous run of b+1 doubles.  The factorization is the right-looking
// (submatrix-update) variant, whose two inner-loop streams are both unit
// stride, and the triangular solves are column-oriented for the same reason;
// every hot loop auto-vectorizes.  The seed implementation kept the band
// row-major, which made every inner-loop access stride by the full band
// width (~1.7 KB at the production sizes) — one cache miss per multiply.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/large_vector.hpp"

namespace liquid3d {

/// Lower-banded column-major storage: element (i, j) with j <= i <= j+b
/// lives at band_[j * (b+1) + (i - j)].
class BandedSpdMatrix {
 public:
  BandedSpdMatrix(std::size_t n, std::size_t half_bandwidth);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t half_bandwidth() const { return b_; }

  /// Access A(i, j) for i in [j, j + b]; callers must keep j <= i.
  [[nodiscard]] double& at(std::size_t i, std::size_t j);
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;

  /// Symmetric accumulate: adds g to A(i,i) and A(j,j), -g to A(max,min).
  void add_coupling(std::size_t i, std::size_t j, double g);
  /// Adds g to the diagonal A(i,i).
  void add_diagonal(std::size_t i, double g);

  /// Clears every entry and the factorized flag; the matrix can be
  /// re-assembled and factorized again.
  void set_zero();

  /// In-place Cholesky A = L L^T.  Throws LogicError if a pivot is not
  /// positive (matrix not SPD — indicates a malformed thermal network).
  void factorize();
  [[nodiscard]] bool factorized() const { return factorized_; }

  /// Solve A x = rhs using the factorization (rhs is overwritten with x).
  void solve(std::vector<double>& rhs) const;

  /// Batched multi-RHS solve.  `rhs` holds nrhs right-hand sides in
  /// node-major interleaved layout — rhs[i * nrhs + r] is row i of system r
  /// — so the per-row inner loop over systems is contiguous and the L
  /// column loaded for row i is reused across every system.  Overwrites
  /// `rhs` with the solutions in the same layout.  Each system's solution is
  /// BIT-IDENTICAL to a standalone single-RHS solve of that right-hand side
  /// (the kernel replicates the single-RHS operation order per system);
  /// batched transient scenarios rely on this for serial parity.
  ///
  /// The kernel works at lane_stride(nrhs) systems per row: when nrhs is
  /// already a lane stride the solve runs in place; otherwise the systems
  /// are copied into a padded scratch block first.  Hot callers pack at
  /// lane_stride() themselves.
  void solve(std::span<double> rhs, std::size_t nrhs) const;

  /// The interleave stride the multi-RHS kernel runs `nrhs` systems at: 1
  /// and 2 stay, wider batches round up to whole vectors of the kernel's
  /// build (a multiple of 4 lanes with AVX or AVX-512, of 2 otherwise).  A
  /// caller that packs at this stride (the extra lanes zero, or anything
  /// finite or not — systems never mix) and passes it as `nrhs` gets the
  /// in-place kernel; each real lane's result is unchanged by the padding.
  [[nodiscard]] static std::size_t lane_stride(std::size_t nrhs);

 private:
  std::size_t n_;
  std::size_t b_;
  std::size_t w_;  ///< column stride = b_ + 1
  LargeVector<double> band_;
  bool factorized_ = false;
};

}  // namespace liquid3d
