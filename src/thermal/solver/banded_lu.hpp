// banded_lu.hpp — general (non-symmetric) banded LU direct solver.
//
// The liquid steady state admits an exact linear reduction: the coolant
// march is linear in the wall temperatures, and eliminating the fluid
// couples each silicon cell only to cells upstream in the same channel row
// — a distance of at most (cols-1)*layers + 1 node indices, i.e. within
// the thermal matrix's existing half-bandwidth.  The eliminated system is
// non-symmetric (advection is directional: upstream heats downstream, not
// vice versa), so it needs LU rather than Cholesky.  Factorization is
// unpivoted: ThermalModel3D builds a factor only when its rows are
// diagonally dominant (ThermalModel3D::dominance_margin), and a
// pivot-magnitude check fails loudly if an ill-formed matrix ever slips
// through.  The solves live in banded_lu_solve.cpp: one explicit-SIMD
// kernel for the single- and the multi-RHS solve.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/large_vector.hpp"

namespace liquid3d {

/// Column-major band storage: element (i, j) with j - bu <= i <= j + bl
/// lives at band_[j * (bl + bu + 1) + (i - j + bu)] — each column is a
/// contiguous run, upper band first.
class BandedLuMatrix {
 public:
  BandedLuMatrix(std::size_t n, std::size_t lower_bandwidth,
                 std::size_t upper_bandwidth);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t lower_bandwidth() const { return bl_; }
  [[nodiscard]] std::size_t upper_bandwidth() const { return bu_; }

  /// Access A(i, j); |i - j| must be within the respective bandwidth.
  [[nodiscard]] double& at(std::size_t i, std::size_t j);
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;
  /// Accumulate v into A(i, j).
  void add(std::size_t i, std::size_t j, double v) { at(i, j) += v; }

  void set_zero();

  /// In-place unpivoted LU (Doolittle: unit lower L).  Throws LogicError on
  /// a vanishing pivot.
  void factorize();
  [[nodiscard]] bool factorized() const { return factorized_; }

  /// Solve A x = rhs in place.
  void solve(std::vector<double>& rhs) const;

  /// Batched multi-RHS solve, the SPD twin's contract (see
  /// BandedSpdMatrix::solve(span, nrhs)): `rhs` holds nrhs right-hand
  /// sides interleaved node-major (rhs[i * nrhs + r]), each system's
  /// solution is bit-identical to a single-RHS solve of it, and a caller
  /// that packs at lane_stride(nrhs) runs in place.
  void solve(std::span<double> rhs, std::size_t nrhs) const;
  [[nodiscard]] static std::size_t lane_stride(std::size_t nrhs);

 private:
  std::size_t n_;
  std::size_t bl_;
  std::size_t bu_;
  std::size_t w_;  ///< column stride = bl_ + bu_ + 1
  LargeVector<double> band_;
  bool factorized_ = false;
};

}  // namespace liquid3d
