// batch_stepper.hpp — lockstep transient stepping of several independent
// ThermalModel3D instances through shared factorizations.
//
// Independent simulations that share a stack geometry and a step size
// share system matrices.  An air stack's backward-Euler matrix depends only
// on the conduction topology and 1/dt, so one banded Cholesky factor serves
// every model.  A liquid stack steps through its fluid-eliminated operator
// (ThermalModel3D::advance), which also depends on the cavity flows, so
// models are grouped by the factor they step through — models at one pump
// setting form one group.  Each group's right-hand sides are packed
// node-major interleaved and routed through one multi-RHS solve, whose
// per-system arithmetic replicates the single-RHS kernel exactly.
//
// Bit-identity contract: step(models, dt) leaves every model in exactly the
// state models[i]->step(dt) would have.
//
// The shared factor streams apply to the direct backend; models resolved
// to the PCG backend (solver/backend.hpp) step serially — trivially
// bit-identical — since an iterative solve has no factorization to share.
// Batches are always backend-homogeneous: the topology fingerprint mixes
// the resolved backend in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "thermal/model3d.hpp"

namespace liquid3d {

class BatchThermalStepper {
 public:
  /// Advance every model by one backward-Euler step of `dt_s` seconds
  /// through shared factorizations.  All models must have equal
  /// `topology_fingerprint()` (same stack geometry and thermal parameters —
  /// enforced); inputs (power, flow, temperatures) may differ freely.
  void step(std::span<ThermalModel3D* const> models, double dt_s);

  /// Shared multi-RHS solves issued so far (one per factor group per step;
  /// a serial run would have issued one per model).
  [[nodiscard]] std::uint64_t shared_solves() const { return shared_solves_; }
  /// Single-model RHS columns routed through those solves.
  [[nodiscard]] std::uint64_t solved_columns() const { return solved_columns_; }

 private:
  /// Solve every member's RHS (already assembled into its rhs_) through one
  /// multi-RHS solve of `factor`, leaving the solutions in its temps_.
  template <typename Factor>
  void solve_packed(const Factor& factor, std::span<ThermalModel3D* const> members);

  std::vector<double> packed_;  ///< node-major RHS block at the lane stride
  std::vector<const ThermalModel3D::FluidEliminatedSystem*> systems_;
  std::vector<std::size_t> substeps_;
  std::vector<bool> grouped_;
  std::vector<ThermalModel3D*> group_;
  std::uint64_t shared_solves_ = 0;
  std::uint64_t solved_columns_ = 0;
};

}  // namespace liquid3d
