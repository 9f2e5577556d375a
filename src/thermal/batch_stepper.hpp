// batch_stepper.hpp — lockstep transient stepping of several independent
// ThermalModel3D instances through ONE shared banded Cholesky factorization.
//
// Independent simulations that share a stack geometry and a step size share
// a system matrix: the backward-Euler matrix depends only on the conduction
// topology and 1/dt, never on the runtime inputs (power map, per-cavity
// flow, fluid state).  Advancing N such models together therefore needs one
// factor stream per step instead of N — the models' RHS vectors are packed
// node-major interleaved and routed through the multi-RHS
// BandedSpdMatrix::solve(span, nrhs), whose per-system arithmetic replicates
// the single-RHS kernel exactly.
//
// Bit-identity contract: step(models, dt) leaves every model in exactly the
// state models[i]->step(dt) would have — the per-model silicon<->fluid
// fixed point keeps its own convergence trajectory (models that converge
// early are masked out of subsequent shared solves rather than over-solved).
//
// The shared factor stream applies to the direct (banded Cholesky) backend;
// models resolved to the PCG backend (solver/backend.hpp) step serially —
// trivially bit-identical — since an iterative solve has no factorization
// to share.  Batches are always backend-homogeneous: the topology
// fingerprint mixes the resolved backend in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "thermal/model3d.hpp"

namespace liquid3d {

class BatchThermalStepper {
 public:
  /// Advance every model by one backward-Euler step of `dt_s` seconds,
  /// sharing models[0]'s cached factorization.  All models must have equal
  /// `topology_fingerprint()` (same stack geometry and thermal parameters —
  /// enforced); inputs (power, flow, temperatures) may differ freely.
  void step(std::span<ThermalModel3D* const> models, double dt_s);

  /// Shared multi-RHS solves issued so far (one per fluid fixed-point
  /// iteration per step; a serial run would have issued one per model).
  [[nodiscard]] std::uint64_t shared_solves() const { return shared_solves_; }
  /// Single-model RHS columns routed through those solves.
  [[nodiscard]] std::uint64_t solved_columns() const { return solved_columns_; }

 private:
  std::vector<double> packed_;  ///< node-major RHS block at the lane stride
  std::vector<ThermalModel3D*> active_;
  std::vector<ThermalModel3D*> next_active_;
  std::uint64_t shared_solves_ = 0;
  std::uint64_t solved_columns_ = 0;
};

}  // namespace liquid3d
