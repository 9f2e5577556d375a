#include "thermal/batch_stepper.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace liquid3d {

void BatchThermalStepper::step(std::span<ThermalModel3D* const> models,
                               double dt_s) {
  LIQUID3D_REQUIRE(!models.empty(), "batch step needs at least one model");
  LIQUID3D_REQUIRE(dt_s > 0.0, "time step must be positive");
  ThermalModel3D& lead = *models.front();
  for (ThermalModel3D* m : models) {
    LIQUID3D_REQUIRE(m->topology_fingerprint() == lead.topology_fingerprint(),
                     "batched models must share stack geometry and thermal "
                     "parameters (topology fingerprints differ)");
    // Serial step() with a zero iteration budget is a degenerate no-op the
    // lockstep loop below cannot reproduce (every active model gets one
    // solve); reject it instead of silently diverging from serial.
    LIQUID3D_REQUIRE(m->params().max_fluid_iterations >= 1,
                     "batched stepping requires max_fluid_iterations >= 1");
  }
  // The shared-factor multi-RHS path is a direct-backend construct.  PCG
  // models share nothing step-to-step beyond their (cheap, per-model) CSR
  // systems, so a PCG batch — homogeneous, because the topology fingerprint
  // mixes the resolved backend in — steps serially; the lockstep grouping
  // machinery above still applies, it just buys no shared solve.
  if (lead.backend_ != SolverBackend::kDirect) {
    for (ThermalModel3D* m : models) m->step(dt_s);
    return;
  }
  const BandedSpdMatrix& mat = lead.matrix_for_dt(dt_s);
  const double inv_dt = 1.0 / dt_s;
  const std::size_t n = lead.node_count_;
  const bool liquid = lead.stack_.has_cavities();

  // Mirror of ThermalModel3D::advance, vectorized over models: every model
  // assembles from its own temps_prev_ snapshot each iteration, and a model
  // leaves the active set exactly when its serial loop would have broken —
  // an extra solve after convergence would perturb the state.
  active_.assign(models.begin(), models.end());
  for (ThermalModel3D* m : active_) {
    m->temps_prev_.assign(m->temps_.begin(), m->temps_.end());
  }
  // Interleaving is done as a tiled transpose: each model assembles into
  // its own contiguous rhs_ scratch, and tiles of kTile rows are exchanged
  // with the packed buffer so the strided accesses stay inside an
  // L1-resident window — a straight per-model strided pass would re-walk
  // the whole packed buffer once per model.  Rows are packed at the
  // kernel's lane stride; the padding lanes hold zeros (a zero RHS solves
  // to zeros, so they stay zero) and are never unpacked.
  constexpr std::size_t kTile = 64;
  std::size_t stride = 0;
  std::size_t packed_lanes = 0;  // lanes [packed_lanes, stride) are zero
  for (std::size_t iter = 0; !active_.empty(); ++iter) {
    const std::size_t nb = active_.size();
    if (BandedSpdMatrix::lane_stride(nb) != stride) {
      stride = BandedSpdMatrix::lane_stride(nb);
      packed_.resize(n * stride);
      packed_lanes = stride;  // a new layout: every lane is stale
    }
    for (std::size_t i = 0; i < n && nb < packed_lanes; ++i) {
      std::fill(packed_.data() + i * stride + nb,
                packed_.data() + i * stride + packed_lanes, 0.0);
    }
    packed_lanes = nb;
    for (ThermalModel3D* m : active_) {
      m->assemble_transient_rhs(inv_dt, m->rhs_.data());
    }
    for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
      const std::size_t i_end = std::min(n, i0 + kTile);
      for (std::size_t r = 0; r < nb; ++r) {
        const double* const src = active_[r]->rhs_.data();
        double* const dst = packed_.data() + r;
        for (std::size_t i = i0; i < i_end; ++i) dst[i * stride] = src[i];
      }
    }
    mat.solve(std::span<double>(packed_.data(), n * stride), stride);
    ++shared_solves_;
    solved_columns_ += nb;
    for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
      const std::size_t i_end = std::min(n, i0 + kTile);
      for (std::size_t r = 0; r < nb; ++r) {
        double* const dst = active_[r]->temps_.data();
        const double* const src = packed_.data() + r;
        for (std::size_t i = i0; i < i_end; ++i) dst[i] = src[i * stride];
      }
    }
    next_active_.clear();
    for (ThermalModel3D* m : active_) {
      if (!liquid) continue;  // air: single implicit solve, no fluid loop
      const bool converged = m->march_all_fluid() < m->params_.fluid_tolerance;
      if (!converged && iter + 1 < m->params_.max_fluid_iterations) {
        next_active_.push_back(m);
      } else {
        ThermalModel3D::record_fluid_fixed_point(iter + 1, !converged);
      }
    }
    active_.swap(next_active_);
  }
  if (!liquid) {
    for (ThermalModel3D* m : models) m->update_package_transient(dt_s);
  }
}

}  // namespace liquid3d
