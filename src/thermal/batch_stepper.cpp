#include "thermal/batch_stepper.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace liquid3d {

// Rows are packed at the kernel's lane stride as a tiled transpose: tiles
// of kTile rows are exchanged with the packed buffer so the strided
// accesses stay inside an L1-resident window.  Padding lanes hold zeros (a
// zero RHS solves to zeros) and are never unpacked.
template <typename Factor>
void BatchThermalStepper::solve_packed(const Factor& factor,
                                       std::span<ThermalModel3D* const> members) {
  constexpr std::size_t kTile = 64;
  const std::size_t n = members.front()->node_count_;
  const std::size_t nb = members.size();
  const std::size_t stride = Factor::lane_stride(nb);
  packed_.assign(n * stride, 0.0);
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i_end = std::min(n, i0 + kTile);
    for (std::size_t r = 0; r < nb; ++r) {
      const double* const src = members[r]->rhs_.data();
      double* const dst = packed_.data() + r;
      for (std::size_t i = i0; i < i_end; ++i) dst[i * stride] = src[i];
    }
  }
  factor.solve(std::span<double>(packed_.data(), n * stride), stride);
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i_end = std::min(n, i0 + kTile);
    for (std::size_t r = 0; r < nb; ++r) {
      double* const dst = members[r]->temps_.data();
      const double* const src = packed_.data() + r;
      for (std::size_t i = i0; i < i_end; ++i) dst[i] = src[i * stride];
    }
  }
  ++shared_solves_;
  solved_columns_ += nb;
}

void BatchThermalStepper::step(std::span<ThermalModel3D* const> models,
                               double dt_s) {
  LIQUID3D_REQUIRE(!models.empty(), "batch step needs at least one model");
  LIQUID3D_REQUIRE(dt_s > 0.0, "time step must be positive");
  ThermalModel3D& lead = *models.front();
  for (ThermalModel3D* m : models) {
    LIQUID3D_REQUIRE(m->topology_fingerprint() == lead.topology_fingerprint(),
                     "batched models must share stack geometry and thermal "
                     "parameters (topology fingerprints differ)");
  }
  // The shared-factor multi-RHS path is a direct-backend construct.  PCG
  // models share nothing step-to-step beyond their (cheap, per-model) CSR
  // systems, so a PCG batch — homogeneous, because the topology fingerprint
  // mixes the resolved backend in — steps serially.
  if (lead.backend_ != SolverBackend::kDirect) {
    for (ThermalModel3D* m : models) m->step(dt_s);
    return;
  }
  for (ThermalModel3D* m : models) {
    m->temps_prev_.assign(m->temps_.begin(), m->temps_.end());
  }

  if (!lead.stack_.has_cavities()) {
    // Air: one SPD factor per dt serves every model.
    const BandedSpdMatrix& mat = lead.matrix_for_dt(dt_s);
    for (ThermalModel3D* m : models) m->assemble_transient_rhs(1.0 / dt_s, m->rhs_.data());
    solve_packed(mat, models);
    for (ThermalModel3D* m : models) m->update_package_transient(dt_s);
    return;
  }

  // Liquid: the fluid-eliminated factor depends on the flows, so members
  // are grouped by the factor they step through (first-appearance order)
  // and each group takes one multi-RHS solve per sub-step — exactly
  // ThermalModel3D::advance's solves for each member.  Members of a group
  // share flows and dt, hence the sub-step count.
  systems_.clear();
  substeps_.clear();
  for (ThermalModel3D* m : models) {
    substeps_.push_back(m->admissible_substeps(dt_s));
    systems_.push_back(
        &m->fluid_eliminated(static_cast<double>(substeps_.back()) / dt_s));
  }
  grouped_.assign(models.size(), false);
  for (std::size_t lo = 0; lo < models.size(); ++lo) {
    if (grouped_[lo]) continue;
    group_.clear();
    for (std::size_t i = lo; i < models.size(); ++i) {
      if (systems_[i] != systems_[lo]) continue;
      grouped_[i] = true;
      group_.push_back(models[i]);
    }
    for (std::size_t sub = 0; sub < substeps_[lo]; ++sub) {
      for (ThermalModel3D* m : group_) {
        m->assemble_eliminated_rhs(*systems_[lo], m->rhs_.data());
      }
      solve_packed(systems_[lo]->lu, group_);
    }
  }
  for (std::size_t i = 0; i < models.size(); ++i) {
    (void)models[i]->march_all_fluid();
    ThermalModel3D::record_fluid_fixed_point(substeps_[i], false);
  }
}

}  // namespace liquid3d
