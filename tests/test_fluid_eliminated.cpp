// The fluid-eliminated transient step (ThermalModel3D on the direct
// backend): one banded-LU solve of K + C/dt is the converged limit of the
// silicon<->fluid alternation the PCG backend iterates; the unpivoted LU
// is built only under the diagonal-dominance bound; factors are keyed by
// exact bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "geom/stack.hpp"
#include "thermal/model3d.hpp"
#include "thermal/steady_operator.hpp"

namespace liquid3d {
namespace {

ThermalModelParams grid_params(SolverBackend backend, bool alternate) {
  ThermalModelParams p;
  p.grid_rows = 8;
  p.grid_cols = 9;
  p.solver_backend = backend;
  p.alternate_flow_direction = alternate;
  return p;
}

/// Cores of every die at distinct powers, so the field is not symmetric.
void load(ThermalModel3D& m) {
  for (std::size_t l = 0; l < m.layer_count(); ++l) {
    const Floorplan& fp = m.stack().layer(l).floorplan;
    std::vector<double> w(fp.block_count(), 0.0);
    for (std::size_t b = 0; b < fp.block_count(); ++b) {
      if (fp.block(b).type == BlockType::kCore) {
        w[b] = 1.5 + 0.3 * static_cast<double>(b % 5) + 0.4 * static_cast<double>(l);
      }
    }
    m.set_block_power(l, w);
  }
}

std::vector<VolumetricFlow> flows_ml(const std::vector<double>& ml) {
  std::vector<VolumetricFlow> out;
  for (const double f : ml) out.push_back(VolumetricFlow::from_ml_per_min(f));
  return out;
}

/// Step a direct model and a PCG model polished to the fixed point's limit
/// side by side; return the largest silicon temperature difference seen.
double max_gap_to_converged_fixed_point(std::size_t layer_pairs, bool alternate,
                                        const std::vector<double>& ml) {
  ThermalModelParams tight = grid_params(SolverBackend::kPcg, alternate);
  tight.fluid_tolerance = 1e-10;
  tight.max_fluid_iterations = 1000;
  tight.pcg.tolerance = 1e-13;
  tight.pcg.max_iterations = 5000;
  ThermalModel3D direct(make_niagara_stack(layer_pairs, CoolingType::kLiquid),
                        grid_params(SolverBackend::kDirect, alternate));
  ThermalModel3D pcg(make_niagara_stack(layer_pairs, CoolingType::kLiquid), tight);
  double gap = 0.0;
  for (ThermalModel3D* m : {&direct, &pcg}) {
    m->set_cavity_flow(flows_ml(ml));
    load(*m);
    m->initialize(45.0);
  }
  for (int step = 0; step < 20; ++step) {
    direct.step(0.05);
    pcg.step(0.05);
    for (std::size_t l = 0; l < direct.layer_count(); ++l) {
      for (std::size_t c = 0; c < direct.grid().cell_count(); ++c) {
        gap = std::max(gap, std::abs(direct.cell_temperature(l, c) -
                                     pcg.cell_temperature(l, c)));
      }
    }
  }
  EXPECT_GT(direct.max_temperature(), 46.0);  // the stack did heat up
  for (std::size_t k = 0; k < direct.stack().cavity_count(); ++k) {
    EXPECT_NEAR(direct.fluid_outlet_temperature(k), pcg.fluid_outlet_temperature(k),
                1e-6)
        << "cavity " << k;
  }
  return gap;
}

TEST(FluidEliminated, TwoLayerStepMatchesConvergedFixedPoint) {
  EXPECT_LE(max_gap_to_converged_fixed_point(1, false, {14, 14, 14}), 1e-6);
}

TEST(FluidEliminated, FourLayerStepMatchesConvergedFixedPoint) {
  EXPECT_LE(max_gap_to_converged_fixed_point(2, false, {14, 14, 14, 14, 14}), 1e-6);
}

TEST(FluidEliminated, CounterflowStepMatchesConvergedFixedPoint) {
  EXPECT_LE(max_gap_to_converged_fixed_point(1, true, {12, 16, 12}), 1e-6);
  EXPECT_LE(max_gap_to_converged_fixed_point(2, true, {12, 16, 10, 14, 12}), 1e-6);
}

TEST(FluidEliminated, ValvedFlowsMatchConvergedFixedPoint) {
  EXPECT_LE(max_gap_to_converged_fixed_point(1, false, {9, 20, 11}), 1e-6);
  EXPECT_LE(max_gap_to_converged_fixed_point(2, false, {10, 18, 9, 24, 12}), 1e-6);
}

TEST(FluidEliminated, StagnantCavityMatchesConvergedFixedPoint) {
  // A closed cavity's coolant is the walls' conductance-weighted mean —
  // also affine, so it is eliminated the same way, with no fallback.
  EXPECT_LE(max_gap_to_converged_fixed_point(1, false, {15, 0, 15}), 1e-6);
}

TEST(FluidEliminated, OneSolvePerStepOnTheDefaultGrid) {
  // At the lowest pump setting sigma is just above 2 on the 2-layer default
  // grid; the capacitance term of a 50 ms step keeps every row dominant,
  // so the step is one solve.
  ThermalModelParams p;
  ThermalModel3D m(make_2layer_system(), p);
  m.set_cavity_flow(VolumetricFlow::from_ml_per_min(3.6));
  EXPECT_LT(m.dominance_margin(0.0), 0.0);
  EXPECT_GE(m.dominance_margin(1.0 / 0.05), 0.0);
}

/// Smallest |a_ii| - sum_j |a_ij| over the rows of the steady operator.
double assembled_row_margin(const ThermalModel3D& m) {
  SteadyOperator op;
  m.export_steady_operator(op);
  double margin = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < op.nodes; ++i) {
    double diag = 0.0;
    double off = 0.0;
    for (std::size_t e = op.row_ptr[i]; e < op.row_ptr[i + 1]; ++e) {
      (op.col[e] == i ? diag : off) += std::abs(op.val[e]);
    }
    margin = std::min(margin, diag - off);
  }
  return margin;
}

TEST(FluidEliminated, DominanceBoundHoldsOnTheAssembledOperator) {
  // sigma = g_sum / w_row is about 21.8 / (ml/min) on this grid.
  for (const bool alternate : {false, true}) {
    ThermalModel3D m(make_2layer_system(), grid_params(SolverBackend::kDirect, alternate));
    // sigma < 2: every row dominant, and the bound says so.
    m.set_cavity_flow(VolumetricFlow::from_ml_per_min(15.0));
    EXPECT_GE(m.dominance_margin(0.0), 0.0);
    EXPECT_GE(assembled_row_margin(m), -1e-15);
    // sigma > 2: rows lose dominance, never more than the bound allows.
    m.set_cavity_flow(VolumetricFlow::from_ml_per_min(4.0));
    const double bound = m.dominance_margin(0.0);
    const double actual = assembled_row_margin(m);
    EXPECT_LT(bound, 0.0);
    EXPECT_LT(actual, 0.0);
    EXPECT_GE(actual, bound * (1.0 + 1e-12));
    // The capacitance term restores it: C/dt grows linearly in 1/dt.
    EXPECT_GE(m.dominance_margin(1.0 / 0.005), 0.0);
  }
}

TEST(FluidEliminated, StepsBeyondTheBoundAreSubCycled) {
  // sigma ~ 5.4 at dt = 50 ms violates the bound; the step runs as the
  // fewest equal sub-steps that satisfy it and still matches the fixed
  // point of those sub-steps.
  ThermalModel3D m(make_2layer_system(), grid_params(SolverBackend::kDirect, false));
  m.set_cavity_flow(VolumetricFlow::from_ml_per_min(4.0));
  EXPECT_LT(m.dominance_margin(1.0 / 0.05), 0.0);
  ThermalModel3D sub(make_2layer_system(), grid_params(SolverBackend::kDirect, false));
  sub.set_cavity_flow(VolumetricFlow::from_ml_per_min(4.0));
  std::size_t k = 1;
  while (sub.dominance_margin(static_cast<double>(k) / 0.05) < 0.0) ++k;
  ASSERT_GT(k, 1u);
  for (ThermalModel3D* model : {&m, &sub}) {
    load(*model);
    model->initialize(45.0);
  }
  m.step(0.05);
  for (std::size_t i = 0; i < k; ++i) sub.step(0.05 / static_cast<double>(k));
  EXPECT_NEAR(m.max_temperature(), sub.max_temperature(), 1e-9);
}

TEST(FluidEliminated, ViolatingConfigRaisesSolverErrorNamingTheBound) {
  // A 1000 s step at a trickle would need tens of thousands of sub-steps.
  ThermalModel3D m(make_2layer_system(), grid_params(SolverBackend::kDirect, false));
  m.set_cavity_flow(VolumetricFlow::from_ml_per_min(0.5));
  load(m);
  try {
    m.step(1000.0);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.backend(), "direct");
    EXPECT_NE(std::string(e.what()).find("(sigma-2)/(sigma+2)"), std::string::npos);
  }
}

TEST(FluidEliminated, OneUlpFlowChangeMatchesAFreshModel) {
  // The slot compares exact bits, like the shared cache: a model whose
  // flow moves by one ulp steps through the factor of its new flow, so it
  // lands where a fresh model restored to the same state lands.
  const VolumetricFlow f = VolumetricFlow::from_ml_per_min(14.0);
  const VolumetricFlow f_ulp = VolumetricFlow::from_m3_per_s(
      std::nextafter(f.m3_per_s(), 1.0));
  ThermalModel3D moved(make_2layer_system(), grid_params(SolverBackend::kDirect, false));
  ThermalModel3D stays(make_2layer_system(), grid_params(SolverBackend::kDirect, false));
  for (ThermalModel3D* m : {&moved, &stays}) {
    m->set_cavity_flow(f);
    load(*m);
    m->initialize(45.0);
  }
  for (int i = 0; i < 5; ++i) moved.step(0.05);
  stays.step(0.05);  // keeps the factor at f alive
  ThermalState state;
  moved.save_state(state);
  moved.set_cavity_flow(f_ulp);
  for (int i = 0; i < 5; ++i) moved.step(0.05);
  EXPECT_NE(moved.fluid_eliminated_factor(), stays.fluid_eliminated_factor());

  ThermalModel3D fresh(make_2layer_system(), grid_params(SolverBackend::kDirect, false));
  fresh.set_cavity_flow(f_ulp);
  load(fresh);
  fresh.restore_state(state);
  for (int i = 0; i < 5; ++i) fresh.step(0.05);
  for (std::size_t l = 0; l < moved.layer_count(); ++l) {
    for (std::size_t c = 0; c < moved.grid().cell_count(); ++c) {
      ASSERT_EQ(moved.cell_temperature(l, c), fresh.cell_temperature(l, c))
          << "layer " << l << " cell " << c;
    }
  }
}

}  // namespace
}  // namespace liquid3d
