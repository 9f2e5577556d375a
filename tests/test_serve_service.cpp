// ThermalService (serve/service.hpp) and its query queue (serve/queue.hpp).
// Contracts under test: asynchronous what-if/replay answers are bit-identical
// to solo SimulationSession runs of the same cell, concurrent same-topology
// queries share lockstep batches, malformed queries fail fast through the
// future, a pooled model only answers queries of its own system, and the
// session's service-facing const accessors report what a server needs
// without touching internals.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "common/error.hpp"
#include "serve/service.hpp"
#include "sim/session.hpp"

namespace liquid3d {
namespace {

/// Small-grid what-if cell: fast enough for a unit test, full-fidelity in
/// every other respect.
WhatIfQuery small_whatif(std::uint64_t seed) {
  WhatIfQuery q;
  q.scenario = "talb-var";
  q.benchmark = "Web-med";
  q.duration_s = 2.0;
  q.seed = seed;
  q.grid_rows = 8;
  q.grid_cols = 9;
  return q;
}

void expect_bit_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.hotspot_percent, b.hotspot_percent);
  EXPECT_EQ(a.hotspot_max_sample, b.hotspot_max_sample);
  EXPECT_EQ(a.above_target_percent, b.above_target_percent);
  EXPECT_EQ(a.spatial_gradient_percent, b.spatial_gradient_percent);
  EXPECT_EQ(a.thermal_cycles_per_1000, b.thermal_cycles_per_1000);
  EXPECT_EQ(a.avg_tmax, b.avg_tmax);
  EXPECT_EQ(a.chip_energy_j, b.chip_energy_j);
  EXPECT_EQ(a.pump_energy_j, b.pump_energy_j);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.throughput_per_s, b.throughput_per_s);
  EXPECT_EQ(a.avg_utilization, b.avg_utilization);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.pump_transitions, b.pump_transitions);
  EXPECT_EQ(a.valve_transitions, b.valve_transitions);
  EXPECT_EQ(a.avg_flow_skew, b.avg_flow_skew);
  EXPECT_EQ(a.predictor_rebuilds, b.predictor_rebuilds);
  EXPECT_EQ(a.forecast_rmse, b.forecast_rmse);
  EXPECT_EQ(a.avg_pump_setting, b.avg_pump_setting);
}

SimulationResult run_solo(const SimulationConfig& cfg) {
  SimulationSession session(cfg);
  session.init();
  while (session.step()) {
  }
  return session.result();
}

TEST(ServeService, WhatIfBitIdenticalToSoloSession) {
  ThermalService service;
  const WhatIfQuery q = small_whatif(11);
  const SessionOutcome outcome = service.what_if(q).get();
  EXPECT_TRUE(outcome.trace.empty());
  expect_bit_identical(outcome.result,
                       run_solo(ThermalService::session_config(q)));
}

TEST(ServeService, ConcurrentWhatIfsShareLockstepBatches) {
  ServeParams params;
  params.queue.max_batch = 8;
  params.queue.batch_window_ms = 50.0;  // generous: all submits join one batch
  ThermalService service(params);

  std::vector<std::future<SessionOutcome>> futures;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    futures.push_back(service.what_if(small_whatif(seed)));
  }
  std::vector<SessionOutcome> outcomes;
  for (auto& f : futures) outcomes.push_back(f.get());

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.session_queries, 4u);
  EXPECT_EQ(stats.batched_sessions, 4u);
  EXPECT_LT(stats.batches, 4u);   // same topology => grouped, not serial
  EXPECT_GE(stats.max_batch, 2u);
  EXPECT_EQ(stats.solo_fallbacks, 0u);

  // Batched answers are the solo answers, bitwise.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_bit_identical(
        outcomes[seed - 1].result,
        run_solo(ThermalService::session_config(small_whatif(seed))));
  }
}

TEST(ServeService, ReplayAppliesPhasesAndTraces) {
  ThermalService service;
  ReplayQuery q;
  q.base = small_whatif(5);
  q.base.duration_s = 3.0;
  q.phases = {{SimTime::from_s(1.0), 0.25}, {SimTime::from_s(2.0), 1.0}};
  q.trace_period_s = 0.5;

  const SessionOutcome outcome = service.replay(q).get();
  // 3 s at a 0.5 s trace period: six samples, strictly increasing time.
  ASSERT_GE(outcome.trace.size(), 5u);
  for (std::size_t i = 1; i < outcome.trace.size(); ++i) {
    EXPECT_GT(outcome.trace[i].now.as_ms(), outcome.trace[i - 1].now.as_ms());
  }

  SimulationConfig cfg = ThermalService::session_config(q.base);
  cfg.phases = q.phases;
  expect_bit_identical(outcome.result, run_solo(cfg));
}

TEST(ServeService, UnknownNamesFailFastThroughFuture) {
  ThermalService service;
  WhatIfQuery bad_scenario = small_whatif(1);
  bad_scenario.scenario = "no-such-scenario";
  EXPECT_THROW(service.what_if(bad_scenario).get(), ConfigError);

  WhatIfQuery bad_benchmark = small_whatif(1);
  bad_benchmark.benchmark = "no-such-benchmark";
  EXPECT_THROW(service.what_if(bad_benchmark).get(), ConfigError);

  // The queue stays usable after rejected submissions.
  EXPECT_NO_THROW(service.what_if(small_whatif(2)).get());
}

TEST(ServeService, SteadyQueryValidation) {
  ThermalService service;
  SteadyQuery q;
  q.config.cooling = CoolingMode::kLiquidMax;
  q.config.thermal.grid_rows = 8;
  q.config.thermal.grid_cols = 9;

  SteadyQuery bad_flow_arity = q;
  bad_flow_arity.flows_ml_per_min = {10.0};  // cavity count is > 1
  EXPECT_THROW((void)service.steady(bad_flow_arity), ConfigError);

  SteadyQuery negative_power = q;
  negative_power.core_watts = -1.0;
  EXPECT_THROW((void)service.steady(negative_power), ConfigError);

  SteadyQuery air_with_flows = q;
  air_with_flows.config.cooling = CoolingMode::kAir;
  air_with_flows.flows_ml_per_min = {10.0, 10.0, 10.0};
  EXPECT_THROW((void)service.steady(air_with_flows), ConfigError);
}

TEST(ServeService, PooledModelIsKeyedOnTheSolverBackend) {
  SteadyQuery direct;
  direct.config.cooling = CoolingMode::kLiquidMax;
  direct.config.thermal.grid_rows = 8;
  direct.config.thermal.grid_cols = 9;
  direct.core_watts = 2.0;
  direct.force_full = true;
  SteadyQuery pcg = direct;
  pcg.config.thermal.solver_backend = SolverBackend::kPcg;

  // The pooled model the direct query built must not answer the PCG one.
  ThermalService shared;
  (void)shared.steady(direct);
  const SteadyAnswer pooled = shared.steady(pcg);
  ThermalService fresh;
  const SteadyAnswer reference = fresh.steady(pcg);
  EXPECT_EQ(pooled.t_max_c, reference.t_max_c);
  EXPECT_EQ(pooled.layer_max_c, reference.layer_max_c);
}

// -- Session const-inspection surface (service-facing accessors) --------------

TEST(ServeSession, ConstAccessorsExposeServiceState) {
  SimulationConfig cfg = ThermalService::session_config(small_whatif(3));
  cfg.phases = {{SimTime::from_s(1.0), 0.5}};
  SimulationSession session(cfg);
  const SimulationSession& view = session;

  session.init();
  EXPECT_EQ(view.phase_index(), 0u);
  EXPECT_GT(view.current_tmax(), cfg.thermal.inlet_temperature);
  EXPECT_EQ(view.current_tmax(), view.thermal().max_temperature());
  // talb-var steers the pump but has no valve network: empty openings.
  EXPECT_TRUE(view.valve_openings().empty());
  EXPECT_LT(view.pump_setting(), 100u);

  while (session.step()) {
  }
  // All phases fired by the end of the run.
  EXPECT_EQ(view.phase_index(), cfg.phases.size());
  EXPECT_EQ(view.current_tmax(), view.thermal().max_temperature());
}

}  // namespace
}  // namespace liquid3d
