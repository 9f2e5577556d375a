#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "coolant/flow.hpp"
#include "coolant/pump.hpp"
#include "coolant/valve_network.hpp"
#include "geom/sites.hpp"
#include "sim/scenario.hpp"
#include "workload/benchmarks.hpp"

namespace liquid3d {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Expand a query's power specification to full [layer][block] shape.
std::vector<std::vector<double>> resolve_watts(const SteadyQuery& q,
                                               const Stack3D& stack) {
  std::vector<std::vector<double>> watts(stack.layer_count());
  for (std::size_t l = 0; l < stack.layer_count(); ++l) {
    watts[l].assign(stack.layer(l).floorplan.block_count(), 0.0);
  }
  if (q.block_watts.empty()) {
    LIQUID3D_REQUIRE(std::isfinite(q.core_watts) && q.core_watts >= 0.0,
                     "steady query core_watts must be finite and >= 0");
    for (const BlockSite& site : enumerate_sites(stack, BlockType::kCore)) {
      watts[site.layer][site.block] = q.core_watts;
    }
    return watts;
  }
  LIQUID3D_REQUIRE(q.block_watts.size() <= stack.layer_count(),
                   "steady query has more power layers than the stack");
  for (std::size_t l = 0; l < q.block_watts.size(); ++l) {
    LIQUID3D_REQUIRE(q.block_watts[l].size() <= watts[l].size(),
                     "steady query has more blocks than the layer's floorplan");
    for (std::size_t b = 0; b < q.block_watts[l].size(); ++b) {
      const double w = q.block_watts[l][b];
      LIQUID3D_REQUIRE(std::isfinite(w) && w >= 0.0,
                       "steady query block power must be finite and >= 0");
      watts[l][b] = w;
    }
  }
  return watts;
}

/// Resolve the query's flow specification to a per-cavity vector (empty for
/// air).  Precedence: explicit flows > valve openings > uniform delivery.
std::vector<VolumetricFlow> resolve_flows(const SimulationConfig& cfg,
                                          const SteadyQuery& q,
                                          const Stack3D& stack) {
  if (cfg.cooling == CoolingMode::kAir) {
    LIQUID3D_REQUIRE(q.flows_ml_per_min.empty() && q.valve_openings.empty(),
                     "air configurations take no flow specification");
    return {};
  }
  const std::size_t cavities = stack.cavity_count();
  if (!q.flows_ml_per_min.empty()) {
    LIQUID3D_REQUIRE(q.flows_ml_per_min.size() == cavities,
                     "explicit flow arity must equal the cavity count");
    std::vector<VolumetricFlow> flows;
    flows.reserve(cavities);
    for (double ml : q.flows_ml_per_min) {
      LIQUID3D_REQUIRE(std::isfinite(ml) && ml > 0.0,
                       "per-cavity flows must be finite and > 0 ml/min");
      flows.push_back(VolumetricFlow::from_ml_per_min(ml));
    }
    return flows;
  }
  const MicrochannelModel channels(stack.cavity(), cfg.thermal.coolant,
                                   cfg.thermal.channel_params);
  const FlowDelivery delivery(PumpModel::laing_ddc(), cfg.delivery_mode,
                              channels, stack.width(), cavities);
  const std::size_t setting = q.pump_setting == SteadyQuery::kTopSetting
                                  ? delivery.setting_count() - 1
                                  : q.pump_setting;
  LIQUID3D_REQUIRE(setting < delivery.setting_count(),
                   "pump setting out of range");
  if (!q.valve_openings.empty()) {
    LIQUID3D_REQUIRE(q.valve_openings.size() == cavities,
                     "valve opening arity must equal the cavity count");
    const ValveNetwork network(delivery);
    return network.flows(setting, q.valve_openings);
  }
  return std::vector<VolumetricFlow>(cavities, delivery.per_cavity(setting));
}

}  // namespace

ThermalService::ModelEntry::ModelEntry(const SimulationConfig& cfg)
    : model(make_simulation_stack(cfg), cfg.thermal) {}

ThermalService::ThermalService(ServeParams params)
    : params_(params),
      models_(params.model_pool_capacity),
      roms_(params.rom_cache_capacity),
      queue_(params.queue) {
  LIQUID3D_REQUIRE(params_.model_pool_capacity >= 1,
                   "model pool capacity must be >= 1");
  LIQUID3D_REQUIRE(params_.rom_cache_capacity >= 1,
                   "ROM cache capacity must be >= 1");
}

ThermalService::~ThermalService() { queue_.stop(); }

std::shared_ptr<ThermalService::ModelEntry> ThermalService::model_for(
    const SimulationConfig& cfg, const std::string& key) {
  return models_.get(key, [&cfg] { return std::make_shared<ModelEntry>(cfg); });
}

std::shared_ptr<const ReducedSteadyModel> ThermalService::rom_for(
    const SimulationConfig& cfg, const ConfigIdentity& id,
    const std::vector<VolumetricFlow>& flows) {
  std::string key = id.system;
  for (VolumetricFlow f : flows) {
    key += format_double(f.ml_per_min());
    key += ',';
  }
  return roms_.get(key, [&] {
    const std::shared_ptr<ModelEntry> entry = model_for(cfg, id.system + id.refs);
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (cfg.cooling != CoolingMode::kAir) entry->model.set_cavity_flow(flows);
    return std::make_shared<const ReducedSteadyModel>(
        ReducedSteadyModel::build(entry->model, params_.rom));
  });
}

SteadyAnswer ThermalService::full_steady(
    const SteadyQuery& query, const ConfigIdentity& id,
    const std::vector<std::vector<double>>& block_watts,
    const std::vector<VolumetricFlow>& flows) {
  SimulationConfig cfg = query.config;
  const bool liquid = cfg.cooling != CoolingMode::kAir;
  if (query.reference_c) {
    (liquid ? cfg.thermal.inlet_temperature : cfg.thermal.ambient_temperature) =
        *query.reference_c;
  }
  // The full model bakes the boundary reference into its parameters, so a
  // reference override is a distinct pool entry (the ROM does not care).
  const std::shared_ptr<ModelEntry> entry = model_for(
      cfg, id.system + (query.reference_c ? refs_identity(cfg.thermal) : id.refs));
  SteadyAnswer answer;
  std::lock_guard<std::mutex> lock(entry->mu);
  ThermalModel3D& model = entry->model;
  if (liquid) model.set_cavity_flow(flows);
  for (std::size_t l = 0; l < block_watts.size(); ++l) {
    model.set_block_power(l, block_watts[l]);
  }
  model.solve_steady_state();
  full_solves_.add();
  answer.t_max_c = model.max_temperature();
  const std::size_t layers = model.stack().layer_count();
  ThermalState state;
  model.save_state(state);
  answer.layer_max_c.assign(layers, -1e300);
  for (std::size_t i = 0; i < state.temps.size(); ++i) {
    const std::size_t layer = i % layers;
    answer.layer_max_c[layer] = std::max(answer.layer_max_c[layer], state.temps[i]);
  }
  return answer;
}

SteadyAnswer ThermalService::steady(const SteadyQuery& query) {
  // Latency distributions by path (shared across service instances; the
  // references are resolved once, so the steady hot path never takes the
  // registry lock).
  static obs::Histogram& rom_seconds =
      obs::Registry::global().histogram("liquid3d_serve_steady_rom_seconds");
  static obs::Histogram& full_seconds =
      obs::Registry::global().histogram("liquid3d_serve_steady_full_seconds");
  const auto start = Clock::now();
  steady_queries_.add();
  const SimulationConfig& cfg = query.config;
  const ConfigIdentity id = config_identity(cfg);
  const Stack3D stack = make_simulation_stack(cfg);
  const std::vector<std::vector<double>> watts = resolve_watts(query, stack);
  const std::vector<VolumetricFlow> flows = resolve_flows(cfg, query, stack);
  const bool liquid = cfg.cooling != CoolingMode::kAir;
  const double t_ref = query.reference_c
                           ? *query.reference_c
                           : (liquid ? cfg.thermal.inlet_temperature
                                     : cfg.thermal.ambient_temperature);

  if (!query.force_full) {
    const std::shared_ptr<const ReducedSteadyModel> rom = rom_for(cfg, id, flows);
    thread_local ReducedSteadyModel::Scratch scratch;
    RomEvaluation eval;
    rom->evaluate(watts, t_ref, query.max_error_c, scratch, eval);
    if (eval.within_bound) {
      rom_hits_.add();
      SteadyAnswer answer;
      answer.t_max_c = eval.t_max_c;
      answer.layer_max_c = std::move(eval.layer_max_c);
      answer.used_rom = true;
      answer.estimated_error_c = eval.estimated_error_c;
      answer.certified_error_c = rom->certified_error_c();
      answer.rom_dimension = rom->dimension();
      answer.elapsed_us = elapsed_us(start);
      rom_seconds.record(answer.elapsed_us * 1e-6);
      return answer;
    }
    rom_fallbacks_.add();
  }
  SteadyAnswer answer = full_steady(query, id, watts, flows);
  answer.elapsed_us = elapsed_us(start);
  full_seconds.record(answer.elapsed_us * 1e-6);
  return answer;
}

void ThermalService::warm(const SteadyQuery& query) {
  const Stack3D stack = make_simulation_stack(query.config);
  const std::vector<VolumetricFlow> flows =
      resolve_flows(query.config, query, stack);
  (void)rom_for(query.config, config_identity(query.config), flows);
}

SimulationConfig ThermalService::session_config(const WhatIfQuery& query) {
  SimulationConfig cfg;
  cfg.layer_pairs = query.layer_pairs;
  if (query.stack) cfg.stack = *query.stack;
  const ScenarioSpec& spec = ScenarioRegistry::global().at(query.scenario);
  apply_scenario(spec, cfg);
  const std::optional<BenchmarkSpec> bench = find_benchmark(query.benchmark);
  LIQUID3D_REQUIRE(bench.has_value(), "unknown benchmark: " + query.benchmark);
  cfg.benchmark = *bench;
  LIQUID3D_REQUIRE(query.duration_s > 0.0, "what-if duration must be > 0");
  cfg.duration = SimTime::from_s(query.duration_s);
  cfg.seed = query.seed;
  if (query.grid_rows > 0) cfg.thermal.grid_rows = query.grid_rows;
  if (query.grid_cols > 0) cfg.thermal.grid_cols = query.grid_cols;
  return cfg;
}

std::uint64_t ThermalService::topology_key(const SimulationConfig& cfg) {
  std::uint64_t h = stack_fingerprint(make_simulation_stack(cfg));
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(cfg.thermal.grid_rows);
  mix(cfg.thermal.grid_cols);
  mix(cfg.thermal_substeps);
  mix(static_cast<std::uint64_t>(cfg.sampling_interval.as_ms()));
  mix(static_cast<std::uint64_t>(cfg.cooling));
  return h;
}

std::future<SessionOutcome> ThermalService::submit_session(
    const WhatIfQuery& query, const std::vector<PhaseChange>& phases,
    double trace_period_s) {
  SessionJob job;
  try {
    job.cfg = session_config(query);
  } catch (...) {
    // Fail fast: malformed names surface through the future immediately,
    // without occupying the queue.
    std::promise<SessionOutcome> failed;
    failed.set_exception(std::current_exception());
    return failed.get_future();
  }
  job.cfg.phases = phases;
  job.group_key = topology_key(job.cfg);
  job.trace_period_s = trace_period_s;
  session_queries_.add();
  return queue_.submit(std::move(job));
}

std::future<SessionOutcome> ThermalService::what_if(const WhatIfQuery& query) {
  return submit_session(query, {}, 0.0);
}

std::future<SessionOutcome> ThermalService::replay(const ReplayQuery& query) {
  return submit_session(query.base, query.phases, query.trace_period_s);
}

void ThermalService::wait_idle() { queue_.wait_idle(); }

ServeStats ThermalService::stats() const {
  ServeStats s;
  s.steady_queries = steady_queries_.value();
  s.rom_hits = rom_hits_.value();
  s.rom_builds = roms_.builds();
  s.rom_fallbacks = rom_fallbacks_.value();
  s.rom_evictions = roms_.evictions();
  s.full_solves = full_solves_.value();
  s.model_evictions = models_.evictions();
  s.session_queries = session_queries_.value();
  s.batches = queue_.batches();
  s.batched_sessions = queue_.batched_sessions();
  s.max_batch = queue_.max_batch_seen();
  s.solo_fallbacks = queue_.solo_fallbacks();
  return s;
}

}  // namespace liquid3d
