// inputs.cpp — the seeded query mixes.  The program under test only ever
// sees what these functions generate from --seed.
#include <algorithm>

#include "bench.hpp"
#include "coolant/flow.hpp"
#include "coolant/microchannel.hpp"
#include "coolant/pump.hpp"
#include "sim/scenario.hpp"
#include "workload/benchmarks.hpp"

namespace pb {

using liquid3d::CoolingMode;

std::vector<SteadySystem> steady_systems() {
  const auto make = [](std::size_t pairs, CoolingMode mode) {
    SteadySystem sys;
    sys.cfg.layer_pairs = pairs;
    sys.cfg.cooling = mode;
    const liquid3d::Stack3D stack = liquid3d::make_simulation_stack(sys.cfg);
    for (std::size_t l = 0; l < stack.layer_count(); ++l) {
      sys.blocks_per_layer.push_back(stack.layer(l).floorplan.block_count());
    }
    sys.cavities = stack.cavity_count();
    return sys;
  };
  return {make(1, CoolingMode::kLiquidVar), make(2, CoolingMode::kLiquidVar),
          make(1, CoolingMode::kAir)};
}

std::vector<liquid3d::VolumetricFlow> top_flows(const SimulationConfig& cfg) {
  const liquid3d::Stack3D stack = liquid3d::make_simulation_stack(cfg);
  if (stack.cavity_count() == 0) return {};
  const liquid3d::MicrochannelModel channels(
      stack.cavity(), cfg.thermal.coolant, cfg.thermal.channel_params);
  const liquid3d::FlowDelivery delivery(liquid3d::PumpModel::laing_ddc(),
                                        cfg.delivery_mode, channels,
                                        stack.width(), stack.cavity_count());
  return std::vector<liquid3d::VolumetricFlow>(
      stack.cavity_count(), delivery.per_cavity(delivery.setting_count() - 1));
}

namespace {

/// The flow settings a liquid query picks from: pump top, pump setting 1,
/// and one skewed valve opening at the top setting.  Three ROM keys per
/// liquid system, one for air: seven keys, inside the default ROM cache (8)
/// and, with three systems, the default model pool (4).
void apply_flow_choice(SteadyQuery& q, const SteadySystem& sys,
                       std::size_t choice) {
  if (sys.cavities == 0) return;
  switch (choice % 3) {
    case 0:
      q.pump_setting = SteadyQuery::kTopSetting;
      break;
    case 1:
      q.pump_setting = 1;
      break;
    default:
      q.pump_setting = SteadyQuery::kTopSetting;
      q.valve_openings.assign(sys.cavities, 1.0);
      for (std::size_t c = 0; c < sys.cavities; c += 2) {
        q.valve_openings[c] = 0.6;
      }
      break;
  }
}

}  // namespace

SteadyMix make_steady_mix(std::uint64_t seed, std::size_t count) {
  const std::vector<SteadySystem> systems = steady_systems();
  // Per-cavity flow at the top setting: the centre of the random flows
  // the force_full class draws.
  std::vector<double> top_flow;
  for (const SteadySystem& sys : systems) {
    const auto flows = top_flows(sys.cfg);
    top_flow.push_back(flows.empty() ? 0.0 : flows.front().ml_per_min());
  }
  SteadyMix mix;
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (std::size_t choice = 0; choice < (systems[s].cavities > 0 ? 3u : 1u);
         ++choice) {
      SteadyQuery q;
      q.config = systems[s].cfg;
      apply_flow_choice(q, systems[s], choice);
      mix.warm.push_back(q);
    }
  }
  Rng rng(seed ^ 0x5eadbeef0001ULL);
  mix.queries.reserve(count);
  // The system and flow choice follow a fixed pattern (every seed offers
  // the same share of each key and of 2- and 4-layer full solves); the seed
  // draws the values: power maps, references and force_full flows.
  for (std::size_t k = 0; k < count; ++k) {
    const bool full = k % 20 == 19;
    // force_full needs a flow to change, so it alternates the liquid stacks.
    const std::size_t s = full ? (k / 20) % 2 : k % systems.size();
    const SteadySystem& sys = systems[s];
    SteadyQuery q;
    q.config = sys.cfg;
    q.block_watts.resize(sys.blocks_per_layer.size());
    for (std::size_t l = 0; l < sys.blocks_per_layer.size(); ++l) {
      q.block_watts[l].resize(sys.blocks_per_layer[l]);
      for (double& w : q.block_watts[l]) w = rng.uniform(0.2, 3.5);
    }
    q.reference_c = sys.cavities > 0 ? rng.uniform(20.0, 40.0)
                                     : rng.uniform(25.0, 45.0);
    if (full) {
      q.force_full = true;
      q.flows_ml_per_min.resize(sys.cavities);
      for (double& f : q.flows_ml_per_min) {
        f = top_flow[s] * rng.uniform(0.5, 1.0);
      }
    } else {
      apply_flow_choice(q, sys, k / systems.size());
    }
    mix.queries.push_back(std::move(q));
  }
  return mix;
}

std::vector<SessionRequest> make_session_mix(std::uint64_t seed,
                                             std::size_t count) {
  const std::vector<liquid3d::ScenarioSpec> scenarios =
      liquid3d::paper_scenario_grid();
  const std::vector<liquid3d::BenchmarkSpec>& benches =
      liquid3d::table2_benchmarks();
  Rng rng(seed ^ 0x5e55100002ULL);
  std::vector<SessionRequest> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    SessionRequest r;
    r.replay = k % 4 == 3;  // what-if : replay = 3 : 1
    WhatIfQuery& q = r.query.base;
    q.scenario = scenarios[rng.below(scenarios.size())].name;
    q.benchmark = benches[rng.below(benches.size())].name;
    q.duration_s = 1.0;
    q.seed = 1 + rng.below(1000000);
    if (r.replay) {
      r.query.phases = {{liquid3d::SimTime::from_ms(0), 0.6},
                        {liquid3d::SimTime::from_ms(300), 1.2},
                        {liquid3d::SimTime::from_ms(700), 0.9}};
      r.query.trace_period_s = 0.1;
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace pb
