#include "sim/characterization_cache.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "control/characterize.hpp"
#include "coolant/pump.hpp"
#include "sim/config_identity.hpp"

namespace liquid3d {

namespace {

std::shared_ptr<const FlowLut> build_flow_lut(const SimulationConfig& cfg) {
  const Stack3D stack = make_simulation_stack(cfg);
  // One independent harness (and thermal model) per characterization worker.
  auto factory = [&cfg, &stack]() {
    return std::make_unique<CharacterizationHarness>(
        stack, cfg.thermal, cfg.power, PumpModel::laing_ddc(), cfg.delivery_mode);
  };
  return std::make_shared<const FlowLut>(
      characterize_flow_lut(factory, cfg.metrics.target_c - cfg.manager.lut_margin_c,
                            25, cfg.characterization_threads));
}

std::shared_ptr<const TalbWeightTable> build_talb_weights(
    const SimulationConfig& cfg) {
  const Stack3D stack = make_simulation_stack(cfg);
  const bool liquid = cfg.cooling != CoolingMode::kAir;
  std::optional<CharacterizationHarness> harness;
  if (liquid) {
    harness.emplace(stack, cfg.thermal, cfg.power, PumpModel::laing_ddc(),
                    cfg.delivery_mode);
  } else {
    harness.emplace(stack, cfg.thermal, cfg.power);
  }
  const std::size_t setting = liquid ? harness->setting_count() / 2 : 0;
  const double t_ref =
      liquid ? cfg.thermal.inlet_temperature : cfg.thermal.ambient_temperature;

  const std::vector<double> levels = {0.3, 0.6, 0.9};
  std::vector<double> tmax_at_level;
  std::vector<std::vector<double>> weights_at_level;
  for (double u : levels) {
    const std::vector<double> temps = harness->steady_core_temps(u, setting);
    tmax_at_level.push_back(*std::max_element(temps.begin(), temps.end()));
    weights_at_level.push_back(TalbWeightTable::weights_from_temps(temps, t_ref));
  }

  std::vector<TalbWeightTable::Band> bands;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const double upper = (i + 1 < levels.size())
                             ? 0.5 * (tmax_at_level[i] + tmax_at_level[i + 1])
                             : std::numeric_limits<double>::infinity();
    bands.push_back({upper, weights_at_level[i]});
  }
  return std::make_shared<const TalbWeightTable>(std::move(bands));
}

}  // namespace

std::shared_ptr<const FlowLut> CharacterizationCache::flow_lut(
    const SimulationConfig& cfg) {
  // Validate before the lookup, so a rejected request publishes nothing.
  LIQUID3D_REQUIRE(cfg.cooling != CoolingMode::kAir,
                   "flow LUT only applies to liquid cooling");
  const ConfigIdentity id = config_identity(cfg);
  const double target = cfg.metrics.target_c - cfg.manager.lut_margin_c;
  const std::string key = id.system + id.refs + id.power + format_double(target) +
                          ',' + std::to_string(cfg.characterization_threads);
  return luts_.get(key, [&cfg] { return build_flow_lut(cfg); });
}

std::shared_ptr<const TalbWeightTable> CharacterizationCache::talb_weights(
    const SimulationConfig& cfg) {
  const ConfigIdentity id = config_identity(cfg);
  return weights_.get(id.system + id.refs + id.power,
                      [&cfg] { return build_talb_weights(cfg); });
}

CharacterizationCache& CharacterizationCache::global() {
  static CharacterizationCache cache;
  return cache;
}

std::size_t CharacterizationCache::size() const {
  return luts_.size() + weights_.size();
}

void CharacterizationCache::clear() {
  luts_.clear();
  weights_.clear();
}

}  // namespace liquid3d
