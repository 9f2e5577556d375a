// characterization_cache.hpp — one shared home for the expensive offline
// characterization artifacts: the flow LUT (utilization x pump-setting
// steady-state map behind the variable-flow controller) and the TALB thermal
// weight table.
//
// Artifacts are keyed on the ConfigIdentity of the system that determines
// them (sim/config_identity.hpp): stack geometry, cooling type, delivery
// mode, thermal and power model parameters, plus, for the LUT, its target
// temperature and the characterization worker count (worker count perturbs
// warm-start trajectories at the millikelvin level, so it is part of the
// identity) — never on the policy, workload, seed, or duration of the run
// that happens to trigger the build.  Configs that resolve to the same stack
// spec (a layer_pairs preset and the equal explicit spec) share entries.
//
// Each table is an unbounded MemoCache (common/memo_cache.hpp): a
// characterization build is minutes of steady solves, so it runs outside
// the cache lock; same-key requesters share one build (pointer-equal
// artifacts), other keys never wait on it, and a failed build publishes
// nothing, so the next requester retries.
#pragma once

#include <memory>
#include <string>

#include "common/memo_cache.hpp"
#include "control/flow_lut.hpp"
#include "control/talb_weights.hpp"
#include "sim/session.hpp"

namespace liquid3d {

class CharacterizationCache {
 public:
  /// Flow LUT for the configuration's system (built on miss; liquid
  /// configurations only).
  [[nodiscard]] std::shared_ptr<const FlowLut> flow_lut(
      const SimulationConfig& cfg);

  /// TALB weight table for the configuration's system (built on miss; the
  /// cooling type selects the liquid or air characterization harness).
  [[nodiscard]] std::shared_ptr<const TalbWeightTable> talb_weights(
      const SimulationConfig& cfg);

  /// Process-wide instance used by sessions whose config carries no
  /// pre-built artifacts.  Deterministic: a cached artifact is bit-identical
  /// to a freshly built one for the same key.
  [[nodiscard]] static CharacterizationCache& global();

  /// Entries across both tables, including builds still in flight.
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  template <typename T>
  using Table = MemoCache<std::string, const T>;

  Table<FlowLut> luts_{Table<FlowLut>::kUnbounded};
  Table<TalbWeightTable> weights_{Table<TalbWeightTable>::kUnbounded};
};

}  // namespace liquid3d
