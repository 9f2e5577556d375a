// CharacterizationCache (sim/characterization_cache.hpp).  The contract
// under test: concurrent same-key requesters share exactly one build
// (pointer-equal artifacts), different keys build independently, configs
// that resolve to one stack spec share one entry, and a rejected request
// leaves the cache clean.  Runs under TSan in CI.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "geom/stack_spec.hpp"
#include "sim/characterization_cache.hpp"
#include "sim/config_identity.hpp"

namespace liquid3d {
namespace {

SimulationConfig small_config(CoolingMode cooling, std::size_t rows = 8,
                              std::size_t cols = 9) {
  SimulationConfig cfg;
  cfg.cooling = cooling;
  cfg.thermal.grid_rows = rows;
  cfg.thermal.grid_cols = cols;
  return cfg;
}

TEST(CharacterizationCache, SameKeyConcurrentGetsShareOneBuild) {
  CharacterizationCache cache;
  const SimulationConfig cfg = small_config(CoolingMode::kAir);

  constexpr std::size_t kThreads = 4;
  std::vector<std::shared_ptr<const TalbWeightTable>> results(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&cache, &cfg, &results, i] { results[i] = cache.talb_weights(cfg); });
  }
  for (std::thread& t : threads) t.join();

  // Pointer equality proves the build ran once and everyone shared it.
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i].get(), results[0].get());
  }
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CharacterizationCache, DistinctKeysBuildIndependently) {
  CharacterizationCache cache;
  const SimulationConfig a = small_config(CoolingMode::kAir, 8, 9);
  const SimulationConfig b = small_config(CoolingMode::kAir, 9, 8);
  ASSERT_NE(config_identity(a).system, config_identity(b).system);

  std::shared_ptr<const TalbWeightTable> wa, wb;
  std::thread ta([&] { wa = cache.talb_weights(a); });
  std::thread tb([&] { wb = cache.talb_weights(b); });
  ta.join();
  tb.join();

  EXPECT_NE(wa.get(), wb.get());
  EXPECT_EQ(cache.size(), 2u);

  // Repeat lookups hit the existing entries.
  EXPECT_EQ(cache.talb_weights(a).get(), wa.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CharacterizationCache, LayerPairsAndEqualExplicitSpecShareOneEntry) {
  CharacterizationCache cache;
  SimulationConfig preset = small_config(CoolingMode::kLiquidVar);
  preset.layer_pairs = 1;
  SimulationConfig explicit_spec = preset;
  explicit_spec.stack = niagara_stack_spec(1, CoolingType::kLiquid);

  const auto from_preset = cache.talb_weights(preset);
  EXPECT_EQ(cache.talb_weights(explicit_spec).get(), from_preset.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CharacterizationCache, RejectedRequestLeavesCacheClean) {
  CharacterizationCache cache;
  // A flow LUT for an air configuration is invalid; the cache must reject
  // it before publishing any entry.
  EXPECT_THROW((void)cache.flow_lut(small_config(CoolingMode::kAir)),
               ConfigError);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CharacterizationCache, ClearEmptiesEveryShard) {
  CharacterizationCache cache;
  (void)cache.talb_weights(small_config(CoolingMode::kAir, 8, 9));
  (void)cache.talb_weights(small_config(CoolingMode::kAir, 9, 8));
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace liquid3d
