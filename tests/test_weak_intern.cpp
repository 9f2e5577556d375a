// Build-once, weakly held sharing (common/weak_intern.hpp) and its use for
// conduction networks and factorizations in ThermalModel3D.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/weak_intern.hpp"
#include "geom/stack.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {
namespace {

TEST(WeakIntern, SharesLiveObjectsAndRebuildsReleasedOnes) {
  WeakIntern<int, const int> intern;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_shared<const int>(42);
  };
  std::shared_ptr<const int> a = intern.get(1, build);
  std::shared_ptr<const int> b = intern.get(1, build);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(builds, 1);
  (void)intern.get(2, build);  // another key builds its own
  EXPECT_EQ(builds, 2);

  a.reset();
  b.reset();  // the registry held key 1 only weakly: it is gone now
  (void)intern.get(1, build);
  EXPECT_EQ(builds, 3);
}

TEST(WeakIntern, ConcurrentMissesBuildOnce) {
  WeakIntern<int, const int> intern;
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t] = intern.get(7, [&] {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::make_shared<const int>(7);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& p : got) EXPECT_EQ(p.get(), got.front().get());
}

TEST(WeakIntern, FailedBuildPropagatesAndTheNextCallerRetries) {
  WeakIntern<int, const int> intern;
  EXPECT_THROW((void)intern.get(3, []() -> std::shared_ptr<const int> {
                 throw std::runtime_error("build failed");
               }),
               std::runtime_error);
  const auto p = intern.get(3, [] { return std::make_shared<const int>(3); });
  EXPECT_EQ(*p, 3);
}

TEST(WeakIntern, PinKeepsObjectsAliveUntilDestroyed) {
  WeakIntern<int, const int> intern;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::make_shared<const int>(5);
  };
  {
    const InternPin pin;
    (void)intern.get(5, build);  // returned pointer dropped at once
    (void)intern.get(5, build);  // still alive through the pin
    EXPECT_EQ(builds, 1);
  }
  (void)intern.get(5, build);  // pin gone: rebuilt
  EXPECT_EQ(builds, 2);
}

TEST(WeakIntern, ModelsOfOneStackShareOneNetwork) {
  ThermalModelParams p;
  p.grid_rows = 6;
  p.grid_cols = 7;
  ThermalModel3D a(make_niagara_stack(1, CoolingType::kLiquid), p);
  ThermalModel3D b(make_niagara_stack(1, CoolingType::kLiquid), p);
  EXPECT_EQ(&a.block_map(0), &b.block_map(0));  // one shared network
  p.grid_cols = 8;
  ThermalModel3D c(make_niagara_stack(1, CoolingType::kLiquid), p);
  EXPECT_NE(&a.block_map(0), &c.block_map(0));

  for (ThermalModel3D* m : {&a, &b}) {
    m->set_cavity_flow(VolumetricFlow::from_ml_per_min(20.0));
    m->initialize(45.0);
    m->step(0.05);
  }
  // b adopts the transient factor a built; stepping through it is
  // stepping through its own.
  EXPECT_EQ(a.max_temperature(), b.max_temperature());
  EXPECT_EQ(a.factorization_cache().size(), 1u);
  EXPECT_EQ(b.factorization_cache().size(), 1u);
}

}  // namespace
}  // namespace liquid3d
