// Build-once memoization (common/memo_cache.hpp): weak sharing of live
// objects, one build per key under contention, retry after a failed build,
// InternPin, the strongly held LRU set and its counters — and the weak-only
// sharing of conduction networks and factorizations in ThermalModel3D.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/memo_cache.hpp"
#include "geom/stack.hpp"
#include "thermal/model3d.hpp"

namespace liquid3d {
namespace {

std::shared_ptr<const int> make_int(int v) { return std::make_shared<const int>(v); }

TEST(MemoCache, SharesLiveObjectsAndRebuildsReleasedOnes) {
  MemoCache<int, const int> cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return make_int(42);
  };
  std::shared_ptr<const int> a = cache.get(1, build);
  std::shared_ptr<const int> b = cache.get(1, build);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(builds, 1);
  (void)cache.get(2, build);  // another key builds its own
  EXPECT_EQ(builds, 2);

  a.reset();
  b.reset();  // capacity 0 held key 1 only weakly: it is gone now
  (void)cache.get(1, build);
  EXPECT_EQ(builds, 3);
}

TEST(MemoCache, ConcurrentMissesBuildOnce) {
  MemoCache<int, const int> cache;
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t] = cache.get(7, [&] {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return make_int(7);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& p : got) EXPECT_EQ(p.get(), got.front().get());
}

TEST(MemoCache, FailedBuildPropagatesAndTheNextCallerRetries) {
  MemoCache<int, const int> cache(MemoCache<int, const int>::kUnbounded);
  EXPECT_THROW((void)cache.get(3, []() -> std::shared_ptr<const int> {
                 throw std::runtime_error("build failed");
               }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.builds(), 0u);
  const auto p = cache.get(3, [] { return make_int(3); });
  EXPECT_EQ(*p, 3);
  EXPECT_EQ(cache.builds(), 1u);
}

TEST(MemoCache, PinKeepsObjectsAliveUntilDestroyed) {
  MemoCache<int, const int> cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return make_int(5);
  };
  {
    const InternPin pin;
    (void)cache.get(5, build);  // returned pointer dropped at once
    (void)cache.get(5, build);  // still alive through the pin
    EXPECT_EQ(builds, 1);
  }
  (void)cache.get(5, build);  // pin gone: rebuilt
  EXPECT_EQ(builds, 2);
}

TEST(MemoCache, CapacityKeepsTheMostRecentEntriesAlive) {
  MemoCache<int, const int> cache(2);
  std::vector<int> builds(4, 0);
  const auto get = [&](int key) {
    (void)cache.get(key, [&] {
      ++builds[key];
      return make_int(key);
    });
  };
  get(1);
  get(2);
  get(1);  // 1 is now more recent than 2
  get(3);  // pushes out 2, the least recently used
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);

  get(1);
  get(3);
  EXPECT_EQ(builds[1], 1);  // held although no caller holds them
  EXPECT_EQ(builds[3], 1);
  get(2);  // released when evicted: rebuilt
  EXPECT_EQ(builds[2], 2);
}

TEST(MemoCache, EvictedObjectStillHeldStaysFindable) {
  MemoCache<int, const int> cache(1);
  const std::shared_ptr<const int> kept = cache.get(1, [] { return make_int(1); });
  (void)cache.get(2, [] { return make_int(2); });  // evicts 1 from the strong set
  EXPECT_EQ(cache.evictions(), 1u);
  int builds = 0;
  const auto again = cache.get(1, [&] {
    ++builds;
    return make_int(1);
  });
  EXPECT_EQ(builds, 0);
  EXPECT_EQ(again.get(), kept.get());
}

TEST(MemoCache, InFlightBuildIsNeverEvicted) {
  MemoCache<int, const int> cache(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> started;
  std::atomic<int> slow_builds{0};
  const auto slow = [&] {
    ++slow_builds;
    started.set_value();
    released.wait();
    return make_int(0);
  };
  std::shared_ptr<const int> first;
  std::thread builder([&] { first = cache.get(0, slow); });
  started.get_future().wait();

  // Churn the one strong slot while key 0 is still building.
  for (int key = 1; key <= 3; ++key) {
    (void)cache.get(key, [key] { return make_int(key); });
  }
  EXPECT_EQ(cache.evictions(), 2u);

  std::shared_ptr<const int> second;
  std::thread waiter([&] { second = cache.get(0, slow); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();
  builder.join();
  waiter.join();
  EXPECT_EQ(slow_builds.load(), 1);  // the waiter joined the build
  EXPECT_EQ(first.get(), second.get());
}

TEST(MemoCache, CountersTrackHitsBuildsAndEvictions) {
  MemoCache<int, const int> cache(1);
  const auto build = [] { return make_int(0); };
  (void)cache.get(1, build);  // build
  (void)cache.get(1, build);  // hit (held strongly)
  (void)cache.get(2, build);  // build, evicts 1
  (void)cache.get(2, build);  // hit
  (void)cache.get(1, build);  // 1 died with its eviction: build, evicts 2
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_EQ(cache.evictions(), 2u);

  cache.clear();  // drops the strong set; nothing else holds the objects
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MemoCache, ModelsOfOneStackShareOneNetwork) {
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
  // b adopts the transient fluid-eliminated factor a built; stepping
  // through it is stepping through its own.
  EXPECT_EQ(a.max_temperature(), b.max_temperature());
  ASSERT_NE(a.fluid_eliminated_factor(), nullptr);
  EXPECT_EQ(a.fluid_eliminated_factor(), b.fluid_eliminated_factor());
}

}  // namespace
}  // namespace liquid3d
