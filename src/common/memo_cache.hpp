// memo_cache.hpp — the one build-once cache for objects that are slow to
// build or large to hold: characterization artifacts, the thermal
// service's ROMs and pooled models, and the conduction networks and
// factorizations ThermalModel3D shares across models.
//
// get(key, build) returns the object published under `key`, or runs
// build() and publishes its result.  Guarantees:
//
//   * concurrent callers of one key run one build, outside the lock; the
//     others wait on it and receive the same pointer (or its exception),
//     while builds of different keys run concurrently;
//   * a failed build publishes nothing, so the next caller retries;
//   * every live object stays findable: the cache holds each one weakly,
//     so an object some caller still holds is never built twice;
//   * the `capacity` most recently used settled entries are also held
//     strongly, so they outlive their callers (0: weak only; kUnbounded:
//     every entry).  In-flight builds hold nothing yet and are never
//     evicted.
//
// Per-instance counters: hits (calls that ran no build, including those
// that waited on another caller's build), builds (builds that published),
// evictions (entries dropped from the strongly held set).
//
// Published objects are shared across threads: immutable, or guarded by a
// lock of their own.
//
// InternPin extends lifetimes on purpose, for a bounded stretch: while a
// pin lives, every object any MemoCache returns on the pin's thread is
// also held by the pin.  A run of warm starts that each need the same
// factor for a moment thus builds it once instead of once per warm start.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace liquid3d {

class InternPin {
 public:
  InternPin() : previous_(active_) { active_ = this; }
  InternPin(const InternPin&) = delete;
  InternPin& operator=(const InternPin&) = delete;
  ~InternPin() { active_ = previous_; }

  /// Called by MemoCache::get for every object it returns.
  static void hold(const std::shared_ptr<const void>& object) {
    if (active_ == nullptr) return;
    auto& held = active_->held_;
    if (std::find(held.begin(), held.end(), object) == held.end()) {
      held.push_back(object);
    }
  }

 private:
  static inline thread_local InternPin* active_ = nullptr;
  InternPin* previous_;
  std::vector<std::shared_ptr<const void>> held_;
};

template <typename Key, typename T>
class MemoCache {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  explicit MemoCache(std::size_t capacity = 0) : capacity_(capacity) {}
  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  template <typename Build>
  std::shared_ptr<T> get(const Key& key, Build&& build) {
    std::optional<std::promise<std::shared_ptr<T>>> promise;  // builder only
    std::shared_future<std::shared_ptr<T>> pending;
    std::shared_ptr<T> evicted;  // released after the lock
    {
      std::lock_guard<std::mutex> lock(mu_);
      Slot& slot = slots_[key];
      if (std::shared_ptr<T> live = slot.object.lock()) {
        evicted = hold(slot, live);
        hits_.add();
        InternPin::hold(live);
        return live;
      }
      if (slot.pending.valid()) {
        pending = slot.pending;
        hits_.add();
      } else {
        slot.pending = promise.emplace().get_future().share();
      }
    }
    if (pending.valid()) {
      std::shared_ptr<T> object = pending.get();
      InternPin::hold(object);
      return object;
    }
    std::shared_ptr<T> object;
    try {
      object = std::forward<Build>(build)();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        slots_.erase(key);
      }
      promise->set_exception(std::current_exception());
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      Slot& slot = slots_[key];
      slot.object = object;
      slot.pending = {};
      evicted = hold(slot, object);
      erase_dead();
      builds_.add();
    }
    promise->set_value(object);
    InternPin::hold(object);
    return object;
  }

  /// Entries that are live or being built.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<std::size_t>(std::count_if(
        slots_.begin(), slots_.end(),
        [](const auto& entry) { return !entry.second.dead(); }));
  }

  /// Drop the cache's strong references; objects callers still hold stay
  /// findable.
  void clear() {
    std::vector<std::shared_ptr<T>> released;  // destroyed after the lock
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, slot] : slots_) {
      if (slot.strong) released.push_back(std::move(slot.strong));
    }
    held_ = 0;
    erase_dead();
  }

  [[nodiscard]] std::uint64_t hits() const { return hits_.value(); }
  [[nodiscard]] std::uint64_t builds() const { return builds_.value(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_.value(); }

 private:
  struct Slot {
    std::weak_ptr<T> object;
    std::shared_future<std::shared_ptr<T>> pending;  ///< valid while building
    std::shared_ptr<T> strong;  ///< set while among the recently used
    std::uint64_t last_used = 0;

    [[nodiscard]] bool dead() const { return !pending.valid() && object.expired(); }
  };

  void erase_dead() {
    std::erase_if(slots_, [](const auto& entry) { return entry.second.dead(); });
  }

  /// Mark `slot` most recently used and hold it strongly; returns the
  /// least recently used entry it pushed out of the strong set, if any.
  std::shared_ptr<T> hold(Slot& slot, const std::shared_ptr<T>& object) {
    if (capacity_ == 0) return nullptr;
    slot.last_used = ++clock_;
    if (slot.strong) return nullptr;
    slot.strong = object;
    if (++held_ <= capacity_) return nullptr;
    Slot* victim = nullptr;
    for (auto& [key, other] : slots_) {
      if (!other.strong) continue;
      if (victim == nullptr || other.last_used < victim->last_used) victim = &other;
    }
    --held_;
    evictions_.add();
    return std::move(victim->strong);
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::map<Key, Slot> slots_;
  std::uint64_t clock_ = 0;
  std::size_t held_ = 0;
  obs::Counter hits_;
  obs::Counter builds_;
  obs::Counter evictions_;
};

}  // namespace liquid3d
