// weak_intern.hpp — process-wide, build-once sharing of immutable objects
// that are large to hold or slow to build.
//
// get(key, build) returns the live object published under `key`, or runs
// build() and publishes its result.  The registry holds objects weakly: an
// object lives exactly as long as some caller holds the returned pointer,
// so the registry itself never extends a lifetime or caches.  Two
// threads asking for the same absent key build it once — the second waits
// for the first — while builds of different keys run concurrently.
//
// Published objects are shared across threads and must never be mutated.
//
// InternPin extends lifetimes on purpose, for a bounded stretch: while a
// pin lives, every object any WeakIntern returns on the pin's thread is
// also held by the pin.  A run of
// warm starts that each need the same factor for a moment thus builds it
// once instead of once per warm start.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace liquid3d {

class InternPin {
 public:
  InternPin() : previous_(active_) { active_ = this; }
  InternPin(const InternPin&) = delete;
  InternPin& operator=(const InternPin&) = delete;
  ~InternPin() { active_ = previous_; }

  /// Called by WeakIntern::get for every object it returns.
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
class WeakIntern {
 public:
  template <typename Build>
  std::shared_ptr<T> get(const Key& key, Build&& build) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      Slot& slot = slots_[key];
      if (std::shared_ptr<T> live = slot.object.lock()) {
        InternPin::hold(live);
        return live;
      }
      if (!slot.building) {
        slot.building = true;
        break;
      }
      built_.wait(lock);
    }
    lock.unlock();
    std::shared_ptr<T> object;
    try {
      object = std::forward<Build>(build)();
    } catch (...) {
      lock.lock();
      slots_[key].building = false;
      built_.notify_all();
      throw;
    }
    lock.lock();
    Slot& slot = slots_[key];
    slot.object = object;
    slot.building = false;
    std::erase_if(slots_, [](const auto& entry) {
      return !entry.second.building && entry.second.object.expired();
    });
    built_.notify_all();
    InternPin::hold(object);
    return object;
  }

 private:
  struct Slot {
    std::weak_ptr<T> object;
    bool building = false;
  };

  std::mutex mutex_;
  std::condition_variable built_;
  std::map<Key, Slot> slots_;
};

}  // namespace liquid3d
