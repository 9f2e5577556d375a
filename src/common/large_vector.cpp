#include "common/large_vector.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace liquid3d::detail {

namespace {

/// Released mappings kept for reuse, oldest first.  The byte bound is what
/// the stash may add to RSS: a few bands of the largest default grid.
class Stash {
 public:
  static constexpr std::size_t kMaxBytes = std::size_t{16} << 20;
  static constexpr std::size_t kMaxMaps = 16;

  Stash() { maps_.reserve(kMaxMaps + 1); }  // give() never reallocates

  void* take(std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(maps_.rbegin(), maps_.rend(),
                                 [&](const auto& m) { return m.second == bytes; });
    if (it == maps_.rend()) return nullptr;
    void* const p = it->first;
    maps_.erase(std::next(it).base());
    held_ -= bytes;
    return p;
  }

  void give(void* p, std::size_t bytes) noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    maps_.emplace_back(p, bytes);
    held_ += bytes;
    while (held_ > kMaxBytes || maps_.size() > kMaxMaps) {
      munmap(maps_.front().first, maps_.front().second);
      held_ -= maps_.front().second;
      maps_.erase(maps_.begin());
    }
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<void*, std::size_t>> maps_;
  std::size_t held_ = 0;
};

/// Never destroyed: bands owned by static objects are released after
/// every function-local static of this TU would have been.
Stash& stash() {
  static Stash* const s = new Stash;
  return *s;
}

}  // namespace

void* map_large(std::size_t bytes) {
  if (void* p = stash().take(bytes)) return p;
  void* const p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_large(void* p, std::size_t bytes) noexcept { stash().give(p, bytes); }

}  // namespace liquid3d::detail
