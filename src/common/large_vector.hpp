// large_vector.hpp — std::vector storage for multi-megabyte numeric arrays
// (banded factorizations and LUs) that lives in its own memory mappings
// rather than in malloc's arenas.
//
// Why not plain malloc: glibc serves such blocks with mmap only until the
// first one is freed, then raises its mmap threshold to that size, and
// every later band of that size lands in a (per-thread) arena instead.
// Arenas keep freed memory, so a process that builds and drops a few
// bands per chunk on several threads grows its RSS with run length — the
// 4-layer sweep went from ~40 MB to ~125 MB that way.  Mapping the bands
// ourselves keeps them out of malloc's bookkeeping.  Released mappings go
// to a small process-wide stash (bounded in bytes, oldest unmapped first)
// that the next allocation of the same size reuses: a fresh mapping costs
// a page fault per page, several times the cost of filling the band.
// Arrays below kMappedBytes take the ordinary allocator.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace liquid3d {

namespace detail {
/// A fresh or reused mapping of `bytes`, contents unspecified (throws
/// std::bad_alloc).
void* map_large(std::size_t bytes);
/// Return a mapping from map_large to the stash (or to the OS).
void unmap_large(void* p, std::size_t bytes) noexcept;
}  // namespace detail

template <typename T>
class LargeAllocator {
 public:
  using value_type = T;
  static constexpr std::size_t kMappedBytes = std::size_t{128} << 10;

  LargeAllocator() = default;
  template <typename U>
  LargeAllocator(const LargeAllocator<U>&) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMappedBytes) return std::allocator<T>{}.allocate(n);
    return static_cast<T*>(detail::map_large(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMappedBytes) {
      std::allocator<T>{}.deallocate(p, n);
    } else {
      detail::unmap_large(p, bytes);
    }
  }

  friend bool operator==(const LargeAllocator&, const LargeAllocator&) {
    return true;
  }
};

template <typename T>
using LargeVector = std::vector<T, LargeAllocator<T>>;

}  // namespace liquid3d
