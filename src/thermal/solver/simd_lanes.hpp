// simd_lanes.hpp — the lane vocabulary the banded solve kernels share
// (banded_spd_solve.cpp, banded_lu_solve.cpp).  Include it only from TUs
// built with -ffp-contract=off: the kernels' bit-identity between single-
// and multi-RHS solves rests on every lane performing plain IEEE
// operations in the same order.
//
// The widest vector type matches the target ISA; narrower ones cover
// strides it does not divide (a stride of 4 or 12 on AVX-512).  Types
// wider than the ISA's registers are never declared: on SSE2 they run
// slower than pairs and trip -Wpsabi.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace liquid3d::simd {

typedef double V2 __attribute__((vector_size(16)));
#if defined(__AVX__)
typedef double V4 __attribute__((vector_size(32)));
#endif
#if defined(__AVX512F__)
typedef double V8 __attribute__((vector_size(64)));
#endif

template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

// Unaligned lane access: interleaved rows start wherever the caller's
// buffer puts them.  Always inlined so no vector crosses a call boundary.
// V = double is the one-lane case the single-RHS instantiations use.
template <typename V>
[[gnu::always_inline]] inline V load(const double* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof(V));
  return v;
}

template <typename V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  __builtin_memcpy(p, &v, sizeof(V));
}

/// The interleave stride a kernel runs `nrhs` systems at: 1 and 2 stay,
/// wider batches round up to whole vectors of the narrowest type the
/// kernel prefers (4 lanes once AVX has them, pairs on SSE2).
inline std::size_t lane_stride(std::size_t nrhs) {
#if defined(__AVX__)
  constexpr std::size_t kBlock = kLanes<V4>;
#else
  constexpr std::size_t kBlock = kLanes<V2>;
#endif
  return nrhs <= 2 ? nrhs : (nrhs + kBlock - 1) / kBlock * kBlock;
}

/// Run `kernel.template operator()<V>()` with the widest vector type that
/// divides `stride` (an even lane stride).
template <typename Kernel>
void dispatch_lanes(std::size_t stride, Kernel&& kernel) {
#if defined(__AVX512F__)
  if (stride % kLanes<V8> == 0) return kernel.template operator()<V8>();
#endif
#if defined(__AVX__)
  if (stride % kLanes<V4> == 0) return kernel.template operator()<V4>();
#endif
  (void)stride;
  kernel.template operator()<V2>();
}

/// Run `kernel(block, stride)` over the `nrhs` systems interleaved at `x`
/// (n rows): in place when nrhs is already a lane stride, else through a
/// zeroed block padded to lane_stride(nrhs) (the cold path of tests and
/// benches; hot callers pack at the lane stride themselves).
template <typename Kernel>
void at_lane_stride(double* x, std::size_t n, std::size_t nrhs, Kernel&& kernel) {
  const std::size_t stride = lane_stride(nrhs);
  if (stride == nrhs) {
    kernel(x, stride);
    return;
  }
  std::vector<double> padded(n * stride, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(x + i * nrhs, nrhs, padded.data() + i * stride);
  }
  kernel(padded.data(), stride);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy_n(padded.data() + i * stride, nrhs, x + i * nrhs);
  }
}

}  // namespace liquid3d::simd
