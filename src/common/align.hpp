// Cache-line helpers.
//
// Concurrent counters, per-thread slots and lock words in this project are
// padded to a cache line (actually two lines, to defeat adjacent-line
// prefetchers on modern x86) so that independent writers never share a line.
// `prefetch_ro` is the read prefetch the tree descents and leaf walks use.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace lfst {

/// Size of one destructive-interference unit.  Fixed at the conventional 64
/// bytes rather than `std::hardware_destructive_interference_size`: the
/// constant participates in type layouts (padding), so it must not vary with
/// compiler version or -mtune flags.
inline constexpr std::size_t kCacheLine = 64;

/// Padding granularity used for hot shared words: two cache lines, so that
/// the spatial prefetcher (which pulls line pairs) does not re-introduce
/// false sharing between neighbours.
inline constexpr std::size_t kFalseSharingRange = 2 * kCacheLine;

/// A value of type `T` padded out to `kFalseSharingRange` bytes.
///
/// Typical use: arrays of per-thread counters or per-thread epoch slots where
/// each element is written by exactly one thread.
template <typename T>
struct alignas(kFalseSharingRange) padded {
  static_assert(sizeof(T) <= kFalseSharingRange,
                "padded<T> only makes sense for small T");

  T value{};

  padded() = default;
  template <typename... Args>
  explicit padded(Args&&... args) : value(std::forward<Args>(args)...) {}

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
};

/// Round `n` up to a multiple of `align` (which must be a power of two).
constexpr std::size_t align_up(std::size_t n, std::size_t align) noexcept {
  return (n + align - 1) & ~(align - 1);
}

/// Read prefetch into all cache levels; compiles to nothing where
/// __builtin_prefetch is unavailable.
inline void prefetch_ro(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

static_assert(align_up(1, 8) == 8);
static_assert(align_up(8, 8) == 8);
static_assert(align_up(9, 8) == 16);
static_assert(align_up(0, 64) == 0);

}  // namespace lfst
