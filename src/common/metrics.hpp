// Exact per-instance counters and the shared time source.
//
// The paper's lock-free progress argument lives in internal events -- CAS
// retry storms, empty-node bypasses, the four Fig. 8 compaction transforms.
// Each structure counts the events it cares about in its own
// `instance_counters` array: relaxed increments, always on, exact per
// instance once the writers quiesce.  Tests assert exact per-tree counts,
// and bench sidecars copy them into their closing counters line
// (bench/bench_common.hpp).  Time-resolved views of the same events are the
// span ring's job (common/trace.hpp); latency distributions are the
// telemetry plane's (common/telemetry.hpp).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>

namespace lfst::metrics {

/// Cheap monotonic-enough timestamp for spans and latency deltas: the
/// time-stamp counter on x86 (one instruction, no serialization -- span
/// ordering across cores is best-effort by design), steady_clock elsewhere.
inline std::uint64_t tsc_now() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Measured tsc ticks per microsecond: the tsc advance over the wall-clock
/// time elapsed since a process-wide anchor taken on first use.  Waits
/// until the anchor is at least 500 us old so the quotient is stable;
/// call it from export and slow paths only.  On non-x86 builds tsc_now()
/// is steady_clock nanoseconds and this converges to 1000.
inline double ticks_per_us() noexcept {
  using clock = std::chrono::steady_clock;
  static const std::pair<clock::time_point, std::uint64_t> anchor{
      clock::now(), tsc_now()};
  for (;;) {
    const double us = std::chrono::duration<double, std::micro>(
                          clock::now() - anchor.first)
                          .count();
    if (us >= 500.0) {
      return static_cast<double>(tsc_now() - anchor.second) / us;
    }
    std::this_thread::yield();
  }
}

/// Enum-indexed relaxed counter array: the implementation behind each
/// structure's own cheap always-on counters (e.g. the skip-tree's
/// structural_stats).  `Enum` must end with an enumerator named kCount.
template <typename Enum>
class instance_counters {
 public:
  static constexpr std::size_t kN = static_cast<std::size_t>(Enum::kCount);

  void inc(Enum e) noexcept { add(e, 1); }
  void add(Enum e, std::uint64_t n) noexcept {
    v_[static_cast<std::size_t>(e)].fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t get(Enum e) const noexcept {
    return v_[static_cast<std::size_t>(e)].load(std::memory_order_relaxed);
  }

  std::array<std::uint64_t, kN> snapshot() const noexcept {
    std::array<std::uint64_t, kN> out{};
    for (std::size_t i = 0; i < kN; ++i) {
      out[i] = v_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kN> v_{};
};

}  // namespace lfst::metrics
