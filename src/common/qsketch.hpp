// Always-on quantile sketch: HDR/DDSketch-style log-bucketed histogram.
//
// The telemetry plane needs per-op latency quantiles (p50/p90/p99/p999)
// cheap enough to leave on in release builds.  A full reservoir or t-digest
// is too expensive and too synchronized for a lock-free hot path, so this
// sketch trades a bounded RELATIVE error for a fixed-size array of relaxed
// atomic counters:
//
//   - values below 16 map to their own bucket (exact);
//   - values >= 16 map to 16 sub-buckets per power-of-two octave
//     (index = ((e - 3) << 4) | ((v >> (e - 4)) & 15) with
//     e = bit_width(v) - 1), so a bucket spanning [lo, lo + w) has
//     w = 2^(e-4) <= lo/16, and the midpoint estimate is within
//     w / (2*lo) <= 1/32 (~3.1%) of any value in the bucket.
//
// 64-bit values fit in 16 * 61 = 976 buckets (~7.6 KiB of counters).
//
// Concurrency: writers pick one of kShards cache-line-padded shards by a
// per-thread index and fetch_add with relaxed ordering -- no CAS loop, no fence, no
// contention between threads on different shards.  Readers merge all
// shards into a plain `qsketch_snapshot`, which supports further merging
// (cross-thread / cross-process aggregation) and quantile queries.
// Snapshots taken while writers are active are "fuzzy": each counter is
// individually atomic, the set is not -- fine for telemetry, which only ever samples a moving system.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace lfst::telemetry {

/// Merged, plain-value view of a qsketch.  Copyable, mergeable, queryable.
struct qsketch_snapshot {
  static constexpr int kSubBits = 4;
  static constexpr int kSub = 1 << kSubBits;               // 16
  static constexpr int kBucketCount = kSub * 61;           // covers uint64

  std::array<std::uint64_t, kBucketCount> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  /// Bucket index for a value.  Exact below kSub * 2 (one bucket per
  /// integer); log-spaced with kSub sub-buckets per octave above.
  static constexpr int bucket_index(std::uint64_t v) noexcept {
    if (v < static_cast<std::uint64_t>(kSub)) return static_cast<int>(v);
    const int e = std::bit_width(v) - 1;  // e >= kSubBits
    return ((e - (kSubBits - 1)) << kSubBits) |
           static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
  }

  /// Inclusive lower bound of bucket `idx`.
  static constexpr std::uint64_t bucket_lo(int idx) noexcept {
    const int b = idx >> kSubBits;
    if (b <= 1) return static_cast<std::uint64_t>(idx);  // exact region
    const int e = b + (kSubBits - 1);
    const std::uint64_t sub = static_cast<std::uint64_t>(idx & (kSub - 1));
    return (std::uint64_t{1} << e) + (sub << (e - kSubBits));
  }

  /// Width of bucket `idx` (number of integers it covers).
  static constexpr std::uint64_t bucket_width(int idx) noexcept {
    const int b = idx >> kSubBits;
    if (b <= 1) return 1;
    return std::uint64_t{1} << (b + (kSubBits - 1) - kSubBits);
  }

  /// Midpoint estimate for bucket `idx` -- the value quantile() reports.
  static constexpr double bucket_mid(int idx) noexcept {
    return static_cast<double>(bucket_lo(idx)) +
           static_cast<double>(bucket_width(idx) - 1) / 2.0;
  }

  void merge(const qsketch_snapshot& other) noexcept {
    for (int i = 0; i < kBucketCount; ++i) buckets[i] += other.buckets[i];
    count += other.count;
    sum += other.sum;
    if (other.max > max) max = other.max;
  }

  /// Estimate the q-quantile (q in [0, 1]).  Returns the midpoint of the
  /// bucket holding the rank-floor(q * (count - 1)) element; relative
  /// error <= 1/(2 * kSub) for values >= kSub, exact below.  0 if empty.
  double quantile(double q) const noexcept {
    if (count == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
    std::uint64_t cum = 0;
    for (int i = 0; i < kBucketCount; ++i) {
      cum += buckets[i];
      if (cum > rank) return bucket_mid(i);
    }
    return static_cast<double>(max);  // unreachable unless counts race
  }

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Concurrent write side: relaxed per-shard atomic buckets.
class qsketch {
 public:
  static constexpr int kBucketCount = qsketch_snapshot::kBucketCount;
  static constexpr std::size_t kShards = 8;

  void record(std::uint64_t v) noexcept {
    shard& s = shards_[shard_index()];
    s.buckets[qsketch_snapshot::bucket_index(v)].fetch_add(
        1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    // CAS-max: racy losers retry only
    // while their value is still the larger one.
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  qsketch_snapshot snapshot() const noexcept {
    qsketch_snapshot out;
    for (const shard& s : shards_) {
      for (int i = 0; i < kBucketCount; ++i) {
        out.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
      }
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += s.sum.load(std::memory_order_relaxed);
    }
    out.max = max_.load(std::memory_order_relaxed);
    return out;
  }

  /// Zero every bucket.  Not linearizable against concurrent writers --
  /// callers (tests, bench trial boundaries) quiesce first.
  void reset() noexcept {
    for (shard& s : shards_) {
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
    }
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) shard {
    std::array<std::atomic<std::uint64_t>, kBucketCount> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };

  static std::size_t shard_index() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return idx;
  }

  std::array<shard, kShards> shards_{};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace lfst::telemetry
