// CAS-contention heatmap: attribute failed payload CASes to (level,
// node-address-hash bucket).
//
// The ROADMAP's t2->t4 scaling droop cannot be attacked without knowing
// WHERE the lost CASes concentrate: are retries spread across the leaf
// level (inherent write contention) or piled on a handful of index nodes
// (a structural hotspot that backoff/localized-compaction could fix)?
// The aggregate `cas_failures` counter cannot answer that, and the span
// ring (common/trace.hpp) wraps.  This heatmap counts EVERY failed CAS, always
// on, attributed to the level of the list the CAS targeted and a 64-way
// hash of the node's address.
//
// Recording happens only on the CAS *failure* path -- already a retry, so
// a relaxed fetch_add is free relative to the work being redone.  The
// success path is untouched, which is how the acceptance invariant holds:
// the heatmap's grand total equals `tree_counter::cas_failures` exactly,
// because `tree_core::bump_cas_failure()` increments both from the same
// three call sites (insert_list, split_list, remove) and nothing else
// touches either.
//
// Address buckets hash a node pointer, so one bucket aggregates ~1/64 of
// live nodes; a single hot node (e.g. the root-adjacent index node every
// raise fights over) still stands out because its bucket dwarfs its level
// peers.  Fibonacci multiplicative hashing on the pointer (low 4 bits
// dropped -- arena nodes are 16-byte aligned) spreads sequential arena
// addresses across buckets.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace lfst::skiptree {

/// Plain-value copy of the heatmap, queryable and serializable.
struct heatmap_snapshot {
  static constexpr int kLevels = 33;   // tree_core::kMaxHeightLimit + 1
  static constexpr int kBuckets = 64;

  std::array<std::array<std::uint64_t, kBuckets>, kLevels> cells{};

  std::uint64_t level_total(int level) const noexcept {
    std::uint64_t t = 0;
    for (std::uint64_t c : cells[static_cast<std::size_t>(level)]) t += c;
    return t;
  }

  std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (int l = 0; l < kLevels; ++l) t += level_total(l);
    return t;
  }

  int hottest_level() const noexcept {
    int best = 0;
    std::uint64_t best_t = 0;
    for (int l = 0; l < kLevels; ++l) {
      const std::uint64_t t = level_total(l);
      if (t > best_t) {
        best_t = t;
        best = l;
      }
    }
    return best;
  }

  /// One JSON-lines record: {"type":"heatmap","name":...,(extra,)
  /// "total":N,"levels":[{"level":L,"total":N,"buckets":[...64 ints]},..]}
  /// Only levels with at least one failure are emitted.  `extra` is raw
  /// JSON spliced after the name (e.g. R"("threads":4,"range":500)").
  std::string to_json(std::string_view name,
                      std::string_view extra = {}) const {
    std::ostringstream os;
    os << "{\"type\":\"heatmap\",\"name\":\"" << name << "\"";
    if (!extra.empty()) os << "," << extra;
    os << ",\"total\":" << total() << ",\"levels\":[";
    bool first = true;
    for (int l = 0; l < kLevels; ++l) {
      const std::uint64_t t = level_total(l);
      if (t == 0) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"level\":" << l << ",\"total\":" << t << ",\"buckets\":[";
      const auto& row = cells[static_cast<std::size_t>(l)];
      for (int b = 0; b < kBuckets; ++b) {
        if (b) os << ",";
        os << row[static_cast<std::size_t>(b)];
      }
      os << "]}";
    }
    os << "]}";
    return os.str();
  }
};

/// Concurrent write side: a fixed (level x address-bucket) grid of relaxed
/// atomic counters, one instance per tree (lives in tree_core, ~17 KiB).
class cas_heatmap {
 public:
  static constexpr int kLevels = heatmap_snapshot::kLevels;
  static constexpr int kBuckets = heatmap_snapshot::kBuckets;

  static std::size_t bucket_of(const void* node) noexcept {
    std::uint64_t x = reinterpret_cast<std::uintptr_t>(node) >> 4;
    x *= 0x9E3779B97F4A7C15ull;  // Fibonacci multiplicative hash
    return static_cast<std::size_t>(x >> 58);  // top 6 bits -> 0..63
  }

  void record(int level, const void* node) noexcept {
    std::size_t l = level < 0 ? 0u : static_cast<std::size_t>(level);
    if (l >= static_cast<std::size_t>(kLevels)) l = kLevels - 1;
    cells_[l * kBuckets + bucket_of(node)].fetch_add(
        1, std::memory_order_relaxed);
  }

  heatmap_snapshot snapshot() const noexcept {
    heatmap_snapshot out;
    for (int l = 0; l < kLevels; ++l) {
      for (int b = 0; b < kBuckets; ++b) {
        out.cells[static_cast<std::size_t>(l)][static_cast<std::size_t>(b)] =
            cells_[static_cast<std::size_t>(l) * kBuckets +
                   static_cast<std::size_t>(b)]
                .load(std::memory_order_relaxed);
      }
    }
    return out;
  }

 private:
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(kLevels) * kBuckets>
      cells_{};
};

}  // namespace lfst::skiptree
