// In-node search.
//
// Every node of the skip-tree (and of the b-link-tree baseline) is searched
// by one function, `node_search`, which returns the Java-style encoded index
// the paper's pseudo-code is written against:
//
//     >= 0  -> v found at that index (leftmost match under duplicates)
//      < 0  -> -(insertion point) - 1, the lower_bound position encoded
//
// The encoding is total: callers recover the descent slot with
// `descend_index` and detect the follow-the-link case with `is_past_end`
// (detail/core.hpp).  tests/skiptree/test_kernel.cpp fuzzes it against
// std::lower_bound.
//
// The search is Khuong/Morin branch-free halving: the range update compiles
// to a conditional move, so the only unpredictable branch is the loop trip
// count, and it works for any T/Compare.  Its probes are dependent loads, so
// a cold key block costs one miss per line probed; the descent loops hide
// that by prefetching the block (`tree_core::prefetch_payload`).
#pragma once

#include <cstdint>

namespace lfst::skiptree {

/// Encoded lower_bound of `v` in the sorted run keys[0, nkeys).  Invariant:
/// the lower_bound position stays within [base, base + len].
template <typename T, typename Compare>
int node_search(const T* keys, std::uint32_t nkeys, const T& v,
                const Compare& cmp) {
  std::uint32_t base = 0;
  std::uint32_t len = nkeys;
  while (len > 1) {
    const std::uint32_t half = len / 2;
    base = cmp(keys[base + half - 1], v) ? base + half : base;
    len -= half;
  }
  const std::uint32_t pos = base + (len != 0 && cmp(keys[base], v) ? 1u : 0u);
  if (pos < nkeys && !cmp(v, keys[pos])) return static_cast<int>(pos);
  return -static_cast<int>(pos) - 1;
}

// The names the repository benchmark (perfbench/skipbench.cpp) calls: its
// kernel probe searches through `default_search_kernel::search`, and its
// run header prints `selected_kernel_name()`.
struct default_search_kernel {
  template <typename T, typename Compare>
  static int search(const T* keys, std::uint32_t nkeys, const T& v,
                    const Compare& cmp) {
    return node_search(keys, nkeys, v, cmp);
  }
};

inline const char* selected_kernel_name() noexcept { return "branchfree"; }

}  // namespace lfst::skiptree
