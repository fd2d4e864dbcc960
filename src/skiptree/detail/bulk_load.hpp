// Optimal bottom-up construction (see skip_tree::from_sorted).
//
// Bulk-loading packs leaves to exactly the expected width 1/q and builds
// routing levels bottom-up, so every node is optimal in the paper's
// Sec. III-D sense (no empty nodes, no suboptimal references).  O(n);
// single-threaded construction, concurrent use afterwards.  This also
// serves as the "ideal structure" baseline the compaction ablation compares
// organic growth against.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "skiptree/detail/core.hpp"

namespace lfst::skiptree::detail {

template <typename Core>
struct bulk_load_ops {
  using T = typename Core::key_type;
  using Alloc = typename Core::alloc_t;
  using contents_t = typename Core::contents_t;
  using node_t = typename Core::node_t;
  using head_t = typename Core::head_t;

  /// Build `core` (which must be fresh: empty, height 0) from sorted,
  /// duplicate-free keys.
  static void build(Core& core, std::span<const T> keys) {
    assert(core.size.load(std::memory_order_relaxed) == 0 &&
           core.root.load(std::memory_order_relaxed)->height == 0 &&
           "bulk_load requires a fresh tree");
    if (keys.empty()) return;
#ifndef NDEBUG
    for (std::size_t i = 1; i < keys.size(); ++i) {
      assert(core.cmp(keys[i - 1], keys[i]) && "keys must be sorted and unique");
    }
#endif
    const std::size_t width = std::size_t{1} << core.opts.q_log2;  // 1/q

    // Leaf level, built right-to-left so each payload is born with its
    // final link; the last leaf carries the +inf terminator.  That leaf
    // reuses the fresh tree's initial leaf node, so no header is left in
    // the arena unreachable.
    node_t* initial = core.root.load(std::memory_order_relaxed)->node;
    const std::size_t nleaves = (keys.size() + width - 1) / width;
    std::vector<node_t*> level(nleaves);
    std::vector<T> level_max(nleaves);  // finite max; unused for the last
    node_t* next = nullptr;
    for (std::size_t c = nleaves; c-- > 0;) {
      const std::size_t begin = c * width;
      const std::size_t len = std::min(width, keys.size() - begin);
      const bool last = (c + 1 == nleaves);
      contents_t* payload = contents_t::template make_leaf<Alloc>(
          keys.subspan(begin, len), /*inf=*/last, /*link=*/next);
      if (last) {
        Core::destroy(initial->payload.exchange(payload,
                                                std::memory_order_relaxed));
        level[c] = initial;
      } else {
        level[c] = core.alloc_node(payload);
      }
      level_max[c] = keys[begin + len - 1];
      next = level[c];
    }

    // Routing levels: each node's element for child c_i is max(c_i); the
    // globally last child's element is the +inf terminator.
    int h = 0;
    while (level.size() > 1) {
      const std::size_t nnodes = (level.size() + width - 1) / width;
      std::vector<node_t*> upper(nnodes);
      std::vector<T> upper_max(nnodes);
      next = nullptr;
      for (std::size_t c = nnodes; c-- > 0;) {
        const std::size_t begin = c * width;
        const std::size_t len = std::min(width, level.size() - begin);
        const bool last = (c + 1 == nnodes);
        std::vector<T> elems;
        elems.reserve(len);
        for (std::size_t j = 0; j < (last ? len - 1 : len); ++j) {
          elems.push_back(level_max[begin + j]);
        }
        contents_t* payload = contents_t::template make_routing<Alloc>(
            std::span<const T>(elems),
            std::span<node_t* const>(level.data() + begin, len),
            /*inf=*/last, /*link=*/next);
        upper[c] = core.alloc_node(payload);
        upper_max[c] = level_max[begin + len - 1];
        next = upper[c];
      }
      level = std::move(upper);
      level_max = std::move(upper_max);
      ++h;
    }

    head_t* fresh = new head_t{level[0], h};
    head_t* old = core.root.exchange(fresh, std::memory_order_acq_rel);
    delete old;  // construction-time: no concurrent readers
    core.size.store(static_cast<std::ptrdiff_t>(keys.size()),
                    std::memory_order_relaxed);
  }
};

}  // namespace lfst::skiptree::detail
