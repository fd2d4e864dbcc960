// Lock-free insertion (paper Fig. 5) and in-place replacement.
//
// add() reaches its leaf through the one descent (traverse_ops::locate),
// recording the node where the element belongs at every level on the way;
// it inserts at the leaf, then alternately splits the level and inserts a
// copy of the element one level up, up to the element's random geometric
// height.  Link pointers let a node split without coordinating with its
// parent: the left partition keeps the node identity and links to the fresh
// right partition, so concurrent traversals recover over the link until the
// parent learns about the new node.
//
// replace() is the primitive behind the map layer's assign: same position,
// new payload, linearized at the leaf CAS.
//
// A leaf CAS target may be frozen by a leaf merge (detail/compact.hpp);
// every loop below then helps the merge finish and re-locates its key.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>

#include "common/backoff.hpp"
#include "skiptree/detail/compact.hpp"
#include "skiptree/detail/core.hpp"
#include "skiptree/detail/traverse.hpp"

namespace lfst::skiptree::detail {

template <typename Core>
struct insert_ops {
  using T = typename Core::key_type;
  using Alloc = typename Core::alloc_t;
  using Reclaim = typename Core::reclaim_t;
  using contents_t = typename Core::contents_t;
  using node_t = typename Core::node_t;
  using head_t = typename Core::head_t;
  using search = typename Core::search;
  using compact = compact_ops<Core>;

  /// add(): grow the root to `height`, descend through `locate`
  /// recording the node where `v` belongs at every level up to `height`
  /// (the hints insert_list / split_list consume), insert at the leaf, then
  /// raise.  Returns false iff `v` was already present (the unsuccessful
  /// case is linearized at the leaf payload read that finds v; the
  /// successful case at the leaf CAS).
  ///
  /// OOM contract (strong guarantee): an allocation failure before the leaf
  /// CAS propagates with the tree untouched; a failure after it (the raise
  /// phase) is swallowed -- the element is already a member, so add()
  /// reports success and merely leaves the element shorter than its drawn
  /// height, which relaxed optimality (D5) tolerates.  If growing the root
  /// runs out of memory, the height is clamped to what the tree offers, so
  /// add() never reads an untracked hint.
  template <typename Guard>
  static bool add(Core& core, const T& v, int height, Guard& g) {
    assert(height >= 0 && height <= core.opts.max_height);
    try {
      increase_root_height(core, height);
    } catch (const std::bad_alloc&) {
      core.bump(tree_counter::alloc_failures);
      height = std::min(height,
                        core.root.load(std::memory_order_acquire)->height);
    }
    std::array<search, Core::kMaxHeightLimit + 1> srchs;
    struct track : traverse_ops<Core>::read_steps {
      search* srchs;
      int height;
      void down(node_t* nd, contents_t* cts, int i, int level,
                const contents_t*) const {
        if (level <= height) srchs[level] = search{nd, cts, i};
      }
    };
    const leaf_entry<T> at =
        traverse_ops<Core>::locate(core, v, g, track{{}, srchs.data(), height});
    srchs[0] = search{at.node, at.leaf, at.index};
    try {
      if (!insert_list(core, v, srchs[0], nullptr, 0)) return false;
    } catch (const std::bad_alloc&) {
      core.bump(tree_counter::alloc_failures);
      throw;  // pre-linearization: the set is unchanged
    }
    core.size.fetch_add(1, std::memory_order_relaxed);
    try {
      for (int lvl = 0; lvl < height; ++lvl) {
        node_t* right = split_list(core, v, srchs[lvl], lvl);
        if (right == nullptr) break;  // v vanished at lvl (concurrent remove)
        if (!insert_list(core, v, srchs[lvl + 1], right, lvl + 1)) break;
      }
    } catch (const std::bad_alloc&) {
      // Post-linearization: v is in the set and cannot be un-added.  Stop
      // raising; the tree stays valid (splits/copies either published fully
      // or not at all) and only optimality degrades.
      core.bump(tree_counter::alloc_failures);
    }
    return true;
  }

  /// Grow the tree upward until the root level is at least `h`: each new
  /// top level starts as a single node holding only +inf whose sole child is
  /// the previous root node.
  static void increase_root_height(Core& core, int h) {
    head_t* head = core.root.load(std::memory_order_acquire);
    while (head->height < h) {
      node_t* child = head->node;
      contents_t* c = contents_t::template make_routing<Alloc>(
          std::span<const T>{}, std::span<node_t* const>{&child, 1},
          /*inf=*/true, /*link=*/nullptr);
      node_t* top = core.alloc_node(c);
      head_t* grown = new head_t{top, head->height + 1};
      LFST_FP_POINT("skiptree.root.raise");
      if (core.root.compare_exchange_strong(head, grown,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        Reclaim::retire(core.domain, head);
        core.bump(tree_counter::root_raises);
        LFST_T_EVENT(::lfst::trace::sid::skiptree_root_raise,
                     static_cast<std::uint64_t>(grown->height));
        head = grown;
      } else {
        // Lost the race: `top` stays in the arena (freed with the tree),
        // its payload and the head descriptor were never published.
        delete grown;
      }
    }
  }

  /// Insert `v` at `level`, using `s` as the position hint (updated in
  /// place, so split_list starts from the freshest snapshot).  A hint is
  /// never past its node's end; a lost CAS re-locates `v` by walking right
  /// (move_forward).  Returns false when `v` is already present at the
  /// level -- which at the leaf level means the add fails, and at routing
  /// levels means another copy exists and raising stops (paper Sec. III-C).
  static bool insert_list(Core& core, const T& v, search& s,
                          node_t* right_child, int level) {
    assert(level == 0 || right_child != nullptr);
    assert(!Core::is_past_end(s.index, *s.cts));
    backoff bo;
    for (;;) {
      if (s.index >= 0) {
        return false;  // already present at this level
      }
      if (s.cts->frozen) {
        compact::help_and_move(core, s, v);
        continue;
      }
      const std::uint32_t pos = Core::descend_index(s.index);
      contents_t* repl =
          level == 0
              ? contents_t::template copy_leaf_insert<Alloc>(*s.cts, pos, v)
              : contents_t::template copy_routing_insert<Alloc>(
                    *s.cts, pos, v, right_child);
      LFST_FP_POINT("skiptree.insert.publish");
      if (core.cas_payload(s.node, s.cts, repl)) {
        core.retire(s.cts);
        s = search{s.node, repl, static_cast<int>(pos)};
        return true;
      }
      Core::destroy(repl);
      core.bump_cas_failure(s.node, level);
      bo();
      s = core.move_forward(s.node, v);
    }
  }

  /// Split the node containing `v` at `s`'s level into a left partition
  /// (elements <= v, keeps the node identity) and a fresh right partition
  /// (elements > v).  `s` is where insert_list left `v`; a lost CAS
  /// re-locates it by walking right.  Returns the right node, to be linked
  /// as the child accompanying `v` one level up; null if `v` disappeared
  /// (the split is then abandoned, paper Sec. III-C).
  static node_t* split_list(Core& core, const T& v, search& s, int level) {
    node_t* rnode = nullptr;
    backoff bo;
    for (;;) {
      if (s.index < 0) return nullptr;  // v was removed concurrently
      if (s.cts->frozen) {
        compact::help_and_move(core, s, v);
        continue;
      }
      const std::uint32_t pos = static_cast<std::uint32_t>(s.index);
      const contents_t& cts = *s.cts;
      if (pos + 1 == cts.nkeys && !cts.inf && cts.link == nullptr) {
        // Degenerate: v is the global maximum of the level with nothing to
        // its right.  Cannot happen while (D1) holds (the level ends in
        // +inf), but guard against it rather than split off a dead end.
        return nullptr;
      }
      contents_t* right = contents_t::template copy_split_right<Alloc>(cts,
                                                                       pos);
      if (rnode == nullptr) {
        rnode = core.alloc_node(right);
      } else {
        // Reuse the node allocated by a failed attempt; replace its payload.
        contents_t* prev = rnode->payload.load(std::memory_order_relaxed);
        rnode->payload.store(right, std::memory_order_relaxed);
        Core::destroy(prev);
      }
      contents_t* left =
          contents_t::template copy_split_left<Alloc>(cts, pos, rnode);
      LFST_FP_POINT("skiptree.split.publish");
      if (core.cas_payload(s.node, s.cts, left)) {
        core.retire(s.cts);
        core.bump(tree_counter::splits);
        LFST_T_EVENT(::lfst::trace::sid::skiptree_split,
                     static_cast<std::uint64_t>(pos));
        s = search{s.node, left, static_cast<int>(pos)};
        return rnode;
      }
      Core::destroy(left);
      core.bump_cas_failure(s.node, level);
      bo();
      s = core.move_forward(s.node, v);  // v may have moved right
    }
  }

  /// Overwrite the stored element order-equivalent to `v` with `v` itself.
  /// Returns false iff no equivalent element is present; linearizes at the
  /// leaf CAS (success) or leaf payload read (failure).  OOM before the CAS
  /// propagates with the stored element intact (strong guarantee).  The
  /// first CAS target comes from the descent (locate); a lost CAS re-locates
  /// `v` by walking right (move_forward).
  template <typename Guard>
  static bool replace(Core& core, const T& v, Guard& g) {
    const leaf_entry<T> at = traverse_ops<Core>::locate(core, v, g);
    search s{at.node, at.leaf, at.index};
    backoff bo;
    for (;;) {
      if (s.index < 0) return false;
      contents_t* repl;
      try {
        if (s.cts->frozen) {
          compact::help_and_move(core, s, v);
          continue;
        }
        repl = contents_t::template copy_leaf_assign<Alloc>(
            *s.cts, static_cast<std::uint32_t>(s.index), v);
      } catch (const std::bad_alloc&) {
        core.bump(tree_counter::alloc_failures);
        throw;
      }
      if (core.cas_payload(s.node, s.cts, repl)) {
        core.retire(s.cts);
        return true;
      }
      Core::destroy(repl);
      bo();
      s = core.move_forward(s.node, v);
    }
  }
};

}  // namespace lfst::skiptree::detail
