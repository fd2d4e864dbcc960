// The descent to a key's leaf (paper Fig. 4): the skip-tree has no other,
// and it is wait-free for reads.
//
// Every operation is one traversal plus a different conclusion: descend
// from the root, binary-searching each payload snapshot and either following
// a child reference or recovering rightward over a link, until a leaf
// snapshot whose interval covers the probe key is in hand.  `locate` is
// that traversal.  `contains`, `lower_bound` and `get` below,
// `iterate_ops::for_range` and `insert_ops::replace` draw their conclusion
// from the `leaf_entry` it returns.  The mutations add one job per step
// through `locate`'s `steps` argument: `add` records a hint per level
// (Fig. 5) and `remove` compacts on the way down (Fig. 6).
//
// Wait-freedom (reads): a single pass, no CAS, no helping.  Each step
// either moves one level down or one node right; rightward moves are
// bounded because the probe key is finite and every level ends in +inf
// (D1).
//
// Eviction: every step, link hops at the leaf level included, is a
// cooperative-eviction safe point (`g.check()`).  When check() reports an
// eviction the pin was republished and every pointer in hand is stale, so
// the descent restarts from the root, the one recovery point of every
// operation: none changes the set before its descent ends, and each
// repair `remove` publishes on the way down leaves a valid tree on its own.
// Guards that never evict (leaky, an unflagged EBR slot) make this a single
// predictable-false branch per step.
#pragma once

#include <atomic>
#include <cstdint>

#include "skiptree/detail/core.hpp"

namespace lfst::skiptree::detail {

template <typename Core>
struct traverse_ops {
  using T = typename Core::key_type;
  using contents_t = typename Core::contents_t;
  using node_t = typename Core::node_t;
  using head_t = typename Core::head_t;
  using entry_t = leaf_entry<T>;

  /// What a descent does besides moving.  `down(nd, cts, i, level,
  /// crossed)` sees each routing node the descent leaves through a child:
  /// its payload snapshot, the probe's encoded index in it, the node's
  /// level and the payload last crossed by a link on that level (null if
  /// none since the descent reached the level).  `right(nd, cts)` picks the
  /// node a link step lands on.  A read only moves.
  struct read_steps {
    void down(node_t*, contents_t*, int, int, const contents_t*) const {}
    node_t* right(node_t*, contents_t* cts) const { return cts->link; }
  };

  /// Root-to-leaf descent to the leaf whose interval covers `v`: the
  /// returned index is `v`'s encoded index in that leaf's snapshot and is
  /// never past its end.  `g` is the operation's reclamation guard.
  template <typename Guard, typename Steps = read_steps>
  static entry_t locate(const Core& core, const T& v, Guard& g,
                        Steps steps = {}) {
  restart:
    const head_t* head = core.root.load(std::memory_order_acquire);
    int level = head->height;
    node_t* nd = head->node;
    contents_t* cts = Core::load_payload(nd);
    int i = core.search_keys(*cts, v);
    const contents_t* crossed = nullptr;
    const contents_t* parent = nullptr;
    std::uint32_t slot = 0;
    for (;;) {
      const bool right = Core::is_past_end(i, *cts);
      if (!right && cts->leaf) return {nd, cts, i, parent, slot};
      LFST_FP_POINT("skiptree.traverse.step");
      if (g.check()) goto restart;  // evicted: all pointers above are stale
      if (right) {
        crossed = cts;
        nd = steps.right(nd, cts);
      } else {
        steps.down(nd, cts, i, level, crossed);
        // The last payload the descent goes down from is at level 1.
        parent = cts;
        slot = Core::descend_index(i);
        nd = cts->children()[slot];
        crossed = nullptr;
        --level;
      }
      cts = Core::load_payload(nd);
      Core::prefetch_payload(cts);
      i = core.search_keys(*cts, v);
      LFST_T_STEP();
    }
  }

  /// Wait-free membership test.  Linearizes at the acquire load of the
  /// leaf payload `locate` returns.  (An eviction restart re-runs the
  /// pass; wait-freedom is conditional on the watchdog not flagging this
  /// reader, which only happens when the reader is already stalled beyond
  /// the configured age.)
  template <typename Guard>
  static bool contains(const Core& core, const T& v, Guard& g) {
    return locate(core, v, g).index >= 0;
  }

  /// Smallest member >= v (the set-theoretic ceiling).  Returns false if
  /// every member is < v.
  template <typename Guard>
  static bool lower_bound(const Core& core, const T& v, T& out, Guard& g) {
    const entry_t e = locate(core, v, g);
    const std::uint32_t pos = Core::descend_index(e.index);
    // v's ceiling is the +inf terminator: no member >= v.
    if (pos == e.leaf->nkeys) return false;
    out = e.leaf->keys()[pos];
    return true;
  }

  /// Copy out the stored element order-equivalent to `probe`.  With a
  /// comparator that inspects only part of the element (as the map layer
  /// does), this retrieves the full stored entry.
  template <typename Guard>
  static bool get(const Core& core, const T& probe, T& out, Guard& g) {
    const entry_t e = locate(core, probe, g);
    if (e.index < 0) return false;
    out = e.leaf->keys()[static_cast<std::uint32_t>(e.index)];
    return true;
  }
};

}  // namespace lfst::skiptree::detail
