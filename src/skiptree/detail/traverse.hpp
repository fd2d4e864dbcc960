// The wait-free read descent (paper Fig. 4).
//
// Every read operation is one traversal plus a different conclusion:
// descend from the root, binary-searching each payload snapshot and either
// following a child reference or recovering rightward over a link, until a
// leaf snapshot whose interval covers the probe key is in hand.  `locate`
// is that traversal, the only one the read side has; `contains`,
// `lower_bound` and `get` below, `iterate_ops::for_range` and
// `insert_ops::replace` each draw their conclusion from the `leaf_entry`
// it returns.  (Mutations keep their own descents: `add` records a hint
// per level (Fig. 5) and `remove` compacts on the way down (Fig. 6).)
//
// Wait-freedom: a single pass, no CAS, no helping.  Each step either moves
// one level down or one node right; rightward moves are bounded because the
// probe key is finite and every level ends in +inf (D1).
//
// Eviction: every step, link hops at the leaf level included, is a
// cooperative-eviction safe point (`g.check()`).  When check() reports an
// eviction the pin was republished and every pointer in hand is stale, so
// the descent restarts from the root, the one recovery point of every read.
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
  using entry_t = leaf_entry<T>;

  /// Root-to-leaf descent to the leaf whose interval covers `v`: the
  /// returned index is `v`'s encoded index in that leaf's snapshot and is
  /// never past its end.  `g` is the operation's reclamation guard.
  template <typename Guard>
  static entry_t locate(const Core& core, const T& v, Guard& g) {
  restart:
    node_t* nd = core.root.load(std::memory_order_acquire)->node;
    contents_t* cts = Core::load_payload(nd);
    int i = core.search_keys(*cts, v);
    const contents_t* parent = nullptr;
    std::uint32_t slot = 0;
    for (;;) {
      const bool right = Core::is_past_end(i, *cts);
      if (!right && cts->leaf) return {nd, cts, i, parent, slot};
      LFST_FP_POINT("skiptree.traverse.step");
      if (g.check()) goto restart;  // evicted: all pointers above are stale
      if (right) {
        nd = cts->link;
      } else {
        // The last payload the descent goes down from is at level 1.
        parent = cts;
        slot = Core::descend_index(i);
        nd = cts->children()[slot];
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
