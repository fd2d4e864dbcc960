// Lock-free removal with online node compaction (paper Fig. 6 / Fig. 8).
//
// remove() reaches its leaf through the one descent (traverse_ops::locate),
// compacting nodes on the way down, then CASes the key out of its leaf.
// The relaxations of Sec. III allow mutations to leave empty nodes and
// suboptimal child references behind; the reachability properties
// (D1)-(D5) are preserved at every step, and the four compaction
// transformations restore optimal paths lazily:
//
//    8a  empty-node elimination        (clean_link / clean_node)
//    8b  suboptimal-reference repair   (clean_node)
//    8c  duplicate-child elimination   (clean_node)
//    8d  element migration             (clean_node -> migrate_element)
//
// All repairs are best-effort single CAS attempts: a failure means another
// thread changed the node, whose own compaction pass will see the fresh
// state.
//
// A fifth transform keeps the leaves at their design width: an under-full
// leaf behind a dead separator is merged into its successor (clean_node ->
// merge_leaf) in three CASes -- freeze it, prepend its keys to the first
// non-empty successor, empty it -- after which 8a and 8c unlink it and drop
// the separator.  A writer whose CAS target is frozen finishes the merge
// (help_merge) before it retries.  DESIGN.md Sec. 1.1 "Leaf merge" has the
// argument that (D1)-(D5) hold in every intermediate state.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "common/backoff.hpp"
#include "skiptree/detail/core.hpp"
#include "skiptree/detail/traverse.hpp"

namespace lfst::skiptree::detail {

template <typename Core>
struct compact_ops {
  using T = typename Core::key_type;
  using Alloc = typename Core::alloc_t;
  using contents_t = typename Core::contents_t;
  using node_t = typename Core::node_t;
  using search = typename Core::search;

  /// remove(): descend through `locate`, compacting each
  /// routing node the descent leaves through a child (`clean_node`) and
  /// bypassing empty successors at every link it crosses (`clean_link`),
  /// then CAS `v` out of its leaf.  Returns false iff `v` was absent.  OOM
  /// contract: compaction failures along the way are skipped (compaction is
  /// optional optimality repair); only the leaf-erase allocation, or
  /// finishing a merge of the leaf holding `v`, can make the call fail, and
  /// then the set is unchanged (strong guarantee).
  template <typename Guard>
  static bool remove(Core& core, const T& v, Guard& g) {
    struct cleanup {
      Core& core;
      // Slot 0's lower bound is the greatest element of the node the
      // descent crossed a link from on this level; none if it crossed no
      // link here or crossed from an empty node.
      void down(node_t* nd, contents_t* cts, int i, int,
                const contents_t* crossed) const {
        if (!core.opts.compaction) return;
        const T* lo = crossed != nullptr && crossed->nkeys > 0
                          ? &crossed->max_key()
                          : nullptr;
        clean_node(core, nd, cts, Core::descend_index(i), lo);
      }
      node_t* right(node_t* nd, contents_t* cts) const {
        return clean_link(core, nd, cts);
      }
    };
    const leaf_entry<T> at =
        traverse_ops<Core>::locate(core, v, g, cleanup{core});
    search s{at.node, at.leaf, at.index};
    backoff bo;
    for (;;) {
      if (s.index < 0) {
        return false;  // linearized at the leaf payload read
      }
      contents_t* repl;
      try {
        if (s.cts->frozen) {
          help_and_move(core, s, v);
          continue;
        }
        repl = contents_t::template copy_leaf_erase<Alloc>(
            *s.cts, static_cast<std::uint32_t>(s.index));
      } catch (const std::bad_alloc&) {
        core.bump(tree_counter::alloc_failures);
        throw;
      }
      if (core.cas_payload(s.node, s.cts, repl)) {
        // Linearization point of a successful remove.
        core.retire(s.cts);
        core.size.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      Core::destroy(repl);
      core.bump_cas_failure(s.node, /*level=*/0);
      bo();
      s = core.move_forward(s.node, v);
    }
  }

  /// Empty-node elimination across a link (Fig. 8a): swing `nd`'s link past
  /// empty successors, then return the first non-empty successor.  Readers
  /// (contains) never call this; they step through empty nodes wait-free.
  static node_t* clean_link(Core& core, node_t* nd, contents_t* cts) {
    for (;;) {
      node_t* next = cts->link;
      assert(next != nullptr);
      contents_t* ncts = Core::load_payload(next);
      if (!ncts->empty()) return next;
      // Only the merge may replace a frozen payload: step over the empty
      // nodes the wait-free way (exactly what readers do).
      if (cts->frozen) return first_nonempty(next);
      contents_t* repl;
      try {
        repl = contents_t::template copy_with_link<Alloc>(*cts, ncts->link);
      } catch (const std::bad_alloc&) {
        // Can't afford the repair: step over the empty nodes and leave the
        // bypass to a later pass.
        core.bump(tree_counter::compactions_skipped);
        return first_nonempty(next);
      }
      LFST_FP_POINT("skiptree.compact.8a");
      if (core.cas_payload(nd, cts, repl)) {
        core.retire(cts);
        core.bump(tree_counter::empty_bypasses);
        LFST_T_EVENT(::lfst::trace::sid::skiptree_compact_8a, 0);
        cts = repl;
      } else {
        // cts reloaded; nd changed under us.  Moving right remains safe
        // (D5), so just continue from the fresh payload.
        Core::destroy(repl);
      }
    }
  }

  /// Node compaction at a routing node during descent (Fig. 8).  `idx` is
  /// the child slot the traversal is about to follow; `pred_max` is the
  /// greatest element of the node a link was just crossed from, if any
  /// (needed to judge the first slot's optimality).
  static void clean_node(Core& core, node_t* nd, contents_t* cts,
                         std::uint32_t idx, const T* pred_max) {
    node_t* child = cts->children()[idx];
    contents_t* ccts = Core::load_payload(child);

    // (8a) child is empty: bypass it.  (8b) the child's maximum falls left
    // of the slot's lower bound A: the reference is suboptimal; its
    // successor covers the interval.
    bool bypass = false;
    if (ccts->empty()) {
      bypass = true;
    } else if (!ccts->inf && ccts->nkeys > 0) {
      const T* lower_bound_elem =
          idx > 0 ? &cts->keys()[idx - 1] : pred_max;
      if (lower_bound_elem != nullptr &&
          core.cmp(ccts->max_key(), *lower_bound_elem)) {
        bypass = true;
      }
    }
    if (bypass) {
      assert(ccts->link != nullptr);
      contents_t* repl;
      try {
        repl =
            contents_t::template copy_with_child<Alloc>(*cts, idx, ccts->link);
      } catch (const std::bad_alloc&) {
        core.bump(tree_counter::compactions_skipped);
        return;  // repair is optional; the descent recovers over links
      }
      LFST_FP_POINT("skiptree.compact.8b");
      if (core.cas_payload(nd, cts, repl)) {
        core.retire(cts);
        if (ccts->empty()) {
          core.bump(tree_counter::empty_bypasses);
          LFST_T_EVENT(::lfst::trace::sid::skiptree_compact_8a, idx);
        } else {
          core.bump(tree_counter::ref_repairs);
          LFST_T_EVENT(::lfst::trace::sid::skiptree_compact_8b, idx);
        }
      } else {
        Core::destroy(repl);
      }
      return;
    }

    // (8c) duplicate-child elimination: adjacent equal references merge by
    // dropping the element between them.  Forbidden on the first pair of a
    // node (j == 0): a duplicate at the front is the signature of an
    // in-flight element migration, and eliminating it races with
    // suboptimal-reference repair through a stale pred_max (Sec. III-D).
    const std::uint32_t len = cts->logical_len();
    for (std::uint32_t j = 1; j + 1 < len && j < cts->nkeys; ++j) {
      if (cts->children()[j] == cts->children()[j + 1]) {
        contents_t* repl;
        try {
          repl = contents_t::template copy_drop_key_child<Alloc>(*cts, j);
        } catch (const std::bad_alloc&) {
          core.bump(tree_counter::compactions_skipped);
          return;
        }
        LFST_FP_POINT("skiptree.compact.8c");
        if (core.cas_payload(nd, cts, repl)) {
          core.retire(cts);
          core.bump(tree_counter::duplicate_drops);
          LFST_T_EVENT(::lfst::trace::sid::skiptree_compact_8c, j);
        } else {
          Core::destroy(repl);
        }
        return;
      }
    }

    // Leaf merge: an under-full leaf whose separator is dead (its maximum
    // is below keys[idx]) moves its keys into its successor and empties
    // out.  A child already frozen is helped to the end instead.
    if (ccts->leaf) {
      const std::uint32_t min_keys =
          (std::uint32_t{1} << core.opts.q_log2) / 4;  // 1/(4q)
      if (ccts->frozen) {
        try {
          help_merge(core, child, ccts);
        } catch (const std::bad_alloc&) {
          core.bump(tree_counter::compactions_skipped);
        }
      } else if (ccts->nkeys > 0 && ccts->nkeys < min_keys && !ccts->inf &&
                 ccts->link != nullptr && idx < cts->nkeys &&
                 core.cmp(ccts->max_key(), cts->keys()[idx]) &&
                 merge_leaf(core, child, ccts) && idx > 0) {
        // (8a) at the leaf level: the previous slot's leaf most likely
        // links to the leaf just emptied.
        node_t* prev = cts->children()[idx - 1];
        clean_link(core, prev, Core::load_payload(prev));
      }
      return;
    }

    // (8d) element migration: a routing child with a single element (or a
    // two-element child whose references coincide, which 8c cannot touch)
    // moves its rightmost element to its successor and empties out.
    if (ccts->link != nullptr && !ccts->inf) {
      if (ccts->logical_len() == 1) {
        migrate_element(core, child, ccts, 0);
      } else if (ccts->logical_len() == 2 && ccts->nkeys == 2 &&
                 ccts->children()[0] == ccts->children()[1]) {
        migrate_element(core, child, ccts, 1);
      }
    }
  }

  /// Move (key[j], child[j]) of routing node `src` to the front of its
  /// successor, then erase it from `src` (Fig. 8d).  The element exists in
  /// both nodes between the two CASes; routing levels tolerate duplicates
  /// (Theorem 1), so every intermediate state is consistent.  Both CASes
  /// are best-effort: if the copy lands but the erase loses its race, the
  /// stranded duplicate is compacted by a later pass.
  static void migrate_element(Core& core, node_t* src, contents_t* scts,
                              std::uint32_t j) {
    node_t* succ = scts->link;
    contents_t* succ_cts = Core::load_payload(succ);
    if (succ_cts->leaf || succ_cts->empty()) return;  // never grow an empty node
    const T key = scts->keys()[j];
    // Level order guarantees key <= min(successor); re-check against the
    // snapshot so a racing restructure cannot break sortedness.
    if (succ_cts->nkeys > 0 && core.cmp(succ_cts->keys()[0], key)) return;
    contents_t* grown;
    try {
      grown = contents_t::template copy_prepend<Alloc>(
          *succ_cts, key, scts->children()[j]);
    } catch (const std::bad_alloc&) {
      core.bump(tree_counter::compactions_skipped);
      return;  // migration not started; nothing to undo
    }
    LFST_FP_POINT("skiptree.compact.8d");
    if (!core.cas_payload(succ, succ_cts, grown)) {
      Core::destroy(grown);
      return;
    }
    core.retire(succ_cts);
    contents_t* shrunk;
    try {
      shrunk = contents_t::template copy_erase_key_own_child<Alloc>(*scts, j);
    } catch (const std::bad_alloc&) {
      // The copy landed but the erase can't be built: the element now exists
      // in both nodes, which routing levels tolerate (Theorem 1); a later
      // pass finishes the job.
      core.bump(tree_counter::compactions_skipped);
      return;
    }
    if (core.cas_payload(src, scts, shrunk)) {
      core.retire(scts);
      core.bump(tree_counter::migrations);
      LFST_T_EVENT(::lfst::trace::sid::skiptree_compact_8d, j);
    } else {
      Core::destroy(shrunk);
    }
  }

  /// Leaf merge, step 1: freeze leaf `nd` (payload `cts`), then run steps
  /// 2 and 3 through help_merge.  Returns true once `nd` is empty.
  /// Best-effort like 8a-8d: a lost freeze CAS abandons the merge, and a
  /// bad_alloc leaves a valid tree -- after the freeze, one whose next
  /// writer at `nd` finishes the merge.
  static bool merge_leaf(Core& core, node_t* nd, contents_t* cts) {
    contents_t* frozen;
    try {
      LFST_FP_ALLOC("skiptree.merge.freeze");
      frozen = contents_t::template copy_frozen<Alloc>(*cts);
    } catch (const std::bad_alloc&) {
      core.bump(tree_counter::compactions_skipped);
      return false;
    }
    if (!core.cas_payload(nd, cts, frozen)) {
      Core::destroy(frozen);
      return false;
    }
    core.retire(cts);
    try {
      help_merge(core, nd, frozen);
    } catch (const std::bad_alloc&) {
      core.bump(tree_counter::compactions_skipped);
      return false;
    }
    return true;
  }

  /// Leaf merge, steps 2 and 3: bring frozen leaf `nd` (payload `f`) to
  /// an empty leaf linked to the node holding `f`'s keys.  Returns once
  /// `nd` no longer holds `f`; throws bad_alloc with the tree valid and the
  /// merge where it was.  Step 2 runs at most once: it prepends only when
  /// the successor snapshot holds no key <= max(f) and `nd` still holds `f`
  /// after that snapshot was read (DESIGN.md Sec. 1.1 "Leaf merge").
  static void help_merge(Core& core, node_t* nd, contents_t* f) {
    assert(f->frozen && f->nkeys > 0 && f->link != nullptr);
    while (Core::load_payload(nd) == f) {
      node_t* succ = first_nonempty(f->link);
      contents_t* scts = Core::load_payload(succ);
      if (scts->empty()) continue;  // emptied since: look again
      if (scts->frozen) {
        help_merge(core, succ, scts);  // recursion only moves right
        continue;
      }
      if (Core::load_payload(nd) != f) return;  // another helper finished
      const bool copied =
          scts->nkeys > 0 && !core.cmp(f->max_key(), scts->keys()[0]);
      if (!copied) {
        LFST_FP_ALLOC("skiptree.merge.copy");
        contents_t* grown = contents_t::template copy_leaf_prepend<Alloc>(
            *scts, f->key_span());
        if (!core.cas_payload(succ, scts, grown)) {
          Core::destroy(grown);
          continue;
        }
        core.retire(scts);
      }
      LFST_FP_ALLOC("skiptree.merge.empty");
      contents_t* emptied = contents_t::template make_leaf<Alloc>(
          std::span<const T>{}, /*inf=*/false, succ);
      contents_t* expected = f;
      if (core.cas_payload(nd, expected, emptied)) {
        core.retire(f);
        core.bump(tree_counter::leaf_merges);
        return;
      }
      Core::destroy(emptied);
    }
  }

  /// A writer's CAS target `s` is frozen: finish the merge, then re-locate
  /// `v` from the (now empty) leaf.  Throws bad_alloc with the set
  /// unchanged.
  static void help_and_move(Core& core, search& s, const T& v) {
    help_merge(core, s.node, s.cts);
    s = core.move_forward(s.node, v);
  }

  /// `nd` or the first node after it on its level that is not empty.
  static node_t* first_nonempty(node_t* nd) {
    for (contents_t* c = Core::load_payload(nd); c->empty();
         c = Core::load_payload(nd)) {
      nd = c->link;
      assert(nd != nullptr);
    }
    return nd;
  }
};

}  // namespace lfst::skiptree::detail
