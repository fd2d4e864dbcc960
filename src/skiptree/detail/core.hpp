// Shared state and primitive operations of the lock-free skip-tree.
//
// The skip-tree implementation is layered into modules that mirror the
// paper's figures (see DESIGN.md "Module layering"):
//
//   detail/core.hpp       -- this file: members, lifecycle, primitives
//   detail/traverse.hpp   -- the one descent, wait-free for reads
//                                                          (Fig. 4)
//   detail/insert.hpp     -- insert / split / root growth  (Fig. 5)
//   detail/compact.hpp    -- remove + the compaction transforms
//                                                (Fig. 6 / Fig. 8, leaf merge)
//   detail/bulk_load.hpp  -- optimal bottom-up construction
//   detail/iterate.hpp    -- leaf-level streaming and iterators
//   skip_tree.hpp         -- the public facade over all of the above
//
// `tree_core` owns everything the operation modules share: the tuning
// options, the reclamation domain, the comparator, the root descriptor, the
// node arena, the size counter and the structural-event counters, plus the
// primitive helpers (payload load/CAS/retire, key search, node allocation).
// The operation modules are stateless structs of static functions over a
// `tree_core&`, so each can be read against its paper figure in isolation
// and none can accumulate hidden coupling.
//
// Allocation: node headers and payload blocks go through the `Alloc` policy
// (alloc/pool.hpp); the head descriptor stays on the plain heap because it
// is retired through `Reclaim::retire(domain, ptr)`, whose deleter is plain
// `delete`.  Nodes are never individually freed -- the arena list threads
// every node ever allocated so the destructor can reclaim nodes that
// compaction bypassed (standing in for the JVM collector; DESIGN.md Sec. 3).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>

#include "alloc/pool.hpp"
#include "common/align.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "reclaim/ebr.hpp"
#include "skiptree/contents.hpp"
#include "skiptree/detail/kernel.hpp"
#include "skiptree/heatmap.hpp"

namespace lfst::skiptree {

/// Structural event ids, one per diagnostic counter a tree keeps about
/// itself.
enum class tree_counter : std::uint16_t {
  cas_failures = 0,     ///< lost CAS races (contention probe)
  splits,
  root_raises,
  empty_bypasses,
  ref_repairs,
  duplicate_drops,
  migrations,
  leaf_merges,          ///< under-full leaves merged into their successor
  alloc_failures,       ///< bad_alloc seen by a mutation
  compactions_skipped,  ///< repairs abandoned under OOM
  kCount
};

/// Short name of a tree counter (the validator's metrics section uses these).
constexpr std::string_view tree_counter_name(tree_counter c) noexcept {
  constexpr std::string_view names[] = {
      "cas_failures",    "splits",          "root_raises",
      "empty_bypasses",  "ref_repairs",     "duplicate_drops",
      "migrations",      "leaf_merges",     "alloc_failures",
      "compactions_skipped",
  };
  static_assert(sizeof(names) / sizeof(names[0]) ==
                static_cast<std::size_t>(tree_counter::kCount));
  return names[static_cast<std::size_t>(c)];
}

/// Tuning knobs.  The paper controls the tree with a single parameter, the
/// geometric failure rate q (best value q = 1/32, Sec. V); `q_log2`
/// expresses q = 2^-q_log2.  Expected node width is 1/q.
struct skip_tree_options {
  int q_log2 = 5;           ///< q = 2^-q_log2; paper default q = 1/32
  int max_height = 24;      ///< cap on element heights (levels 0..max_height)
  /// Ablation hook: false turns off `clean_node`, remove's repairs of the
  /// routing nodes it descends through (Fig. 8) and its leaf merges.
  /// `clean_link`, the bypass of empty successors at each link remove
  /// crosses, stays on.
  bool compaction = true;
};

namespace detail {

/// Where a descent reached the leaf level: the leaf node, its payload
/// snapshot and the probe key's encoded index in it (see `search`), plus
/// the level-1 payload snapshot the descent last went *down* from and the
/// child slot it took there (`parent` is null when the root is a leaf).
/// The leaf cursor (detail/iterate.hpp) reads the parent's child array as
/// its prefetch schedule.
template <typename T>
struct leaf_entry {
  tree_node<T>* node = nullptr;
  contents<T>* leaf = nullptr;
  int index = 0;
  const contents<T>* parent = nullptr;
  std::uint32_t slot = 0;
};

template <typename T, typename Compare, typename Reclaim, typename Alloc>
struct tree_core {
  using key_type = T;
  using compare_t = Compare;
  using reclaim_t = Reclaim;
  using alloc_t = Alloc;
  using contents_t = contents<T>;
  using node_t = tree_node<T>;
  using head_t = head_node<T>;
  using domain_t = typename Reclaim::domain_type;

  static constexpr int kMaxHeightLimit = 32;

  /// Paper Fig. 3 `Search`: a node, a payload snapshot, and the Java-style
  /// encoded index of the probe key (>= 0 found; < 0 encodes -(insertion
  /// point) - 1).
  struct search {
    node_t* node = nullptr;
    contents_t* cts = nullptr;
    int index = 0;
  };

  // --- shared state ----------------------------------------------------------

  skip_tree_options opts;
  domain_t& domain;
  [[no_unique_address]] Compare cmp;

  alignas(kFalseSharingRange) std::atomic<head_t*> root{nullptr};
  alignas(kFalseSharingRange) std::atomic<node_t*> arena{nullptr};
  /// Length of the arena list: every node header ever allocated.  Shares
  /// the arena head's line, which `alloc_node` writes anyway.
  std::atomic<std::size_t> arena_len{0};
  alignas(kFalseSharingRange) std::atomic<std::ptrdiff_t> size{0};

  // Structural event counters (diagnostics; relaxed, off the fast path).
  // Per-instance and always on -- tests assert exact per-tree counts.
  // `bump` is the only writer.
  metrics::instance_counters<tree_counter> counters;

  // CAS-contention heatmap (skiptree/heatmap.hpp).  Like `counters`: per
  // instance, always on, relaxed, written only from the CAS-failure slow
  // path.  `bump_cas_failure` is the ONLY writer and also the only caller
  // of bump(cas_failures), so the heatmap's grand total equals the
  // cas_failures counter exactly -- tests and contention_profile assert it.
  cas_heatmap heat;

  void bump(tree_counter c) noexcept {
    counters.inc(c);
    // Every lost CAS race funnels through this bump, so it doubles as the
    // span layer's retry hook: the innermost live span (the add/remove this
    // thread is executing) gets charged one retry.
    if (c == tree_counter::cas_failures) LFST_T_RETRY();
  }

  /// A payload CAS on `nd`'s list at `level` lost its race.  Attributes
  /// the failure in the heatmap, then funnels through bump() for the
  /// counter and the span retry.
  void bump_cas_failure(const node_t* nd, int level) noexcept {
    heat.record(level, nd);
    bump(tree_counter::cas_failures);
  }

  // --- lifecycle -------------------------------------------------------------

  tree_core(skip_tree_options o, domain_t& d, Compare c)
      : opts(o), domain(d), cmp(c) {
    assert(opts.q_log2 >= 1 && opts.q_log2 <= 16);
    assert(opts.max_height >= 1 && opts.max_height <= kMaxHeightLimit);
    node_t* leaf = alloc_node(contents_t::template make_initial_leaf<Alloc>());
    root.store(new head_t{leaf, 0}, std::memory_order_release);
  }

  tree_core(const tree_core&) = delete;
  tree_core& operator=(const tree_core&) = delete;

  /// Move is construction-time only (no concurrent access): the source is
  /// left empty-but-destructible.
  tree_core(tree_core&& other) noexcept
      : opts(other.opts),
        domain(other.domain),
        cmp(other.cmp),
        root(other.root.load(std::memory_order_relaxed)),
        arena(other.arena.load(std::memory_order_relaxed)),
        arena_len(other.arena_len.load(std::memory_order_relaxed)),
        size(other.size.load(std::memory_order_relaxed)) {
    other.root.store(nullptr, std::memory_order_relaxed);
    other.arena.store(nullptr, std::memory_order_relaxed);
    other.arena_len.store(0, std::memory_order_relaxed);
    other.size.store(0, std::memory_order_relaxed);
  }

  /// Destruction requires quiescence (no concurrent operations).  Payloads
  /// retired earlier sit in the reclamation domain with self-contained
  /// deleters; everything still reachable -- including nodes bypassed by
  /// compaction -- is freed here via the allocation arena.
  ~tree_core() {
    node_t* n = arena.load(std::memory_order_acquire);
    while (n != nullptr) {
      contents_t* c = n->payload.load(std::memory_order_relaxed);
      if (c != nullptr) destroy(c);
      node_t* next = n->arena_next;
      free_node(n);
      n = next;
    }
    delete root.load(std::memory_order_relaxed);
  }

  // --- primitive helpers -----------------------------------------------------

  static contents_t* load_payload(const node_t* n) noexcept {
    return n->payload.load(std::memory_order_acquire);
  }

  bool cas_payload(node_t* n, contents_t*& expected, contents_t* desired) {
    if (LFST_FP_CAS("skiptree.cas.payload")) {
      // Spurious failure: mimic compare_exchange semantics by reloading the
      // observed value into `expected` so caller retry loops stay correct.
      expected = n->payload.load(std::memory_order_acquire);
      return false;
    }
    return n->payload.compare_exchange_strong(
        expected, desired, std::memory_order_acq_rel,
        std::memory_order_acquire);
  }

  void retire(contents_t* c) {
    Reclaim::retire(domain, c->template as_retired<Alloc>());
  }

  /// Destroy a payload that was never published (or is being torn down).
  static void destroy(contents_t* c) noexcept {
    contents_t::template destroy<Alloc>(c);
  }

  /// In-node key search (detail/kernel.hpp); lower-bound semantics so that
  /// with duplicate routing elements the descent uses the leftmost match
  /// (going too far right at a routing level could skip the target, while
  /// landing left recovers over links).  Every operation module searches
  /// nodes through here.
  int search_keys(const contents_t& c, const T& v) const {
    return node_search(c.keys(), c.nkeys, v, cmp);
  }

  /// Bytes of a full routing payload at the paper's default node width 1/q
  /// = 32: header, 32 keys and 33 child pointers (536 B for 8-byte keys).
  /// This is the span `prefetch_payload` warms, for leaves and routing
  /// payloads alike.
  static constexpr std::size_t kPrefetchSpan =
      contents_t::total_size(32, /*inf=*/true, /*leaf=*/false);

  /// Warm the lines the upcoming `search_keys` and child load will touch:
  /// a payload is one contiguous [header | keys | children] block, so the
  /// key and child lines sit right behind the header line the caller just
  /// loaded.  Called by the descent loops immediately after loading a child
  /// payload.  The search's probes are dependent loads, so without this
  /// each cold key line it reaches is a serial miss; issuing every line up
  /// front overlaps them.  The span covers the child array too, so at a
  /// routing level `children[idx]` arrives with the keys instead of costing
  /// one more serial miss after the search ends.  On a leaf, or a payload
  /// narrower than 32 keys, the tail lines are an over-fetch of whatever
  /// follows the block; a prefetch never faults.
  static void prefetch_payload(const contents_t* c) noexcept {
    const char* p = reinterpret_cast<const char*>(c);
    for (std::size_t off = kCacheLine; off < kPrefetchSpan;
         off += kCacheLine) {
      prefetch_ro(p + off);
    }
  }

  /// The paper's `-i - 1 == cts.items.length` condition: the probe key is
  /// greater than every element (also true of an empty node), so traversal
  /// must follow the link pointer.
  static bool is_past_end(int i, const contents_t& c) noexcept {
    return i < 0 && static_cast<std::uint32_t>(-i - 1) == c.logical_len();
  }

  static std::uint32_t descend_index(int i) noexcept {
    return static_cast<std::uint32_t>(i < 0 ? -i - 1 : i);
  }

  /// Allocate a node owning payload `c` and push it onto the arena list.
  /// Takes ownership of `c`: if the node header allocation fails, the
  /// (unpublished) payload is destroyed here before the error propagates.
  node_t* alloc_node(contents_t* c) {
    void* raw;
    try {
      LFST_FP_ALLOC("skiptree.alloc.node");
      raw = Alloc::allocate(sizeof(node_t), alignof(node_t));
    } catch (...) {
      destroy(c);
      throw;
    }
    node_t* n = new (raw) node_t;
    n->payload.store(c, std::memory_order_relaxed);
    n->arena_next = arena.load(std::memory_order_relaxed);
    while (!arena.compare_exchange_weak(n->arena_next, n,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
    }
    arena_len.fetch_add(1, std::memory_order_relaxed);
    return n;
  }

  static void free_node(node_t* n) noexcept {
    n->~node_t();
    Alloc::deallocate(n, sizeof(node_t), alignof(node_t));
  }

  int random_level() {
    thread_local xoshiro256ss rng{mix_thread_seed()};
    return geometric_level(rng, opts.q_log2, opts.max_height);
  }

  static std::uint64_t mix_thread_seed() {
    static std::atomic<std::uint64_t> counter{0x9e3779b97f4a7c15ull};
    return thread_seed(counter.fetch_add(1, std::memory_order_relaxed), 0);
  }

  /// The leftmost leaf, with the level-1 payload the descent went down
  /// from and slot 0 as its prefetch parent.
  leaf_entry<T> leftmost_leaf() const {
    const head_t* head = root.load(std::memory_order_acquire);
    node_t* nd = head->node;
    contents_t* cts = load_payload(nd);
    const contents_t* parent = nullptr;
    while (!cts->leaf) {
      // An empty routing node has no children; recover over its link.
      if (cts->logical_len() == 0) {
        nd = cts->link;
      } else {
        parent = cts;
        nd = cts->children()[0];
      }
      cts = load_payload(nd);
    }
    return {.node = nd, .leaf = cts, .parent = parent};
  }

  /// Re-locate `v` on `nd`'s level after a failed CAS: walk right from
  /// `nd` to the first node with an element >= v.  The mutations' only
  /// walk-right loop.  Property (D5) makes
  /// walking right always safe: once every element of a node is < v it
  /// stays that way in all futures.
  search move_forward(node_t* nd, const T& v) {
    for (;;) {
      contents_t* cts = load_payload(nd);
      const int i = search_keys(*cts, v);
      if (!is_past_end(i, *cts)) return search{nd, cts, i};
      nd = cts->link;
      assert(nd != nullptr);
    }
  }
};

}  // namespace detail
}  // namespace lfst::skiptree
