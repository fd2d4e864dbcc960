// Lock-free skip-list (the paper's `skip-list` baseline).
//
// The paper compares its skip-tree against "a highly tuned concurrent
// skip-list", java.util.concurrent.ConcurrentSkipListSet, whose design --
// like the skip-tree's linked-list levels -- descends from the Michael [13] /
// Harris [14] lock-free linked list: deleted nodes are logically removed by
// marking their link references, which simultaneously forbids conflicting
// insertions, and physically unlinked by any traversal that encounters them.
//
// This implementation is the canonical marked-pointer lock-free skip-list
// (Fraser; Herlihy & Shavit Ch. 14) with the well-known fix for re-linking a
// tower level after a failed CAS (the new node's forward pointer must be
// re-aimed at the fresh successor):
//
//  * contains -- wait-free in practice: one descent, skips marked nodes,
//    performs no CAS.
//  * add      -- lock-free: link at the bottom level (the linearization
//    point), then lazily link the upper levels.
//  * remove   -- lock-free: mark the tower top-down; the bottom-level mark
//    linearizes the removal; a final find() physically unlinks, after which
//    the node is retired through the reclamation policy.
//
// Memory layout note.  Where the skip-tree packs ~1/q elements per node,
// each skip-list element is its own allocation, so a traversal of N elements
// takes at least N cache misses -- the spatial-locality gap that Sec. V of
// the paper measures.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <new>

#include "alloc/pool.hpp"
#include "common/align.hpp"
#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "reclaim/ebr.hpp"

namespace lfst::skiplist {

struct skip_list_options {
  int q_log2 = 2;      ///< tower growth probability q = 2^-q_log2 (JDK: 1/4)
  int max_level = 24;  ///< tower levels 0..max_level
};

template <typename T, typename Compare = std::less<T>,
          typename Reclaim = reclaim::ebr_policy,
          typename Alloc = lfst::alloc::pool_policy>
class skip_list {
 public:
  using key_type = T;
  using alloc_t = Alloc;
  using domain_t = typename Reclaim::domain_type;
  using guard_t = typename Reclaim::guard_type;

  static constexpr int kMaxLevelLimit = 32;

  skip_list() : skip_list(skip_list_options{}) {}

  explicit skip_list(skip_list_options opts,
                     domain_t& domain = Reclaim::default_domain(),
                     Compare cmp = Compare{})
      : opts_(opts), domain_(domain), cmp_(cmp) {
    assert(opts_.q_log2 >= 1 && opts_.q_log2 <= 16);
    assert(opts_.max_level >= 0 && opts_.max_level <= kMaxLevelLimit);
    head_ = node::create_sentinel(opts_.max_level);
  }

  skip_list(const skip_list&) = delete;
  skip_list& operator=(const skip_list&) = delete;

  /// Quiescent destruction: walk the bottom level and free every node
  /// (marked stragglers included -- they are still linked until unlinked).
  ~skip_list() {
    node* n = head_;
    while (n != nullptr) {
      node* next = node::ptr(n->next(0)->load(std::memory_order_relaxed));
      node::destroy(n);
      n = next;
    }
  }

  // --- operations -------------------------------------------------------------

  bool contains(const T& v) const {
    LFST_T_SPAN(::lfst::trace::sid::skiplist_contains);
    guard_t g(domain_);
  restart:
    const node* pred = head_;
    const node* curr = nullptr;
    for (int lvl = opts_.max_level; lvl >= 0; --lvl) {
      // Eviction safe point, once per level: a flagged reader restarts the
      // descent from the head with a fresh pin.
      if (g.check()) goto restart;
      curr = node::ptr(pred->next(lvl)->load(std::memory_order_acquire));
      for (;;) {
        if (curr == nullptr) break;
        const std::uintptr_t w =
            curr->next(lvl)->load(std::memory_order_acquire);
        if (node::marked(w)) {
          curr = node::ptr(w);  // logically removed: skip, don't help
          continue;
        }
        if (cmp_(curr->key, v)) {
          pred = curr;
          curr = node::ptr(w);
        } else {
          break;
        }
      }
    }
    return curr != nullptr && equal(curr->key, v);
  }

  bool add(const T& v) { return add_with_level(v, random_level()); }

  /// Deterministic-height insertion (test hook; `add` draws geometric).
  bool add_with_level(const T& v, int top) {
    assert(top >= 0 && top <= opts_.max_level);
    LFST_T_SPAN(::lfst::trace::sid::skiplist_add);
    guard_t g(domain_);
    node* preds[kMaxLevelLimit + 1];
    node* succs[kMaxLevelLimit + 1];
    backoff bo;
    for (;;) {
      if (find(v, preds, succs, g)) return false;
      node* fresh = node::create(v, top);
      for (int lvl = 0; lvl <= top; ++lvl) {
        fresh->next(lvl)->store(node::pack(succs[lvl], false),
                                std::memory_order_relaxed);
      }
      // Linearization point of a successful add: the bottom-level link.
      std::uintptr_t expected = node::pack(succs[0], false);
      if (!preds[0]->next(0)->compare_exchange_strong(
              expected, node::pack(fresh, false), std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        node::destroy(fresh);  // never published
        LFST_T_RETRY();
        bo();
        continue;
      }
      size_.fetch_add(1, std::memory_order_relaxed);
      link_upper_levels(v, fresh, top, preds, succs, g);
      return true;
    }
  }

  bool remove(const T& v) {
    LFST_T_SPAN(::lfst::trace::sid::skiplist_remove);
    guard_t g(domain_);
    node* preds[kMaxLevelLimit + 1];
    node* succs[kMaxLevelLimit + 1];
    if (!find(v, preds, succs, g)) return false;
    node* victim = succs[0];
    // Mark the tower top-down so no level can be re-linked after its
    // superior is dead.
    for (int lvl = victim->top; lvl >= 1; --lvl) {
      std::uintptr_t w = victim->next(lvl)->load(std::memory_order_acquire);
      while (!node::marked(w)) {
        victim->next(lvl)->compare_exchange_weak(
            w, node::mark(w), std::memory_order_acq_rel,
            std::memory_order_acquire);
      }
    }
    std::uintptr_t w = victim->next(0)->load(std::memory_order_acquire);
    for (;;) {
      if (node::marked(w)) return false;  // another remover linearized first
      // Linearization point of a successful remove: the bottom-level mark.
      if (victim->next(0)->compare_exchange_strong(
              w, node::mark(w), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        size_.fetch_sub(1, std::memory_order_relaxed);
        find(v, preds, succs, g);  // physically unlink every level
        Reclaim::retire(domain_, victim->as_retired());
        return true;
      }
      LFST_T_RETRY();
    }
  }

  // --- observers ---------------------------------------------------------------

  std::size_t size() const noexcept {
    const auto n = size_.load(std::memory_order_relaxed);
    return n < 0 ? 0 : static_cast<std::size_t>(n);
  }

  bool empty() const noexcept { return size() == 0; }

  /// Weakly-consistent ascending iteration along the bottom level.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_while([&](const T& k) {
      fn(k);
      return true;
    });
  }

  template <typename Fn>
  bool for_each_while(Fn&& fn) const {
    guard_t g(domain_);
    const node* curr =
        node::ptr(head_->next(0)->load(std::memory_order_acquire));
    while (curr != nullptr) {
      const std::uintptr_t w = curr->next(0)->load(std::memory_order_acquire);
      if (!node::marked(w)) {
        if (!fn(curr->key)) return false;
      }
      curr = node::ptr(w);
    }
    return true;
  }

  std::size_t count_keys() const {
    std::size_t n = 0;
    for_each([&](const T&) { ++n; });
    return n;
  }

  /// Heap bytes held by the list (nodes with their towers, marked
  /// stragglers included).  Quiescent callers only.
  std::size_t memory_footprint() const {
    std::size_t bytes = 0;
    const node* n = head_;
    while (n != nullptr) {
      bytes += node::footprint(n->top);
      n = node::ptr(n->next(0)->load(std::memory_order_relaxed));
    }
    return bytes;
  }

  /// Smallest member >= v; wait-free (same descent as contains).
  bool lower_bound(const T& v, T& out) const {
    guard_t g(domain_);
    const node* n = locate(v, g);
    if (n == nullptr) return false;
    out = n->key;
    return true;
  }

  /// Smallest member of the set; false when empty.
  bool first(T& out) const {
    bool found = false;
    for_each_while([&](const T& k) {
      out = k;
      found = true;
      return false;
    });
    return found;
  }

  /// Visit members in [lo, hi) ascending, weakly consistently.
  template <typename Fn>
  bool for_range(const T& lo, const T& hi, Fn&& fn) const {
    guard_t g(domain_);
    const node* curr = locate(lo, g);
    while (curr != nullptr) {
      const std::uintptr_t w = curr->next(0)->load(std::memory_order_acquire);
      if (!node::marked(w)) {
        if (!cmp_(curr->key, hi)) return true;  // key >= hi
        if (!fn(curr->key)) return false;
      }
      curr = node::ptr(w);
    }
    return true;
  }

  const skip_list_options& options() const noexcept { return opts_; }

 private:
  /// Tower node: key plus `top + 1` marked forward pointers in one block.
  /// The mark (low pointer bit) on next(l) means "this node is logically
  /// deleted at level l"; level 0 is the membership truth.
  struct node {
    T key;
    int top;

    std::atomic<std::uintptr_t>* next(int lvl) noexcept {
      return tower() + lvl;
    }
    const std::atomic<std::uintptr_t>* next(int lvl) const noexcept {
      return tower() + lvl;
    }

    static node* create(const T& key, int top) {
      node* n = raw_alloc(top);
      new (&n->key) T(key);
      n->top = top;
      for (int l = 0; l <= top; ++l) {
        new (n->tower() + l) std::atomic<std::uintptr_t>(0);
      }
      return n;
    }

    static node* create_sentinel(int top) {
      node* n = raw_alloc(top);
      // Sentinel key stays default-constructed and is never compared.
      new (&n->key) T();
      n->top = top;
      for (int l = 0; l <= top; ++l) {
        new (n->tower() + l) std::atomic<std::uintptr_t>(0);
      }
      return n;
    }

    static void destroy(node* n) noexcept {
      const std::size_t bytes = footprint(n->top);
      n->key.~T();
      Alloc::deallocate(static_cast<void*>(n), bytes, alloc_align());
    }

    static void destroy_erased(void* p) noexcept {
      destroy(static_cast<node*>(p));
    }

    reclaim::retired_block as_retired() noexcept {
      return reclaim::retired_block{this, &node::destroy_erased, footprint(top)};
    }

    // Marked-pointer packing.
    static node* ptr(std::uintptr_t w) noexcept {
      return reinterpret_cast<node*>(w & ~std::uintptr_t{1});
    }
    static bool marked(std::uintptr_t w) noexcept { return (w & 1) != 0; }
    static std::uintptr_t pack(node* p, bool m) noexcept {
      return reinterpret_cast<std::uintptr_t>(p) |
             static_cast<std::uintptr_t>(m);
    }
    static std::uintptr_t mark(std::uintptr_t w) noexcept { return w | 1; }

    /// Allocation size of a node with the given tower height (diagnostics).
    static std::size_t footprint(int top) noexcept {
      return tower_offset() +
             sizeof(std::atomic<std::uintptr_t>) *
                 static_cast<std::size_t>(top + 1);
    }

   private:
    std::atomic<std::uintptr_t>* tower() noexcept {
      return std::launder(reinterpret_cast<std::atomic<std::uintptr_t>*>(
          reinterpret_cast<std::byte*>(this) + tower_offset()));
    }
    const std::atomic<std::uintptr_t>* tower() const noexcept {
      return std::launder(
          reinterpret_cast<const std::atomic<std::uintptr_t>*>(
              reinterpret_cast<const std::byte*>(this) + tower_offset()));
    }

    static constexpr std::size_t tower_offset() noexcept {
      return align_up(sizeof(node), alignof(std::atomic<std::uintptr_t>));
    }
    static constexpr std::size_t alloc_align() noexcept {
      return alignof(node) > alignof(std::atomic<std::uintptr_t>)
                 ? alignof(node)
                 : alignof(std::atomic<std::uintptr_t>);
    }
    static node* raw_alloc(int top) {
      const std::size_t bytes =
          tower_offset() +
          sizeof(std::atomic<std::uintptr_t>) * static_cast<std::size_t>(top + 1);
      return static_cast<node*>(Alloc::allocate(bytes, alloc_align()));
    }
  };

  bool equal(const T& a, const T& b) const {
    return !cmp_(a, b) && !cmp_(b, a);
  }

  /// Wait-free descent to the first unmarked node with key >= v (null if
  /// none): the shared core of lower_bound / for_range.  `g` is the
  /// caller's guard; an eviction restarts the descent from the head.
  const node* locate(const T& v, guard_t& g) const {
  restart:
    const node* pred = head_;
    const node* curr = nullptr;
    for (int lvl = opts_.max_level; lvl >= 0; --lvl) {
      if (g.check()) goto restart;
      curr = node::ptr(pred->next(lvl)->load(std::memory_order_acquire));
      for (;;) {
        if (curr == nullptr) break;
        const std::uintptr_t w =
            curr->next(lvl)->load(std::memory_order_acquire);
        if (node::marked(w)) {
          curr = node::ptr(w);
          continue;
        }
        if (cmp_(curr->key, v)) {
          pred = curr;
          curr = node::ptr(w);
        } else {
          break;
        }
      }
    }
    return curr;
  }

  int random_level() {
    thread_local xoshiro256ss rng{seed_counter()};
    return geometric_level(rng, opts_.q_log2, opts_.max_level);
  }

  static std::uint64_t seed_counter() {
    static std::atomic<std::uint64_t> counter{0x6a09e667f3bcc909ull};
    return thread_seed(counter.fetch_add(1, std::memory_order_relaxed), 1);
  }

  /// Harris-style search with physical unlinking: on return, preds[l] and
  /// succs[l] bracket `v` at every level with unmarked nodes, and every
  /// marked node encountered at the search position has been snipped.
  /// Returns true iff succs[0] holds `v`.
  bool find(const T& v, node** preds, node** succs, guard_t& g) {
  retry:
    node* pred = head_;
    for (int lvl = opts_.max_level; lvl >= 0; --lvl) {
      if (g.check()) goto retry;  // evicted: preds/succs gathered are stale
      node* curr = node::ptr(pred->next(lvl)->load(std::memory_order_acquire));
      for (;;) {
        if (curr == nullptr) break;
        std::uintptr_t w = curr->next(lvl)->load(std::memory_order_acquire);
        while (node::marked(w)) {
          // Snip the marked node out of this level.
          std::uintptr_t expected = node::pack(curr, false);
          if (!pred->next(lvl)->compare_exchange_strong(
                  expected, node::pack(node::ptr(w), false),
                  std::memory_order_acq_rel, std::memory_order_acquire)) {
            goto retry;  // pred changed or was marked: restart
          }
          curr = node::ptr(w);
          if (curr == nullptr) break;
          w = curr->next(lvl)->load(std::memory_order_acquire);
        }
        if (curr == nullptr) break;
        if (cmp_(curr->key, v)) {
          pred = curr;
          curr = node::ptr(w);
        } else {
          break;
        }
      }
      preds[lvl] = pred;
      succs[lvl] = curr;
    }
    return succs[0] != nullptr && equal(succs[0]->key, v);
  }

  /// Lazily link levels 1..top of a freshly inserted node.  After a failed
  /// CAS the fresh successors come from find(); the node's own forward
  /// pointer must be re-aimed first (skipping this is the classic textbook
  /// bug), and linking stops if the node got marked meanwhile.
  void link_upper_levels(const T& v, node* fresh, int top, node** preds,
                         node** succs, guard_t& g) {
    for (int lvl = 1; lvl <= top; ++lvl) {
      for (;;) {
        std::uintptr_t cur = fresh->next(lvl)->load(std::memory_order_acquire);
        if (node::marked(cur)) return;  // concurrent remove: abandon linking
        node* succ = succs[lvl];
        if (node::ptr(cur) != succ) {
          if (!fresh->next(lvl)->compare_exchange_strong(
                  cur, node::pack(succ, false), std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            continue;  // re-examine (it may have been marked)
          }
        }
        std::uintptr_t expected = node::pack(succ, false);
        if (preds[lvl]->next(lvl)->compare_exchange_strong(
                expected, node::pack(fresh, false), std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          break;
        }
        if (find(v, preds, succs, g)) {
          if (succs[0] != fresh) return;  // a different copy of v owns the slot
        } else {
          return;  // fresh was removed and unlinked
        }
      }
    }
  }

  skip_list_options opts_;
  domain_t& domain_;
  [[no_unique_address]] Compare cmp_;
  node* head_ = nullptr;
  alignas(kFalseSharingRange) std::atomic<std::ptrdiff_t> size_{0};
};

}  // namespace lfst::skiplist
