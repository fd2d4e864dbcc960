// Michael-Harris lock-free ordered linked list.
//
// Section II of the paper: "The design of Michael [13], based on earlier
// work by Harris [14], forms the basis for the lock-free algorithm in the
// java.util.concurrent library and the lock-free linked list levels of our
// skip tree design.  The hallmark of the Michael-Harris algorithm is the
// marking of link references of deleted nodes to avoid conflicts with
// concurrent insertions."
//
// This module is that substrate in isolation: a linearizable lock-free
// ordered set as a single-level linked list.  Each node's `next` field packs
// a mark bit (low pointer bit); a marked node is logically deleted, and any
// traversal that encounters one helps unlink it.  The skip-tree borrows the
// marking IDEA (its empty node plays the role of the mark: "The node with
// zero elements acts as the marker of the Michael-Harris algorithm",
// Sec. III-C) rather than this code, so the list also serves as the
// reference point for what node-per-element costs look like (see
// bench/list_reclaim).
//
// The list is parameterized over the reclamation scheme and implements all
// three:
//   * reclaim::ebr_policy    -- epoch guard around each operation (default);
//   * reclaim::hp_policy     -- Michael's original pairing: three hazard
//                               pointers protect prev/curr/next during the
//                               find() traversal;
//   * reclaim::leaky_policy  -- no reclamation (measurement baseline).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "alloc/pool.hpp"
#include "common/align.hpp"
#include "common/backoff.hpp"
#include "common/trace.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/hazard.hpp"
#include "reclaim/leaky.hpp"

namespace lfst::list {

namespace detail {

template <typename T>
struct list_node {
  T key;
  std::atomic<std::uintptr_t> next{0};

  explicit list_node(const T& k) : key(k) {}

  template <typename Alloc = lfst::alloc::new_delete_policy>
  static list_node* create(const T& k) {
    void* raw = Alloc::allocate(sizeof(list_node), alignof(list_node));
    return new (raw) list_node(k);
  }

  template <typename Alloc = lfst::alloc::new_delete_policy>
  static void destroy(list_node* n) noexcept {
    n->~list_node();
    Alloc::deallocate(static_cast<void*>(n), sizeof(list_node),
                      alignof(list_node));
  }

  static list_node* ptr(std::uintptr_t w) noexcept {
    return reinterpret_cast<list_node*>(w & ~std::uintptr_t{1});
  }
  static bool marked(std::uintptr_t w) noexcept { return (w & 1) != 0; }
  static std::uintptr_t pack(list_node* p, bool m) noexcept {
    return reinterpret_cast<std::uintptr_t>(p) | static_cast<std::uintptr_t>(m);
  }
  static std::uintptr_t mark(std::uintptr_t w) noexcept { return w | 1; }

  template <typename Alloc = lfst::alloc::new_delete_policy>
  static void destroy_erased(void* p) noexcept {
    destroy<Alloc>(static_cast<list_node*>(p));
  }
  template <typename Alloc = lfst::alloc::new_delete_policy>
  reclaim::retired_block as_retired() noexcept {
    return reclaim::retired_block{this, &list_node::destroy_erased<Alloc>,
                                  sizeof(list_node)};
  }
};

}  // namespace detail

/// Hazard-pointer policy adapter for the list (the guard-style adapters in
/// reclaim/ cover EBR and leaky; hazard pointers need per-pointer protection
/// hooks, which the list's find() uses explicitly when this policy is
/// selected).
struct hp_policy {
  using domain_type = reclaim::hp_domain;
  static domain_type& default_domain() { return reclaim::hp_domain::global(); }
  static void retire(domain_type& d, reclaim::retired_block b) { d.retire(b); }
};

/// Lock-free ordered set as a Michael-Harris linked list, EBR-flavoured.
template <typename T, typename Compare = std::less<T>,
          typename Reclaim = reclaim::ebr_policy,
          typename Alloc = lfst::alloc::pool_policy>
class harris_list {
 public:
  using key_type = T;
  using alloc_t = Alloc;
  using domain_t = typename Reclaim::domain_type;
  using guard_t = typename Reclaim::guard_type;
  using node = detail::list_node<T>;

  explicit harris_list(domain_t& domain = Reclaim::default_domain(),
                       Compare cmp = Compare{})
      : domain_(domain), cmp_(cmp) {}

  harris_list(const harris_list&) = delete;
  harris_list& operator=(const harris_list&) = delete;

  ~harris_list() {
    node* n = node::ptr(head_.load(std::memory_order_relaxed));
    while (n != nullptr) {
      node* next = node::ptr(n->next.load(std::memory_order_relaxed));
      node::template destroy<Alloc>(n);
      n = next;
    }
  }

  bool contains(const T& v) const {
    LFST_T_SPAN(::lfst::trace::sid::harris_contains);
    guard_t g(domain_);
  restart:
    node* curr = node::ptr(head_.load(std::memory_order_acquire));
    while (curr != nullptr) {
      // Eviction safe point: a flagged reader re-walks from the head under
      // a fresh pin (every pointer in hand is stale after an eviction).
      if (g.check()) goto restart;
      const std::uintptr_t w = curr->next.load(std::memory_order_acquire);
      if (!node::marked(w)) {
        if (!cmp_(curr->key, v)) return equal(curr->key, v);
      }
      curr = node::ptr(w);
    }
    return false;
  }

  bool add(const T& v) {
    LFST_T_SPAN(::lfst::trace::sid::harris_add);
    guard_t g(domain_);
    backoff bo;
    for (;;) {
      position pos = find(v, g);
      if (pos.found) return false;
      node* fresh = node::template create<Alloc>(v);
      fresh->next.store(node::pack(pos.curr, false),
                        std::memory_order_relaxed);
      std::uintptr_t expected = node::pack(pos.curr, false);
      if (pos.prev_link->compare_exchange_strong(
              expected, node::pack(fresh, false), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        size_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      node::template destroy<Alloc>(fresh);
      LFST_T_RETRY();
      bo();
    }
  }

  bool remove(const T& v) {
    LFST_T_SPAN(::lfst::trace::sid::harris_remove);
    guard_t g(domain_);
    backoff bo;
    for (;;) {
      position pos = find(v, g);
      if (!pos.found) return false;
      node* victim = pos.curr;
      std::uintptr_t w = victim->next.load(std::memory_order_acquire);
      if (node::marked(w)) continue;  // somebody else is removing it
      // Logical removal: mark the victim's next reference (the hallmark of
      // the algorithm; this forbids concurrent insertion after the victim).
      if (!victim->next.compare_exchange_strong(
              w, node::mark(w), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        LFST_T_RETRY();
        bo();
        continue;
      }
      size_.fetch_sub(1, std::memory_order_relaxed);
      // Physical removal: unlink; on failure a traversal will do it.
      std::uintptr_t expected = node::pack(victim, false);
      if (pos.prev_link->compare_exchange_strong(
              expected, node::pack(node::ptr(w), false),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        Reclaim::retire(domain_, victim->template as_retired<Alloc>());
      } else {
        find(v, g);  // help: snips the marked node, retires it there
      }
      return true;
    }
  }

  std::size_t size() const noexcept {
    const auto n = size_.load(std::memory_order_relaxed);
    return n < 0 ? 0 : static_cast<std::size_t>(n);
  }

  bool empty() const noexcept { return size() == 0; }

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
    node* curr = node::ptr(head_.load(std::memory_order_acquire));
    while (curr != nullptr) {
      const std::uintptr_t w = curr->next.load(std::memory_order_acquire);
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

 private:
  struct position {
    std::atomic<std::uintptr_t>* prev_link = nullptr;
    node* curr = nullptr;  // first unmarked node with key >= v (or null)
    bool found = false;
  };

  /// Michael's find: returns the window (prev_link, curr) bracketing v,
  /// physically unlinking (and retiring) every marked node encountered.
  position find(const T& v, guard_t& g) {
  retry:
    std::atomic<std::uintptr_t>* prev_link = &head_;
    node* curr = node::ptr(prev_link->load(std::memory_order_acquire));
    for (;;) {
      if (g.check()) goto retry;  // evicted: the window in hand is stale
      if (curr == nullptr) return position{prev_link, nullptr, false};
      std::uintptr_t w = curr->next.load(std::memory_order_acquire);
      while (node::marked(w)) {
        std::uintptr_t expected = node::pack(curr, false);
        if (!prev_link->compare_exchange_strong(
                expected, node::pack(node::ptr(w), false),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          goto retry;  // prev changed: restart
        }
        Reclaim::retire(domain_, curr->template as_retired<Alloc>());
        curr = node::ptr(w);
        if (curr == nullptr) return position{prev_link, nullptr, false};
        w = curr->next.load(std::memory_order_acquire);
      }
      if (!cmp_(curr->key, v)) {
        return position{prev_link, curr, equal(curr->key, v)};
      }
      prev_link = &curr->next;
      curr = node::ptr(w);
    }
  }

  bool equal(const T& a, const T& b) const {
    return !cmp_(a, b) && !cmp_(b, a);
  }

  domain_t& domain_;
  [[no_unique_address]] Compare cmp_;
  alignas(kFalseSharingRange) mutable std::atomic<std::uintptr_t> head_{0};
  alignas(kFalseSharingRange) std::atomic<std::ptrdiff_t> size_{0};
};

/// Michael's hazard-pointer variant.  The traversal protects prev, curr and
/// next with three hazard slots and re-validates `prev_link` after each
/// publication, per the original paper; this is the canonical consumer of
/// reclaim/hazard.hpp.
template <typename T, typename Compare = std::less<T>,
          typename Alloc = lfst::alloc::pool_policy>
class harris_list_hp {
 public:
  using key_type = T;
  using alloc_t = Alloc;
  using node = detail::list_node<T>;

  explicit harris_list_hp(reclaim::hp_domain& domain = reclaim::hp_domain::global(),
                          Compare cmp = Compare{})
      : domain_(domain), cmp_(cmp) {}

  harris_list_hp(const harris_list_hp&) = delete;
  harris_list_hp& operator=(const harris_list_hp&) = delete;

  ~harris_list_hp() {
    node* n = node::ptr(head_.load(std::memory_order_relaxed));
    while (n != nullptr) {
      node* next = node::ptr(n->next.load(std::memory_order_relaxed));
      node::template destroy<Alloc>(n);
      n = next;
    }
  }

  bool contains(const T& v) const {
    LFST_T_SPAN(::lfst::trace::sid::harris_contains);
    reclaim::hp_domain::holder h(domain_);
    position pos{};
    // contains() uses the full protected find (Michael's paper does the
    // same: an unprotected traversal could dereference freed memory).
    const_cast<harris_list_hp*>(this)->find(v, h, pos);
    return pos.found;
  }

  bool add(const T& v) {
    LFST_T_SPAN(::lfst::trace::sid::harris_add);
    reclaim::hp_domain::holder h(domain_);
    backoff bo;
    for (;;) {
      position pos{};
      find(v, h, pos);
      if (pos.found) return false;
      node* fresh = node::template create<Alloc>(v);
      fresh->next.store(node::pack(pos.curr, false),
                        std::memory_order_relaxed);
      std::uintptr_t expected = node::pack(pos.curr, false);
      if (pos.prev_link->compare_exchange_strong(
              expected, node::pack(fresh, false), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        size_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      node::template destroy<Alloc>(fresh);
      LFST_T_RETRY();
      bo();
    }
  }

  bool remove(const T& v) {
    LFST_T_SPAN(::lfst::trace::sid::harris_remove);
    reclaim::hp_domain::holder h(domain_);
    backoff bo;
    for (;;) {
      position pos{};
      find(v, h, pos);
      if (!pos.found) return false;
      node* victim = pos.curr;
      std::uintptr_t w = victim->next.load(std::memory_order_acquire);
      if (node::marked(w)) continue;
      if (!victim->next.compare_exchange_strong(
              w, node::mark(w), std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        LFST_T_RETRY();
        bo();
        continue;
      }
      size_.fetch_sub(1, std::memory_order_relaxed);
      std::uintptr_t expected = node::pack(victim, false);
      if (pos.prev_link->compare_exchange_strong(
              expected, node::pack(node::ptr(w), false),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        domain_.retire(victim->template as_retired<Alloc>());
      } else {
        position dummy{};
        find(v, h, dummy);
      }
      return true;
    }
  }

  std::size_t size() const noexcept {
    const auto n = size_.load(std::memory_order_relaxed);
    return n < 0 ? 0 : static_cast<std::size_t>(n);
  }

  bool empty() const noexcept { return size() == 0; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_while([&](const T& k) {
      fn(k);
      return true;
    });
  }

  /// Hazard-protected traversal: hops hand-over-hand, protecting each node
  /// before stepping onto it.  If the hop validation fails (the previous
  /// node was marked or relinked -- its frozen next pointer proves
  /// nothing), the walk restarts from the head, skipping keys already
  /// yielded, so visits stay unique and strictly increasing.
  template <typename Fn>
  bool for_each_while(Fn&& fn) const {
    reclaim::hp_domain::holder h(domain_);
    T last{};
    bool have_last = false;
  restart:
    const std::atomic<std::uintptr_t>* prev_link = &head_;
    h.clear(1);
    for (;;) {
      node* curr = node::ptr(prev_link->load(std::memory_order_acquire));
      if (curr == nullptr) return true;
      h.set(0, curr);
      // Full-word re-validation (mark included); see find().
      if (prev_link->load(std::memory_order_acquire) !=
          node::pack(curr, false)) {
        goto restart;
      }
      const std::uintptr_t w = curr->next.load(std::memory_order_acquire);
      if (!node::marked(w)) {
        const T& key = curr->key;
        if (!have_last || cmp_(last, key)) {
          last = key;
          have_last = true;
          if (!fn(key)) return false;
        }
      }
      h.set(1, curr);  // keep a grip on the node we advance from
      prev_link = &curr->next;
    }
  }

  std::size_t count_keys() const {
    std::size_t n = 0;
    for_each([&](const T&) { ++n; });
    return n;
  }

 private:
  struct position {
    std::atomic<std::uintptr_t>* prev_link = nullptr;
    node* curr = nullptr;
    bool found = false;
  };

  /// Michael's protected find.  Hazard slots: 0 = curr, 1 = prev node,
  /// 2 = next (the candidate successor).  After publishing a hazard the
  /// source is re-read; a change restarts.
  void find(const T& v, reclaim::hp_domain::holder& h, position& out) {
  retry:
    std::atomic<std::uintptr_t>* prev_link = &head_;
    h.clear(1);  // prev is the head sentinel (not a node)
    for (;;) {
      node* curr = node::ptr(prev_link->load(std::memory_order_acquire));
      if (curr == nullptr) {
        out = position{prev_link, nullptr, false};
        return;
      }
      h.set(0, curr);
      // Re-validate with the FULL word, mark included (Michael's *prev ==
      // <curr, 0> condition).  A pointer-only compare is unsound: if prev
      // was marked, its frozen next still names curr, but curr may have
      // been unlinked from the live list and already retired+freed.
      if (prev_link->load(std::memory_order_acquire) !=
          node::pack(curr, false)) {
        goto retry;
      }
      const std::uintptr_t w = curr->next.load(std::memory_order_acquire);
      node* next = node::ptr(w);
      if (next != nullptr) h.set(2, next);
      // Re-validate the edge after protecting next.
      if (curr->next.load(std::memory_order_acquire) != w) goto retry;
      if (node::marked(w)) {
        std::uintptr_t expected = node::pack(curr, false);
        if (!prev_link->compare_exchange_strong(
                expected, node::pack(next, false), std::memory_order_acq_rel,
                std::memory_order_acquire)) {
          goto retry;
        }
        domain_.retire(curr->template as_retired<Alloc>());
        continue;  // window unchanged; examine `next` via prev_link re-read
      }
      if (!cmp_(curr->key, v)) {
        out = position{prev_link, curr, equal(curr->key, v)};
        return;
      }
      // Advance: curr becomes prev; rotate hazard 0 -> 1.
      h.set(1, curr);
      prev_link = &curr->next;
    }
  }

  bool equal(const T& a, const T& b) const {
    return !cmp_(a, b) && !cmp_(b, a);
  }

  reclaim::hp_domain& domain_;
  [[no_unique_address]] Compare cmp_;
  alignas(kFalseSharingRange) mutable std::atomic<std::uintptr_t> head_{0};
  alignas(kFalseSharingRange) std::atomic<std::ptrdiff_t> size_{0};
};

}  // namespace lfst::list
