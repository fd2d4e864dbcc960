// B-link tree (the paper's `B-link tree` baseline).
//
// Lehman & Yao's concurrent B-tree [16], with Sagiv's simplifications [17]:
// every node carries a high key (a permanent upper bound on its content) and
// a right-sibling link, so a traversal that lands on a node whose range
// moved right -- because the node split after the traversal read its parent
// -- simply "moves right" along links instead of locking ancestors.
//
// The original algorithm assumes a page can be read atomically from disk and
// therefore takes no read locks.  The paper (Sec. V) notes that a
// main-memory adaptation must protect in-place node mutation with shared
// reader-writer locks [21, 22], and observes that these locks become the
// bottleneck when the tree has only a handful of nodes; this implementation
// uses one word-sized reader-writer spinlock per node to reproduce exactly
// that behaviour.  No lock coupling: a reader holds at most one node lock at
// a time; a writer holds at most one write lock per level during a split
// cascade.
//
// Deletion is lazy (keys are removed, nodes never merge), as in Lehman &
// Yao's published algorithm; underflowed nodes are tolerated and never
// deallocated before the tree itself, which is also what makes lock-free
// readers of stale child pointers safe.
//
// Tuned by a single parameter M (the paper's minimum node size; best value
// M = 128): nodes hold at most 2M keys and split in half when they exceed
// that.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "alloc/pool.hpp"
#include "common/align.hpp"
#include "common/backoff.hpp"
#include "common/metrics.hpp"
#include "common/spin_rw_lock.hpp"
#include "common/trace.hpp"
#include "skiptree/detail/kernel.hpp"

namespace lfst::blinktree {

struct blink_tree_options {
  std::size_t min_node_size = 128;  ///< the paper's M; max node size is 2M
};

/// Split accounting, one exact per-tree counter each.  Every split is a
/// root split, a repaired half-split or a half-split left for later (OOM
/// while growing the parent), so repairs + left == splits - root_splits
/// once the writers quiesce.
enum class split_counter : std::uint16_t {
  splits = 0,          ///< node halves published
  root_splits,         ///< splits that installed a new root
  deferred_splits,     ///< splits skipped under OOM (node stays oversized)
  half_split_repairs,  ///< separators inserted into the parent
  half_splits_left,    ///< separators abandoned under OOM (link-reachable)
  kCount
};

struct split_stats {
  std::uint64_t splits = 0;
  std::uint64_t root_splits = 0;
  std::uint64_t deferred_splits = 0;
  std::uint64_t half_split_repairs = 0;
  std::uint64_t half_splits_left = 0;
};

template <typename T, typename Compare = std::less<T>,
          typename Alloc = lfst::alloc::pool_policy>
class blink_tree {
 public:
  using key_type = T;
  using alloc_t = Alloc;

  blink_tree() : blink_tree(blink_tree_options{}) {}

  explicit blink_tree(blink_tree_options opts, Compare cmp = Compare{})
      : opts_(opts), cmp_(cmp) {
    assert(opts_.min_node_size >= 2);
    node* leaf = new_node(/*leaf=*/true, /*level=*/0);
    root_.store(leaf, std::memory_order_release);
  }

  blink_tree(const blink_tree&) = delete;
  blink_tree& operator=(const blink_tree&) = delete;

  /// Quiescent destruction; every node ever allocated is on the arena list.
  ~blink_tree() {
    node* n = arena_.load(std::memory_order_acquire);
    while (n != nullptr) {
      node* next = n->arena_next;
      n->~node();
      Alloc::deallocate(static_cast<void*>(n), sizeof(node), alignof(node));
      n = next;
    }
  }

  // --- operations -------------------------------------------------------------

  bool contains(const T& v) const {
    LFST_T_SPAN(::lfst::trace::sid::blink_contains);
    const node* n = descend_to_leaf(v);
    // Move right at the leaf level, then test membership under a read lock.
    for (;;) {
      shared_guard g(n->lock);
      if (n->has_high && cmp_(n->high, v)) {
        const node* next = n->link;
        g.release();
        n = next;
        continue;
      }
      return search_keys(n->keys, v) >= 0;
    }
  }

  bool add(const T& v) {
    LFST_T_SPAN(::lfst::trace::sid::blink_add);
    node* n = leftmost_write_locked_target(v);
    // n is write-locked and covers v.
    const int i = search_keys(n->keys, v);
    if (i >= 0) {
      n->lock.unlock();
      return false;
    }
    try {
      // Within the reserved capacity this never allocates; a node grown past
      // it by deferred splits may, and vector::insert's strong guarantee
      // leaves the keys untouched on bad_alloc -- unlock and report failure.
      n->keys.insert(
          n->keys.begin() + static_cast<std::ptrdiff_t>(insertion_point(i)),
          v);
    } catch (...) {
      n->lock.unlock();
      throw;
    }
    size_.fetch_add(1, std::memory_order_relaxed);
    if (n->keys.size() <= 2 * opts_.min_node_size) {
      n->lock.unlock();
      return true;
    }
    split_and_propagate(n);  // consumes the write lock on n
    return true;
  }

  bool remove(const T& v) {
    LFST_T_SPAN(::lfst::trace::sid::blink_remove);
    node* n = leftmost_write_locked_target(v);
    const int i = search_keys(n->keys, v);
    const bool found = i >= 0;
    if (found) {
      // Lazy deletion: no merging, no rebalance.
      n->keys.erase(n->keys.begin() + i);
      size_.fetch_sub(1, std::memory_order_relaxed);
    }
    n->lock.unlock();
    return found;
  }

  // --- observers ---------------------------------------------------------------

  std::size_t size() const noexcept {
    const auto n = size_.load(std::memory_order_relaxed);
    return n < 0 ? 0 : static_cast<std::size_t>(n);
  }

  bool empty() const noexcept { return size() == 0; }

  /// Weakly-consistent ascending iteration: per-leaf snapshots are taken
  /// under the read lock, so the permanent high-key bounds make the global
  /// visit order strictly increasing.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_while([&](const T& k) {
      fn(k);
      return true;
    });
  }

  template <typename Fn>
  bool for_each_while(Fn&& fn) const {
    const node* n = leftmost_leaf();
    std::vector<T> snapshot;
    while (n != nullptr) {
      const node* next;
      {
        shared_guard g(n->lock);
        snapshot = n->keys;
        next = n->link;
      }
      for (const T& k : snapshot) {
        if (!fn(k)) return false;
      }
      n = next;
    }
    return true;
  }

  std::size_t count_keys() const {
    std::size_t n = 0;
    for_each([&](const T&) { ++n; });
    return n;
  }

  /// Smallest member >= v.
  bool lower_bound(const T& v, T& out) const {
    const node* n = descend_to_leaf(v);
    for (;;) {
      const node* next;
      {
        shared_guard g(n->lock);
        if (n->has_high && cmp_(n->high, v)) {
          next = n->link;
        } else {
          const std::size_t pos = insertion_point(search_keys(n->keys, v));
          if (pos < n->keys.size()) {
            out = n->keys[pos];
            return true;
          }
          next = n->link;  // ceiling lives in a later leaf (or nowhere)
          if (next == nullptr) return false;
        }
      }
      n = next;
    }
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

  /// Visit members in [lo, hi) ascending; per-leaf snapshots under the read
  /// lock keep the visit order strictly increasing.
  template <typename Fn>
  bool for_range(const T& lo, const T& hi, Fn&& fn) const {
    const node* n = descend_to_leaf(lo);
    std::vector<T> snapshot;
    while (n != nullptr) {
      const node* next;
      {
        shared_guard g(n->lock);
        snapshot = n->keys;
        next = n->link;
      }
      for (const T& k : snapshot) {
        if (cmp_(k, lo)) continue;
        if (!cmp_(k, hi)) return true;
        if (!fn(k)) return false;
      }
      n = next;
    }
    return true;
  }

  const blink_tree_options& options() const noexcept { return opts_; }

  /// Split counters (relaxed; exact once the writers quiesce).
  split_stats stats() const noexcept {
    const auto c = counters_.snapshot();
    return split_stats{c[0], c[1], c[2], c[3], c[4]};
  }

  /// Height of the tree (leaf = 0); grows only when the root splits.
  int height() const noexcept {
    return root_.load(std::memory_order_acquire)->level;
  }

  /// Heap bytes held by all nodes ever allocated (lazy deletion never
  /// frees, so this is also the live footprint).  Quiescent callers only.
  std::size_t memory_footprint() const {
    std::size_t bytes = 0;
    for (const node* n = arena_.load(std::memory_order_acquire); n != nullptr;
         n = n->arena_next) {
      bytes += sizeof(node) + n->keys.capacity() * sizeof(T) +
               n->children.capacity() * sizeof(node*);
    }
    return bytes;
  }

 private:
  struct node {
    mutable spin_rw_lock lock;
    const bool leaf;
    const int level;      // distance from the leaf level
    bool has_high = false;
    T high{};             // permanent upper bound (inclusive) once set
    node* link = nullptr; // right sibling at the same level
    std::vector<T> keys;
    std::vector<node*> children;  // internal only: keys.size() + 1 entries
    node* arena_next = nullptr;

    node(bool is_leaf, int lvl) : leaf(is_leaf), level(lvl) {}
  };

  /// Encoded in-node search over a node's key vector with the skip-tree's
  /// search (skiptree/detail/kernel.hpp): >= 0 found, < 0 encodes
  /// -(insertion point) - 1.
  int search_keys(const std::vector<T>& keys, const T& v) const {
    return skiptree::node_search(
        keys.data(), static_cast<std::uint32_t>(keys.size()), v, cmp_);
  }

  static std::size_t insertion_point(int i) noexcept {
    return static_cast<std::size_t>(i < 0 ? -i - 1 : i);
  }

  /// Node headers come from the Alloc policy; the key/child vectors stay on
  /// the std allocator (they resize in place under the node's write lock).
  /// The arena push happens before the vector reserves so that a bad_alloc
  /// from either reserve cannot leak the header: the node is already owned
  /// by the arena and gets freed with the tree.
  node* new_node(bool leaf, int level) {
    void* raw = Alloc::allocate(sizeof(node), alignof(node));
    node* n = new (raw) node(leaf, level);
    n->arena_next = arena_.load(std::memory_order_relaxed);
    while (!arena_.compare_exchange_weak(n->arena_next, n,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
    n->keys.reserve(2 * opts_.min_node_size + 1);
    if (!leaf) n->children.reserve(2 * opts_.min_node_size + 2);
    return n;
  }

  /// Child index covering `v`: the slot of the first separator >= v (keys
  /// equal to a separator live in its left subtree, because a separator is
  /// the high key of the left node at split time).
  std::size_t child_index(const node* n, const T& v) const {
    return insertion_point(search_keys(n->keys, v));
  }

  /// Read-locked descent from the root to the leaf level, moving right
  /// whenever `v` exceeds a node's high key.  At most one lock is held at a
  /// time (Lehman-Yao's no-coupling property).
  node* descend_to_leaf(const T& v) const { return descend_to_level(v, 0); }

  /// Descend to the node at `level` whose range covers `v`.  Used both for
  /// leaf descents and to find the parent during split propagation.  A
  /// right sibling can briefly exist at the root's own level while the root
  /// split is still publishing the new root; spin until the tree is tall
  /// enough in that (transient) case.
  node* descend_to_level(const T& v, int level) const {
    for (;;) {
      node* n = root_.load(std::memory_order_acquire);
      if (n->level < level) {
        cpu_relax();  // in-flight root growth; the grower holds no locks
        continue;
      }
      while (n->level > level) {
        node* next;
        {
          shared_guard g(n->lock);
          if (n->has_high && cmp_(n->high, v)) {
            next = n->link;
          } else {
            next = n->children[child_index(n, v)];
          }
        }
        n = next;
      }
      return n;
    }
  }

  /// Locate and write-lock the leaf that covers `v` (moving right with the
  /// write lock as needed).  Returns with the lock held.
  node* leftmost_write_locked_target(const T& v) {
    node* n = descend_to_leaf(v);
    n->lock.lock();
    while (n->has_high && cmp_(n->high, v)) {
      node* next = n->link;
      n->lock.unlock();
      next->lock.lock();
      n = next;
    }
    return n;
  }

  /// Move right at `level` with write locks until the node covering `sep`
  /// is held; starts from `start` (already unlocked).
  node* write_lock_covering(node* start, const T& sep) {
    node* n = start;
    n->lock.lock();
    while (n->has_high && cmp_(n->high, sep)) {
      node* next = n->link;
      n->lock.unlock();
      next->lock.lock();
      n = next;
    }
    return n;
  }

  /// Split the write-locked, overfull node `n` and insert the separator in
  /// its parent, cascading as required.  Consumes (releases) `n`'s lock.
  ///
  /// OOM contract: all allocations for a step -- the right sibling, the
  /// prospective new root, and the copies into them -- happen BEFORE any
  /// mutation of `n`, so a bad_alloc simply abandons the split: the node
  /// stays overfull but fully valid (lazy splitting; a later overflow
  /// retries), and the held lock is released rather than leaked.  After
  /// publication nothing can fail except the parent's separator insert,
  /// which is safe to skip entirely: descents recover over the right link
  /// (Lehman-Yao's move-right), the parent merely stays imprecise.
  void split_and_propagate(node* n) {
    for (;;) {
      // Partition: left keeps the lower half and becomes bounded by the new
      // separator forever; right takes the upper half and inherits the old
      // bound and link.  child_index() convention: child i covers keys
      // <= keys[i], so a leaf separator is the left half's max key, and an
      // internal split promotes the middle separator upward.
      const std::size_t mid = n->keys.size() / 2;
      const int parent_level = n->level + 1;
      const bool was_root = (root_.load(std::memory_order_acquire) == n);
      node* right;
      node* new_root = nullptr;
      T separator;
      try {
        right = new_node(n->leaf, n->level);
        if (was_root) {
          // Speculative: if another thread grows the tree first, this node
          // goes unused and is reclaimed with the arena.
          new_root = new_node(/*leaf=*/false, parent_level);
        }
        if (n->leaf) {
          right->keys.assign(
              n->keys.begin() + static_cast<std::ptrdiff_t>(mid),
              n->keys.end());
          separator = n->keys[mid - 1];
        } else {
          separator = n->keys[mid];
          right->keys.assign(
              n->keys.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
              n->keys.end());
          right->children.assign(
              n->children.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
              n->children.end());
        }
      } catch (const std::bad_alloc&) {
        n->lock.unlock();
        counters_.inc(split_counter::deferred_splits);
        return;  // split deferred; n untouched and still valid
      }
      right->has_high = n->has_high;
      right->high = n->high;
      right->link = n->link;
      if (n->leaf) {
        n->keys.resize(mid);
      } else {
        n->keys.resize(mid);
        n->children.resize(mid + 1);
      }
      n->link = right;
      n->has_high = true;
      n->high = separator;
      n->lock.unlock();
      counters_.inc(split_counter::splits);

      // Insert (separator -> right) into the parent level.
      if (was_root) {
        std::lock_guard<std::mutex> g(root_mutex_);
        if (root_.load(std::memory_order_acquire) == n) {
          new_root->keys.push_back(separator);
          new_root->children.push_back(n);
          new_root->children.push_back(right);
          root_.store(new_root, std::memory_order_release);
          counters_.inc(split_counter::root_splits);
          return;
        }
        // Someone grew the tree first: fall through to the generic path.
      }
      node* parent = descend_to_level(separator, parent_level);
      parent = write_lock_covering(parent, separator);
      const std::size_t idx = child_index(parent, separator);
      try {
        // Reserve both vectors up front so the two inserts below cannot
        // fail between each other and leave keys/children out of step.
        parent->keys.reserve(parent->keys.size() + 1);
        parent->children.reserve(parent->children.size() + 1);
      } catch (const std::bad_alloc&) {
        parent->lock.unlock();
        counters_.inc(split_counter::half_splits_left);
        return;  // half-split: right stays reachable via n's link
      }
      parent->keys.insert(
          parent->keys.begin() + static_cast<std::ptrdiff_t>(idx),
          separator);
      parent->children.insert(
          parent->children.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
          right);
      counters_.inc(split_counter::half_split_repairs);
      if (parent->keys.size() <= 2 * opts_.min_node_size) {
        parent->lock.unlock();
        return;
      }
      n = parent;  // cascade
    }
  }

  const node* leftmost_leaf() const {
    const node* n = root_.load(std::memory_order_acquire);
    while (!n->leaf) {
      const node* next;
      {
        shared_guard g(n->lock);
        next = n->children.front();
      }
      n = next;
    }
    return n;
  }

  blink_tree_options opts_;
  [[no_unique_address]] Compare cmp_;
  std::mutex root_mutex_;  // serializes root replacement only
  alignas(kFalseSharingRange) std::atomic<node*> root_{nullptr};
  alignas(kFalseSharingRange) std::atomic<node*> arena_{nullptr};
  alignas(kFalseSharingRange) std::atomic<std::ptrdiff_t> size_{0};
  alignas(kFalseSharingRange) metrics::instance_counters<split_counter>
      counters_;
};

}  // namespace lfst::blinktree
