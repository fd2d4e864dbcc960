// Leaf-level streaming: for_each / ranges / STL-style iterators.
//
// Every leaf walk steps through one `leaf_cursor`.  The cursor moves only
// by following leaf link pointers, one payload snapshot at a time.  A key
// inserted concurrently can land in a successor node at a position the scan
// has already passed (multiway nodes admit front insertions, unlike
// skip-list nodes); such keys are filtered so the visit order stays
// strictly increasing -- the weak-consistency contract says concurrent
// insertions may or may not be observed.  Keys are visited at most once, in
// increasing order.
//
// Each hop is two dependent loads (link -> tree_node -> payload), so the
// cursor also carries a prefetch schedule read off the level-1 parent's
// child array, which holds the addresses of the leaves ahead side by side
// (jump-pointer prefetching; Chen, Gibbons & Mowry, SIGMOD 2001).  The
// schedule only ever prefetches: leaf links alone decide what the walk
// visits, so a stale or split parent costs wasted prefetches, never a
// missed or repeated key.
//
// Callers hold the reclamation guard: everything here walks payload
// snapshots with no protection of its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <iterator>
#include <span>

#include "common/align.hpp"
#include "skiptree/detail/core.hpp"
#include "skiptree/detail/traverse.hpp"

namespace lfst::skiptree::detail {

/// Software-pipelined prefetch of the leaves ahead of a leaf walk.  Each
/// hop takes the next slot of the level-1 parent's child array and
/// prefetches that node header (about kHeaderAhead leaves ahead); the
/// header prefetched kHeaderAhead - kPayloadAhead hops earlier is now
/// kPayloadAhead leaves ahead, so its payload pointer is loaded and the
/// payload's first two lines prefetched.  The pipeline fills one slot per
/// hop.  When the child array runs out the schedule continues on the
/// parent's link successor.
///
/// Safety: the parent snapshot and every payload it reaches are read under
/// the caller's guard; node headers live until the tree does (the arena in
/// core.hpp); a payload pointer loaded here is only prefetched, never
/// dereferenced.
template <typename T>
class leaf_prefetcher {
 public:
  static constexpr std::uint32_t kHeaderAhead = 8;
  static constexpr std::uint32_t kPayloadAhead = 4;

  leaf_prefetcher() = default;

  /// `parent` is the level-1 payload the walk's first leaf hangs off, at
  /// child `slot` (null parent: no schedule).
  leaf_prefetcher(const contents<T>* parent, std::uint32_t slot) noexcept
      : parent_(parent), slot_(slot + kHeaderAhead + 1) {}

  /// One leaf hop's share of the schedule.
  void step() noexcept {
    const tree_node<T>*& due = ring_[head_];
    if (due != nullptr) {
      const auto* p = reinterpret_cast<const char*>(
          due->payload.load(std::memory_order_relaxed));
      lfst::prefetch_ro(p);
      lfst::prefetch_ro(p + 64);
    }
    due = take();
    if (due != nullptr) lfst::prefetch_ro(due);
    head_ = (head_ + 1) % kLag;
  }

 private:
  static constexpr std::uint32_t kLag = kHeaderAhead - kPayloadAhead;

  /// The next child slot of the schedule, moving on to the parent's link
  /// successor when its child array runs out; null past the last parent.
  const tree_node<T>* take() noexcept {
    while (parent_ != nullptr && slot_ >= parent_->logical_len()) {
      slot_ -= parent_->logical_len();
      parent_ = parent_->link == nullptr
                    ? nullptr
                    : parent_->link->payload.load(std::memory_order_acquire);
    }
    return parent_ == nullptr ? nullptr : parent_->children()[slot_++];
  }

  const contents<T>* parent_ = nullptr;
  std::uint32_t slot_ = 0;  ///< next child slot to take from parent_
  std::uint32_t head_ = 0;  ///< ring slot of the oldest prefetched header
  const tree_node<T>* ring_[kLag] = {};
};

/// The cursor every leaf walk steps through: the current leaf payload
/// snapshot, the strictly-increasing filter and the prefetch schedule.
/// Independent of the tree object -- it needs only a comparator and a
/// leaf_entry -- so the facade's iteration_scope can hand out iterators
/// without friendship.
template <typename T, typename Compare>
class leaf_cursor {
 public:
  leaf_cursor() = default;

  /// Start at `at.leaf`, skipping its keys before index `from`.
  leaf_cursor(Compare cmp, const leaf_entry<T>& at, std::uint32_t from = 0)
      : cmp_(cmp),
        cts_(at.leaf),
        first_(from < at.leaf->nkeys ? from : at.leaf->nkeys),
        schedule_(at.parent, at.slot) {}

  /// The current leaf's keys the walk has yet to visit: ascending, and each
  /// greater than every key of the leaves already left.
  std::span<const T> keys() const noexcept {
    return {cts_->keys() + first_, cts_->nkeys - first_};
  }

  /// Leave the current leaf, whose keys() the caller has consumed, for its
  /// link successor.  Returns false at the +inf terminator, which ends the
  /// walk: the cursor is not used after that.
  bool hop() {
    if (first_ < cts_->nkeys) {
      last_ = cts_->max_key();
      have_last_ = true;
    }
    const tree_node<T>* next = cts_->link;
    if (next == nullptr) return false;
    cts_ = next->payload.load(std::memory_order_acquire);
    schedule_.step();
    // A payload snapshot is sorted, so the keys a concurrent insert put
    // behind the walk form a prefix: skip it.
    first_ = 0;
    if (have_last_) {
      while (first_ < cts_->nkeys && !cmp_(last_, cts_->keys()[first_])) {
        ++first_;
      }
    }
    return true;
  }

 private:
  [[no_unique_address]] Compare cmp_{};
  const contents<T>* cts_ = nullptr;
  std::uint32_t first_ = 0;
  bool have_last_ = false;
  T last_{};
  leaf_prefetcher<T> schedule_;
};

/// Forward iterator over the leaf level.
template <typename T, typename Compare>
class leaf_iterator {
 public:
  using value_type = T;
  using reference = const T&;
  using pointer = const T*;
  using difference_type = std::ptrdiff_t;
  using iterator_category = std::forward_iterator_tag;

  leaf_iterator() = default;

  leaf_iterator(Compare cmp, const leaf_entry<T>& at) : cur_(cmp, at) {
    load_leaf();
    advance();
  }

  reference operator*() const { return *pos_; }
  pointer operator->() const { return pos_; }

  leaf_iterator& operator++() {
    ++pos_;
    advance();
    return *this;
  }
  leaf_iterator operator++(int) {
    leaf_iterator old = *this;
    ++(*this);
    return old;
  }

  bool operator==(const leaf_iterator& o) const { return pos_ == o.pos_; }
  bool operator!=(const leaf_iterator& o) const { return !(*this == o); }

 private:
  void load_leaf() {
    const std::span<const T> k = cur_.keys();
    pos_ = k.data();
    end_ = pos_ + k.size();
  }

  /// Settle on the next valid position: hop past exhausted leaves, and
  /// become end() (null position) at the +inf terminator.
  void advance() {
    while (pos_ == end_) {
      if (!cur_.hop()) {
        pos_ = end_ = nullptr;
        return;
      }
      load_leaf();
    }
  }

  leaf_cursor<T, Compare> cur_;
  const T* pos_ = nullptr;
  const T* end_ = nullptr;
};

template <typename Core>
struct iterate_ops {
  using T = typename Core::key_type;
  using cursor_t = leaf_cursor<T, typename Core::compare_t>;

  /// Ascending leaf scan; stops early when `fn` returns false.  Returns
  /// true iff the scan was exhausted.
  template <typename Fn>
  static bool for_each_while(const Core& core, Fn&& fn) {
    cursor_t c(core.cmp, core.leftmost_leaf());
    do {
      for (const T& key : c.keys()) {
        if (!fn(key)) return false;
      }
    } while (c.hop());
    return true;
  }

  /// Visit every member in [lo, hi) in ascending order, weakly
  /// consistently: locate lo's leaf with the descent, then stream
  /// along the leaf level.  Stops early if `fn` returns false; returns true
  /// iff the range was exhausted.  The descent restarts on eviction; the
  /// leaf walk after it has no safe point.
  template <typename Fn, typename Guard>
  static bool for_range(const Core& core, const T& lo, const T& hi, Fn&& fn,
                        Guard& g) {
    const leaf_entry<T> at = traverse_ops<Core>::locate(core, lo, g);
    // The cursor starts at lo's ceiling and only moves right, so every key
    // it yields is >= lo.
    cursor_t c(core.cmp, at, Core::descend_index(at.index));
    do {
      for (const T& key : c.keys()) {
        if (!core.cmp(key, hi)) return true;  // key >= hi: range exhausted
        if (!fn(key)) return false;
      }
    } while (c.hop());
    return true;
  }
};

}  // namespace lfst::skiptree::detail
