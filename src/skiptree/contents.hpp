// Immutable node payloads for the lock-free skip-tree.
//
// The paper's Java declaration (Fig. 3) gives each Node a single volatile
// reference to a Contents object holding {items[], children[], link}.  All
// mutation is done by building a fresh Contents and compare-and-swapping the
// node's reference, so a Contents is immutable once published.
//
// This port packs a Contents into ONE variable-length heap block:
//
//     [ header | keys[nkeys] | children[nkeys + inf] (routing only) ]
//
// which both matches the cache-conscious motivation of the paper (a node's
// items are contiguous; a search touches one or two cache lines instead of a
// pointer chase per element) and makes the CAS-retire lifecycle trivial: one
// allocation, one type-erased deleter.
//
// The +infinity element.  Property (D1) requires every level to end with a
// single +inf element.  Rather than widening the key type, `inf` records an
// implicit trailing +inf *logical* element: it takes no key storage but
// counts toward `logical_len()` and owns a child slot.  Binary search over
// the finite keys then behaves exactly like the paper's code: the "past the
// end of the node, follow the link" condition `(-i - 1) == items.length`
// becomes `insertion_point == logical_len()`, which is unreachable in a node
// holding +inf, exactly as v < +inf makes it unreachable in the paper.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <type_traits>

#include "alloc/pool.hpp"
#include "common/align.hpp"
#include "common/failpoint.hpp"
#include "reclaim/retired.hpp"

namespace lfst::skiptree {

template <typename T>
struct tree_node;

/// Immutable payload of a skip-tree node.  Never mutate after publication;
/// build a fresh one with the `make_*` / `copy_*` factories and CAS it in.
template <typename T>
struct contents {
  using node_t = tree_node<T>;

  node_t* link;        ///< successor at the same level; null only in the last node
  std::uint32_t nkeys; ///< number of finite keys stored
  bool inf;            ///< logical trailing +infinity element present
  bool leaf;           ///< leaf payloads have no child array
  /// Leaf being merged into its successor (compact.hpp): only the merge's
  /// last step may replace a frozen payload.  Sits in the header padding.
  bool frozen;

  /// Number of logical elements: finite keys plus the +inf pseudo-element.
  std::uint32_t logical_len() const noexcept {
    return nkeys + static_cast<std::uint32_t>(inf);
  }

  /// An empty node: no elements at all.  Insertion into an empty node is
  /// forbidden (Sec. III-C); empty nodes are bypassed by compaction.
  bool empty() const noexcept { return logical_len() == 0; }

  T* keys() noexcept {
    return std::launder(reinterpret_cast<T*>(
        reinterpret_cast<std::byte*>(this) + keys_offset()));
  }
  const T* keys() const noexcept {
    return std::launder(reinterpret_cast<const T*>(
        reinterpret_cast<const std::byte*>(this) + keys_offset()));
  }

  node_t** children() noexcept {
    assert(!leaf);
    return std::launder(reinterpret_cast<node_t**>(
        reinterpret_cast<std::byte*>(this) + children_offset(nkeys)));
  }
  node_t* const* children() const noexcept {
    assert(!leaf);
    return std::launder(reinterpret_cast<node_t* const*>(
        reinterpret_cast<const std::byte*>(this) + children_offset(nkeys)));
  }

  std::span<const T> key_span() const noexcept { return {keys(), nkeys}; }
  std::span<node_t* const> child_span() const noexcept {
    return {children(), logical_len()};
  }

  /// The greatest finite key; requires nkeys > 0.  (If `inf` is set the
  /// node's true maximum is +infinity, which callers check separately.)
  const T& max_key() const noexcept {
    assert(nkeys > 0);
    return keys()[nkeys - 1];
  }

  /// Heap footprint of this payload block (diagnostics).
  std::size_t byte_size() const noexcept {
    return total_size(nkeys, inf, leaf);
  }

  // --- allocation ----------------------------------------------------------
  //
  // Every entry point below is templated on an allocation policy (see
  // alloc/pool.hpp) with the plain heap as the default, so hand-built
  // payloads in tests keep working unchanged.  `destroy` recomputes the
  // block's (bytes, align) from its header, so no size prefix is stored and
  // the type-erased reclamation deleter `&destroy_erased<Alloc>` carries
  // the policy in its instantiation rather than in per-block state.

  /// Allocate an uninitialized block for `nkeys` keys.  Keys must be
  /// placement-constructed by the caller before publication.
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* allocate(std::uint32_t nkeys, bool inf, bool leaf,
                            node_t* link) {
    LFST_FP_ALLOC("skiptree.alloc.contents");
    const std::size_t bytes = total_size(nkeys, inf, leaf);
    void* raw = Alloc::allocate(bytes, alloc_align());
    auto* c = new (raw) contents;
    c->link = link;
    c->nkeys = nkeys;
    c->inf = inf;
    c->leaf = leaf;
    c->frozen = false;
    return c;
  }

  /// Destroy a contents block (runs key destructors).  Used both directly
  /// (for blocks that were never published) and via `deleter` (for blocks
  /// retired through a reclamation domain).
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static void destroy(contents* c) noexcept {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::uint32_t i = 0; i < c->nkeys; ++i) c->keys()[i].~T();
    }
    const std::size_t bytes = c->byte_size();
    c->~contents();
    Alloc::deallocate(static_cast<void*>(c), bytes, alloc_align());
  }

  template <typename Alloc = lfst::alloc::new_delete_policy>
  static void destroy_erased(void* p) noexcept {
    destroy<Alloc>(static_cast<contents*>(p));
  }

  template <typename Alloc = lfst::alloc::new_delete_policy>
  reclaim::retired_block as_retired() noexcept {
    return reclaim::retired_block{this, &contents::destroy_erased<Alloc>,
                                  byte_size()};
  }

  // --- factories -----------------------------------------------------------

  /// The payload of the initial tree: one leaf containing only +inf.
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* make_initial_leaf() {
    return allocate<Alloc>(0, /*inf=*/true, /*leaf=*/true, /*link=*/nullptr);
  }

  /// Routing payload with explicit keys/children (children.size() must be
  /// keys.size() + inf).
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* make_routing(std::span<const T> ks,
                                std::span<node_t* const> cs, bool inf,
                                node_t* link) {
    assert(cs.size() == ks.size() + (inf ? 1u : 0u));
    contents* c = allocate<Alloc>(static_cast<std::uint32_t>(ks.size()), inf,
                           /*leaf=*/false, link);
    std::uninitialized_copy(ks.begin(), ks.end(), c->keys());
    std::copy(cs.begin(), cs.end(), c->children());
    return c;
  }

  /// Leaf payload with explicit keys.
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* make_leaf(std::span<const T> ks, bool inf, node_t* link) {
    contents* c = allocate<Alloc>(static_cast<std::uint32_t>(ks.size()), inf,
                           /*leaf=*/true, link);
    std::uninitialized_copy(ks.begin(), ks.end(), c->keys());
    return c;
  }

  /// Copy of `src` with `key` inserted at index `pos` (leaf insert).
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_leaf_insert(const contents& src, std::uint32_t pos,
                                    const T& key) {
    assert(src.leaf && pos <= src.nkeys);
    contents* c = allocate<Alloc>(src.nkeys + 1, src.inf, true, src.link);
    copy_keys_with_insert(src, *c, pos, key);
    return c;
  }

  /// Copy of `src` with the key at `pos` removed (leaf erase).
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_leaf_erase(const contents& src, std::uint32_t pos) {
    assert(src.leaf && pos < src.nkeys);
    contents* c = allocate<Alloc>(src.nkeys - 1, src.inf, true, src.link);
    copy_keys_with_erase(src, *c, pos);
    return c;
  }

  /// Copy of `src` with the key at `pos` overwritten by `key`.  Caller's
  /// contract: `key` is order-equivalent to the element it replaces (used
  /// by the map layer to update a value without moving the entry).
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_leaf_assign(const contents& src, std::uint32_t pos,
                                    const T& key) {
    assert(src.leaf && pos < src.nkeys);
    contents* c = allocate<Alloc>(src.nkeys, src.inf, true, src.link);
    std::uninitialized_copy(src.keys(), src.keys() + src.nkeys, c->keys());
    c->keys()[pos] = key;
    return c;
  }

  /// Copy of `src` (routing) with `key` inserted at index `pos` and
  /// `right_child` inserted at child slot `pos + 1`.  This is the add() case
  /// (Sec. III-C): the old child at `pos` becomes the reference shared by
  /// the predecessor element and the new key (it is the left partition of
  /// the split below), and `right_child` is the reference shared by the new
  /// key and its successor element.
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_routing_insert(const contents& src, std::uint32_t pos,
                                       const T& key, node_t* right_child) {
    assert(!src.leaf && pos <= src.nkeys);
    contents* c = allocate<Alloc>(src.nkeys + 1, src.inf, false, src.link);
    copy_keys_with_insert(src, *c, pos, key);
    node_t* const* sc = src.children();
    node_t** dc = c->children();
    std::copy(sc, sc + pos + 1, dc);
    dc[pos + 1] = right_child;
    std::copy(sc + pos + 1, sc + src.logical_len(), dc + pos + 2);
    return c;
  }

  /// Left partition of a split at key index `pos`: keys [0, pos], child
  /// slots [0, pos], link set to the new right node, +inf never retained
  /// (it moves to the right partition).
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_split_left(const contents& src, std::uint32_t pos,
                                   node_t* right_node) {
    assert(pos < src.nkeys);
    contents* c = allocate<Alloc>(pos + 1, /*inf=*/false, src.leaf, right_node);
    std::uninitialized_copy(src.keys(), src.keys() + pos + 1, c->keys());
    if (!src.leaf) {
      std::copy(src.children(), src.children() + pos + 1, c->children());
    }
    return c;
  }

  /// Right partition of a split at key index `pos`: keys (pos, nkeys), child
  /// slots (pos, logical_len), inherits `src`'s +inf flag and link.
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_split_right(const contents& src, std::uint32_t pos) {
    assert(pos < src.nkeys);
    const std::uint32_t n = src.nkeys - pos - 1;
    contents* c = allocate<Alloc>(n, src.inf, src.leaf, src.link);
    std::uninitialized_copy(src.keys() + pos + 1, src.keys() + src.nkeys,
                            c->keys());
    if (!src.leaf) {
      std::copy(src.children() + pos + 1, src.children() + src.logical_len(),
                c->children());
    }
    return c;
  }

  /// Copy of `src` with its link replaced (empty-successor bypass, Fig. 8a).
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_with_link(const contents& src, node_t* new_link) {
    contents* c = allocate<Alloc>(src.nkeys, src.inf, src.leaf, new_link);
    std::uninitialized_copy(src.keys(), src.keys() + src.nkeys, c->keys());
    if (!src.leaf) {
      std::copy(src.children(), src.children() + src.logical_len(),
                c->children());
    }
    return c;
  }

  /// Frozen copy of leaf `src` (leaf merge, step 1).
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_frozen(const contents& src) {
    assert(src.leaf);
    contents* c = copy_with_link<Alloc>(src, src.link);
    c->frozen = true;
    return c;
  }

  /// Copy of leaf `src` with `ks` prepended (leaf merge, step 2).  Every
  /// key of `ks` must precede every key of `src`.
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_leaf_prepend(const contents& src,
                                     std::span<const T> ks) {
    assert(src.leaf);
    const auto n = static_cast<std::uint32_t>(ks.size());
    contents* c = allocate<Alloc>(n + src.nkeys, src.inf, true, src.link);
    std::uninitialized_copy(ks.begin(), ks.end(), c->keys());
    std::uninitialized_copy(src.keys(), src.keys() + src.nkeys,
                            c->keys() + n);
    return c;
  }

  /// Copy of `src` with child slot `pos` replaced (empty-child bypass and
  /// suboptimal-reference repair, Fig. 8a/8b).
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_with_child(const contents& src, std::uint32_t pos,
                                   node_t* new_child) {
    assert(!src.leaf && pos < src.logical_len());
    contents* c = copy_with_link<Alloc>(src, src.link);
    c->children()[pos] = new_child;
    return c;
  }

  /// Duplicate-child elimination (Fig. 8c): drop key `j` and child slot
  /// `j + 1`; requires children[j] == children[j+1] so the retained slot `j`
  /// covers the merged interval.
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_drop_key_child(const contents& src, std::uint32_t j) {
    assert(!src.leaf && j < src.nkeys);
    assert(j + 1 < src.logical_len());
    contents* c = allocate<Alloc>(src.nkeys - 1, src.inf, false, src.link);
    copy_keys_with_erase(src, *c, j);
    node_t* const* sc = src.children();
    node_t** dc = c->children();
    std::copy(sc, sc + j + 1, dc);
    std::copy(sc + j + 2, sc + src.logical_len(), dc + j + 1);
    return c;
  }

  /// Element-migration source update (Fig. 8d): remove key `j` together
  /// with ITS OWN child slot `j` (the (key, child) pair was copied to the
  /// successor node first).  Keeping the left neighbour slot preserves
  /// reachability: descents may land one node early and recover over links,
  /// but never early enough to skip keys.
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_erase_key_own_child(const contents& src,
                                            std::uint32_t j) {
    assert(!src.leaf && j < src.nkeys);
    contents* c = allocate<Alloc>(src.nkeys - 1, src.inf, false, src.link);
    copy_keys_with_erase(src, *c, j);
    node_t* const* sc = src.children();
    node_t** dc = c->children();
    std::copy(sc, sc + j, dc);
    std::copy(sc + j + 1, sc + src.logical_len(), dc + j);
    return c;
  }

  /// Element-migration destination update (Fig. 8d): prepend (key, child).
  /// Valid because routing levels tolerate duplicate elements (Theorem 1)
  /// and `key` precedes every element of `src` in level order.
  template <typename Alloc = lfst::alloc::new_delete_policy>
  static contents* copy_prepend(const contents& src, const T& key,
                                node_t* child) {
    assert(!src.leaf);
    contents* c = allocate<Alloc>(src.nkeys + 1, src.inf, false, src.link);
    copy_keys_with_insert(src, *c, 0, key);
    node_t* const* sc = src.children();
    node_t** dc = c->children();
    dc[0] = child;
    std::copy(sc, sc + src.logical_len(), dc + 1);
    return c;
  }

  /// Byte offset of keys()[0] from the payload start.
  static constexpr std::size_t keys_offset() noexcept {
    return align_up(sizeof(contents), alignof(T));
  }

  /// Bytes of a payload with `nkeys` keys: [header | keys | children].
  static constexpr std::size_t total_size(std::uint32_t nkeys, bool inf,
                                          bool leaf) noexcept {
    if (leaf) return keys_offset() + sizeof(T) * nkeys;
    return children_offset(nkeys) +
           sizeof(node_t*) * (nkeys + (inf ? 1u : 0u));
  }

 private:
  static void copy_keys_with_insert(const contents& src, contents& dst,
                                    std::uint32_t pos, const T& key) {
    std::uninitialized_copy(src.keys(), src.keys() + pos, dst.keys());
    new (static_cast<void*>(dst.keys() + pos)) T(key);
    std::uninitialized_copy(src.keys() + pos, src.keys() + src.nkeys,
                            dst.keys() + pos + 1);
  }

  static void copy_keys_with_erase(const contents& src, contents& dst,
                                   std::uint32_t pos) {
    std::uninitialized_copy(src.keys(), src.keys() + pos, dst.keys());
    std::uninitialized_copy(src.keys() + pos + 1, src.keys() + src.nkeys,
                            dst.keys() + pos);
  }

  static constexpr std::size_t alloc_align() noexcept {
    std::size_t a = alignof(contents);
    if (alignof(T) > a) a = alignof(T);
    if (alignof(node_t*) > a) a = alignof(node_t*);
    return a;
  }

  static constexpr std::size_t children_offset(std::uint32_t nkeys) noexcept {
    return align_up(keys_offset() + sizeof(T) * nkeys, alignof(node_t*));
  }
};

static_assert(sizeof(contents<int>) == 16, "a payload header is 16 bytes");

/// A skip-tree node: one atomic payload pointer.  Nodes never move between
/// levels after creation (Sec. III-A).  `arena_next` threads every node a
/// tree has ever allocated onto a lock-free list so the tree destructor can
/// reclaim nodes that compaction bypassed (see DESIGN.md Sec. 3: this
/// replaces the JVM collector for node objects, while payloads are reclaimed
/// eagerly through the epoch domain).
template <typename T>
struct tree_node {
  std::atomic<contents<T>*> payload{nullptr};
  tree_node* arena_next = nullptr;
};

/// Root descriptor (paper Fig. 3: HeadNode): the first node of the topmost
/// level plus that level's height.  Swapped wholesale by CAS when the root
/// height grows.
template <typename T>
struct head_node {
  tree_node<T>* node;
  int height;
};

}  // namespace lfst::skiptree
