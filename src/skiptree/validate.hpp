// Structural validation of a quiescent skip-tree.
//
// Definition 1 of the paper gives five properties (D1)-(D5) that every
// reachable state of the tree must satisfy; Theorem 1 derives per-level
// sortedness from them.  The inspector below checks, on a quiescent tree:
//
//   (D1) every level ends with exactly one +inf element, in its last node;
//   (D2) the leaf level holds no duplicate elements (strictly increasing),
//        once the keys of each frozen leaf (an in-flight leaf merge) are
//        dropped from the head of its first non-empty successor;
//   (T1) every level is non-decreasing;
//   (D3) implied by sortedness + the single +inf terminator;
//   (D4) child references never point past the first lower-level node that
//        can hold a key in their interval (the "target in tail(source)"
//        reachability requirement) -- checked via position monotonicity;
//   plus bookkeeping: the last node of each level has a null link, interior
//   nodes do not, child arrays have logical_len entries, only non-empty,
//   linked, finite leaves are frozen, and the size counter matches the leaf
//   population (a frozen leaf's copies counted once).
//
// The inspector also takes an optimality census (empty nodes, suboptimal
// references, duplicate adjacent references) used by the compaction tests:
// the paper's claim is not that these never occur -- mutations create them
// deliberately -- but that online compaction drives them back down.  The
// census also measures the shape churn leaves behind: dead separators
// (level-1 keys whose leaf copy was removed), the mean leaf width (both of
// which leaf merges hold down), frozen leaves (merges a bad_alloc left in
// flight), and node headers allocated against headers still reachable (the
// arena frees the difference only with the tree).
//
// Quiescence is the caller's contract: validation walks raw pointers with
// no protection against concurrent mutation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "skiptree/skip_tree.hpp"

namespace lfst::skiptree {

/// Result of a structural validation pass.
struct validation_report {
  bool ok = true;
  std::vector<std::string> errors;

  // Optimality census (not errors; see Fig. 7/8 of the paper).
  std::size_t total_nodes = 0;
  std::size_t empty_nodes = 0;
  std::size_t suboptimal_refs = 0;
  std::size_t duplicate_ref_pairs = 0;
  std::vector<std::size_t> nodes_per_level;  // index = level
  std::size_t dead_separators = 0;  ///< level-1 keys with no leaf copy
  double leaf_keys_mean = 0.0;      ///< distinct leaf keys per leaf node
  std::size_t frozen_leaves = 0;    ///< leaves with a merge in flight
  /// Distinct node headers reachable from the top head over links and
  /// child references (bypassed nodes still referenced count too).
  std::size_t headers_reachable = 0;
  /// Length of the tree's arena list: every header ever allocated.  Zero
  /// for raw (tree-less) validations.
  std::size_t headers_allocated = 0;

  /// Live counter snapshot taken when validation fails (post-mortem aid for
  /// chaos runs: what the tree had been doing before it went wrong).  Empty
  /// on success and for raw (tree-less) validations.
  std::string metrics_text;

  void fail(std::string msg) {
    ok = false;
    errors.push_back(std::move(msg));
  }

  std::string to_string() const {
    std::ostringstream os;
    os << (ok ? "VALID" : "INVALID") << ": " << total_nodes << " nodes, "
       << empty_nodes << " empty, " << suboptimal_refs << " suboptimal refs, "
       << duplicate_ref_pairs << " duplicate ref pairs, " << dead_separators
       << " dead separators, " << leaf_keys_mean << " keys per leaf, "
       << frozen_leaves << " frozen leaves, " << headers_reachable
       << " headers reachable";
    if (headers_allocated != 0) os << " of " << headers_allocated;
    for (const std::string& e : errors) os << "\n  error: " << e;
    if (!metrics_text.empty()) os << "\n  metrics: " << metrics_text;
    return os.str();
  }
};

/// White-box access to a quiescent skip_tree for validation and tests.
template <typename T, typename Compare = std::less<T>,
          typename Reclaim = reclaim::ebr_policy,
          typename Alloc = lfst::alloc::pool_policy>
class skip_tree_inspector {
 public:
  using tree_t = skip_tree<T, Compare, Reclaim, Alloc>;
  using contents_t = typename tree_t::contents_t;
  using node_t = typename tree_t::node_t;

  explicit skip_tree_inspector(const tree_t& tree) : tree_(tree) {}

  /// All finite keys at `level`, concatenated in chain order.  At the leaf
  /// level a merge in flight shows its keys twice; `leaf_set` does not.
  std::vector<T> level_keys(int level) const {
    return keys_of(level_chain(level));
  }

  /// The set the leaf level holds: its keys in order, each once.
  std::vector<T> leaf_set() const { return distinct_keys(level_chain(0)); }

  /// Node count at `level`.
  std::size_t level_width(int level) const {
    return level_chain(level).size();
  }

  /// Heap bytes held by the REACHABLE structure (payload blocks plus node
  /// headers); bypassed arena nodes are excluded.  Quiescent callers only.
  std::size_t live_bytes() const {
    const auto* root = tree_.core_.root.load(std::memory_order_acquire);
    std::size_t bytes = sizeof(typename tree_t::head_t);
    for (int level = root->height; level >= 0; --level) {
      for (const node_t* n : level_chain(level)) {
        bytes += sizeof(node_t) + payload(n)->byte_size();
      }
    }
    return bytes;
  }

  /// Full structural validation (quiescent callers only).
  validation_report validate() const {
    const auto* root = tree_.core_.root.load(std::memory_order_acquire);
    validation_report rep = validate_raw(root->node, root->height);
    rep.headers_allocated =
        tree_.core_.arena_len.load(std::memory_order_relaxed);
    // Leaf population vs the size counter (exact when quiescent).
    const std::vector<T> leaf = leaf_set();
    if (leaf.size() != tree_.size()) {
      rep.fail("size() = " + std::to_string(tree_.size()) +
               " but leaf level holds " + std::to_string(leaf.size()) +
               " keys");
    }
    if (!rep.ok) rep.metrics_text = metrics_text();
    return rep;
  }

  /// One-line dump of this tree's structural counters for failure reports.
  std::string metrics_text() const {
    std::ostringstream os;
    const auto snap = tree_.core_.counters.snapshot();
    for (std::size_t i = 0; i < snap.size(); ++i) {
      if (i > 0) os << " ";
      os << tree_counter_name(static_cast<tree_counter>(i)) << "="
         << snap[i];
    }
    return os.str();
  }

  /// Validate a raw (head node, height) pair -- the core of validate(),
  /// usable on hand-built structures (the validator's own tests construct
  /// deliberately broken trees this way).
  static validation_report validate_raw(const node_t* top, int height) {
    validation_report rep;
    if (top == nullptr) {
      rep.fail("head node is null");
      return rep;
    }
    rep.nodes_per_level.assign(static_cast<std::size_t>(height) + 1, 0);
    rep.headers_reachable = count_reachable(top);
    std::vector<const node_t*> level_above;
    std::vector<T> separators;  // level 1's keys, once it has been walked
    for (int level = height; level >= 0; --level) {
      const node_t* head = head_below(top, height, level, &rep);
      if (head == nullptr) return rep;  // corruption reported by head_below
      std::vector<const node_t*> chain = chain_from(head);
      if (chain.empty()) {
        rep.fail("level " + std::to_string(level) + " is empty of nodes");
        return rep;
      }
      rep.nodes_per_level[static_cast<std::size_t>(level)] = chain.size();
      rep.total_nodes += chain.size();
      check_level_shape(rep, chain, level);
      if (level < height) {
        check_child_references(rep, level_above, chain, level + 1);
      }
      if (level == 1) separators = keys_of(chain);
      if (level == 0) census_leaves(rep, chain, separators);
      level_above = std::move(chain);
    }
    return rep;
  }

 private:
  static const contents_t* payload(const node_t* n) {
    return n->payload.load(std::memory_order_acquire);
  }

  std::vector<const node_t*> level_chain(int level) const {
    const auto* root = tree_.core_.root.load(std::memory_order_acquire);
    return chain_from(head_below(root->node, root->height, level, nullptr));
  }

  static std::vector<T> keys_of(const std::vector<const node_t*>& chain) {
    std::vector<T> out;
    for (const node_t* n : chain) {
      const contents_t* c = payload(n);
      out.insert(out.end(), c->keys(), c->keys() + c->nkeys);
    }
    return out;
  }

  /// Nodes reachable from `top` over links and child references.
  static std::size_t count_reachable(const node_t* top) {
    std::unordered_set<const node_t*> seen{top};
    std::vector<const node_t*> todo{top};
    auto visit = [&](const node_t* n) {
      if (n != nullptr && seen.insert(n).second) todo.push_back(n);
    };
    while (!todo.empty()) {
      const contents_t* c = payload(todo.back());
      todo.pop_back();
      if (c == nullptr) continue;  // corrupt: reported by the level walk
      visit(c->link);
      if (!c->leaf) {
        for (const node_t* child : c->child_span()) visit(child);
      }
    }
    return seen.size();
  }

  /// A level's keys in chain order, skipping every key not greater than
  /// the one before it: at the leaf level those are the copies an in-flight
  /// merge put at the head of a frozen leaf's successor (check_level_shape
  /// rejects any other).
  static std::vector<T> distinct_keys(const std::vector<const node_t*>& chain) {
    Compare cmp{};
    std::vector<T> out;
    for (const T& k : keys_of(chain)) {
      if (out.empty() || cmp(out.back(), k)) out.push_back(k);
    }
    return out;
  }

  /// Leaf width and dead separators: a level-1 key whose leaf copy was
  /// removed still routes searches but no longer names a leaf key.
  static void census_leaves(validation_report& rep,
                            const std::vector<const node_t*>& leaves,
                            const std::vector<T>& separators) {
    Compare cmp{};
    const std::vector<T> keys = distinct_keys(leaves);
    rep.leaf_keys_mean =
        static_cast<double>(keys.size()) / static_cast<double>(leaves.size());
    for (const T& k : separators) {
      if (!std::binary_search(keys.begin(), keys.end(), k, cmp)) {
        ++rep.dead_separators;
      }
    }
  }

  /// The chain of nodes making up a level, leftmost first.  Stops before a
  /// node whose payload pointer is null (corrupt tree); the shape checks
  /// then flag the truncated chain via the link-nullity rule.
  static std::vector<const node_t*> chain_from(const node_t* head) {
    std::vector<const node_t*> chain;
    for (const node_t* n = head; n != nullptr; n = payload(n)->link) {
      if (payload(n) == nullptr) break;
      chain.push_back(n);
    }
    return chain;
  }

  /// Descend from the topmost level's head to the head of `level`: the head
  /// of level i-1 is the first child reference of the first non-empty node
  /// at level i.  On a corrupt tree this walk can hit a null link (an
  /// all-empty level with no terminator), a null payload, a leaf posing as
  /// a routing node, or a null child: each is reported into `rep` (when
  /// given) and returned as nullptr instead of being dereferenced -- the
  /// validator exists to report corruption, not to crash on it.
  static const node_t* head_below(const node_t* top, int top_height,
                                  int level, validation_report* rep) {
    const node_t* head = top;
    for (int l = top_height; l > level; --l) {
      const node_t* n = head;
      const contents_t* c;
      for (;;) {
        if (n == nullptr) {
          if (rep != nullptr) {
            rep->fail("level " + std::to_string(l) +
                      " is all-empty with a null final link (D1 violated)");
          }
          return nullptr;
        }
        c = payload(n);
        if (c == nullptr) {
          if (rep != nullptr) {
            rep->fail("null payload pointer at level " + std::to_string(l));
          }
          return nullptr;
        }
        if (c->logical_len() != 0) break;
        n = c->link;
      }
      if (c->leaf) {
        if (rep != nullptr) {
          rep->fail("leaf payload above level 0 (at level " +
                    std::to_string(l) + ")");
        }
        return nullptr;
      }
      head = c->children()[0];
      if (head == nullptr) {
        if (rep != nullptr) {
          rep->fail("null child reference descending from level " +
                    std::to_string(l));
        }
        return nullptr;
      }
    }
    return head;
  }

  static void check_level_shape(validation_report& rep,
                                const std::vector<const node_t*>& chain,
                                int level) {
    Compare cmp{};
    bool have_prev = false;
    T prev{};
    std::size_t inf_count = 0;
    // The last non-empty payload before this one on the level.
    const contents_t* before = nullptr;
    for (std::size_t pos = 0; pos < chain.size(); ++pos) {
      const contents_t* c = payload(chain[pos]);
      if (c->leaf != (level == 0)) {
        rep.fail("node at level " + std::to_string(level) +
                 " has mismatched leaf flag");
      }
      if (c->frozen) {
        ++rep.frozen_leaves;
        if (!c->leaf || c->nkeys == 0 || c->inf || c->link == nullptr) {
          rep.fail("frozen payload at level " + std::to_string(level) +
                   " is not a non-empty, linked, finite leaf");
        }
      }
      if (c->empty()) ++rep.empty_nodes;
      // (D2) for a merge in flight: a frozen leaf's keys may head its first
      // non-empty successor, and are then checked once, there.
      std::uint32_t first = 0;
      if (level == 0 && before != nullptr && before->frozen &&
          c->nkeys >= before->nkeys &&
          std::equal(before->keys(), before->keys() + before->nkeys,
                     c->keys(), [&](const T& a, const T& b) {
                       return !cmp(a, b) && !cmp(b, a);
                     })) {
        first = before->nkeys;
      }
      if (!c->empty()) before = c;
      if (c->inf) {
        ++inf_count;
        if (pos + 1 != chain.size()) {
          rep.fail("+inf element not in the last node of level " +
                   std::to_string(level));
        }
      }
      if ((c->link == nullptr) != (pos + 1 == chain.size())) {
        rep.fail("link nullity does not match chain position at level " +
                 std::to_string(level));
      }
      for (std::uint32_t k = first; k < c->nkeys; ++k) {
        const T& key = c->keys()[k];
        if (have_prev) {
          if (cmp(key, prev)) {
            rep.fail("level " + std::to_string(level) +
                     " keys decrease (Theorem 1 violated)");
          } else if (level == 0 && !cmp(prev, key)) {
            rep.fail("duplicate key at the leaf level (D2 violated)");
          }
        }
        prev = key;
        have_prev = true;
      }
    }
    if (inf_count != 1) {
      rep.fail("level " + std::to_string(level) + " holds " +
               std::to_string(inf_count) + " +inf elements (D1 requires 1)");
    }
  }

  /// D4 as position monotonicity.  For each child slot with lower bound A
  /// (the element to its left, across node boundaries), the slot's target
  /// must sit at or before the first lower-level node holding a key > A:
  /// only then is every key in the slot's interval inside tail(target).
  static void check_child_references(validation_report& rep,
                                     const std::vector<const node_t*>& upper,
                                     const std::vector<const node_t*>& lower,
                                     int upper_level) {
    Compare cmp{};

    // Position index of the lower level; references may legitimately point
    // left of the reachable head (bypassed prefixes), so unknown targets are
    // walked forward until they join the chain and given negative positions.
    std::map<const node_t*, long> pos;
    long next_pos = 0;
    for (const node_t* n : lower) pos[n] = next_pos++;

    // first_pos_greater(A): chain position of the first lower node holding
    // a key > A; the +inf terminator node if none.  A key below the one
    // before it (a merge's copy at the leaf level) is left out: its
    // original sits further left.
    std::vector<std::pair<T, long>> lower_keys;
    for (const node_t* n : lower) {
      const contents_t* c = payload(n);
      for (std::uint32_t k = 0; k < c->nkeys; ++k) {
        if (!lower_keys.empty() &&
            cmp(c->keys()[k], lower_keys.back().first)) {
          continue;
        }
        lower_keys.emplace_back(c->keys()[k], pos[n]);
      }
    }
    const long inf_pos = static_cast<long>(lower.size()) - 1;
    auto first_pos_greater = [&](const T& a) -> long {
      auto it = std::upper_bound(
          lower_keys.begin(), lower_keys.end(), a,
          [&](const T& v, const std::pair<T, long>& e) { return cmp(v, e.first); });
      return it == lower_keys.end() ? inf_pos : it->second;
    };

    auto position_of = [&](const node_t* target) -> long {
      auto it = pos.find(target);
      if (it != pos.end()) return it->second;
      // Walk right until we meet the indexed chain; everything before joins
      // with descending negative positions.
      std::vector<const node_t*> prefix;
      const node_t* n = target;
      while (n != nullptr && pos.find(n) == pos.end()) {
        prefix.push_back(n);
        n = payload(n)->link;
      }
      long base = (n == nullptr) ? inf_pos + 1 : pos[n];
      for (auto rit = prefix.rbegin(); rit != prefix.rend(); ++rit) {
        pos[*rit] = --base;
      }
      return pos[target];
    };

    bool have_lower_bound = false;
    T lower_bound{};
    for (const node_t* n : upper) {
      const contents_t* c = payload(n);
      const std::uint32_t len = c->logical_len();
      const node_t* prev_child = nullptr;
      for (std::uint32_t j = 0; j < len; ++j) {
        const node_t* child = c->children()[j];
        const long child_pos = position_of(child);
        if (have_lower_bound) {
          const long needed = first_pos_greater(lower_bound);
          if (child_pos > needed) {
            rep.fail("level " + std::to_string(upper_level) +
                     " child reference overshoots its interval "
                     "(D4 violated)");
          }
          // Census: the reference is suboptimal when the child's maximum
          // falls entirely left of the slot's lower bound (Fig. 7b).
          const contents_t* cc = payload(child);
          if (cc->empty() ||
              (!cc->inf && cc->nkeys > 0 && cmp(cc->max_key(), lower_bound))) {
            ++rep.suboptimal_refs;
          }
        }
        if (prev_child != nullptr && prev_child == child) {
          ++rep.duplicate_ref_pairs;
        }
        prev_child = child;
        if (j < c->nkeys) {
          lower_bound = c->keys()[j];
          have_lower_bound = true;
        }
      }
    }
  }

  const tree_t& tree_;
};

}  // namespace lfst::skiptree
