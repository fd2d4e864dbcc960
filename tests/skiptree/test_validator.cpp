// Negative tests for the structural validator: hand-built trees with
// deliberate violations of Definition 1 must be flagged.  (The positive
// cases -- real trees validating -- are covered throughout the other test
// files; a validator that cannot FAIL proves nothing.)
#include <gtest/gtest.h>

#include <vector>

#include "skiptree/validate.hpp"

namespace lfst::skiptree {
namespace {

using C = contents<int>;
using N = tree_node<int>;
using inspector = skip_tree_inspector<int>;

/// Owns hand-built nodes/payloads for a test case.
struct builder {
  std::vector<N*> nodes;

  N* node(C* c) {
    N* n = new N;
    n->payload.store(c, std::memory_order_relaxed);
    nodes.push_back(n);
    return n;
  }

  ~builder() {
    for (N* n : nodes) {
      C::destroy(n->payload.load(std::memory_order_relaxed));
      delete n;
    }
  }
};

TEST(ValidatorNegative, AcceptsMinimalValidTree) {
  builder b;
  N* leaf = b.node(C::make_initial_leaf());
  auto rep = inspector::validate_raw(leaf, 0);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.total_nodes, 1u);
}

TEST(ValidatorNegative, AcceptsTwoLevelValidTree) {
  builder b;
  const int right_keys[] = {30};
  N* right = b.node(C::make_leaf(right_keys, /*inf=*/true, nullptr));
  const int left_keys[] = {10, 20};
  N* left = b.node(C::make_leaf(left_keys, /*inf=*/false, right));
  const int root_keys[] = {20};
  N* children[] = {left, right};
  N* root = b.node(C::make_routing(root_keys, children, /*inf=*/true, nullptr));
  auto rep = inspector::validate_raw(root, 1);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST(ValidatorNegative, FlagsDecreasingKeysInLevel) {
  builder b;
  const int ks[] = {30, 10};  // decreasing: violates Theorem 1
  N* leaf = b.node(C::make_leaf(ks, true, nullptr));
  auto rep = inspector::validate_raw(leaf, 0);
  EXPECT_FALSE(rep.ok);
}

TEST(ValidatorNegative, FlagsDuplicateLeafKeys) {
  builder b;
  const int ks[] = {7, 7};  // duplicate at the leaf: violates D2
  N* leaf = b.node(C::make_leaf(ks, true, nullptr));
  auto rep = inspector::validate_raw(leaf, 0);
  EXPECT_FALSE(rep.ok);
}

/// Two leaves under one routing node: {10, 20} (frozen if asked), then
/// `right_keys` with +inf.  The frozen leaf is a leaf merge between its
/// copy step and its empty step when `right_keys` starts with 10, 20.
validation_report two_leaves(const std::vector<int>& right_keys,
                             bool frozen) {
  builder b;
  N* right = b.node(C::make_leaf(right_keys, /*inf=*/true, nullptr));
  const int left_keys[] = {10, 20};
  C* lc = C::make_leaf(left_keys, /*inf=*/false, right);
  lc->frozen = frozen;
  N* left = b.node(lc);
  const int root_keys[] = {20};
  N* children[] = {left, right};
  N* root = b.node(C::make_routing(root_keys, children, /*inf=*/true, nullptr));
  return inspector::validate_raw(root, 1);
}

TEST(ValidatorNegative, FrozenLeafKeysMayHeadItsSuccessorOnlyWhole) {
  const validation_report copied = two_leaves({10, 20, 30}, true);
  EXPECT_TRUE(copied.ok) << copied.to_string();
  EXPECT_EQ(copied.frozen_leaves, 1u);
  EXPECT_DOUBLE_EQ(copied.leaf_keys_mean, 1.5) << "the copies count once";
  const validation_report not_yet = two_leaves({30}, true);
  EXPECT_TRUE(not_yet.ok) << not_yet.to_string();
  EXPECT_EQ(not_yet.frozen_leaves, 1u);

  EXPECT_FALSE(two_leaves({10, 20, 30}, false).ok)
      << "duplicates behind a leaf that is not frozen violate D2";
  EXPECT_FALSE(two_leaves({20, 30}, true).ok)
      << "a partial copy is not a merge step";
}

TEST(ValidatorNegative, FlagsFrozenTerminatorLeaf) {
  builder b;
  C* c = C::make_leaf(std::vector<int>{1, 2}, /*inf=*/true, nullptr);
  c->frozen = true;  // the +inf leaf never merges
  auto rep = inspector::validate_raw(b.node(c), 0);
  EXPECT_FALSE(rep.ok);
}

TEST(ValidatorNegative, FlagsMissingInfinity) {
  builder b;
  const int ks[] = {1, 2};
  N* leaf = b.node(C::make_leaf(ks, /*inf=*/false, nullptr));  // no +inf: D1
  auto rep = inspector::validate_raw(leaf, 0);
  EXPECT_FALSE(rep.ok);
}

TEST(ValidatorNegative, FlagsDoubleInfinity) {
  builder b;
  const int rk[] = {9};
  N* last = b.node(C::make_leaf(rk, /*inf=*/true, nullptr));
  const int lk[] = {1};
  N* first = b.node(C::make_leaf(lk, /*inf=*/true, last));  // inner +inf: D1
  auto rep = inspector::validate_raw(first, 0);
  EXPECT_FALSE(rep.ok);
}

TEST(ValidatorNegative, FlagsNullLinkOnInteriorNode) {
  builder b;
  const int rk[] = {9};
  N* last = b.node(C::make_leaf(rk, true, nullptr));
  const int lk[] = {1};
  // Interior node with a null link: the chain ends before the +inf node,
  // which shows up as a missing +inf on the walked level.
  N* first = b.node(C::make_leaf(lk, false, nullptr));
  (void)last;
  auto rep = inspector::validate_raw(first, 0);
  EXPECT_FALSE(rep.ok);
}

TEST(ValidatorNegative, FlagsChildReferenceOvershoot) {
  // Level 0: [10, 20 | 30, +inf].  Root keys [10, 25, +inf]: the slot for
  // (10, 25] must reach key 20, which lives in the LEFT leaf; pointing it
  // at the right leaf skips key 20 -- "target in tail(source)" (D4) is
  // violated.  (Slot 0 cannot overshoot by construction: it defines where
  // the validator's level walk starts.)
  builder b;
  const int right_keys[] = {30};
  N* right = b.node(C::make_leaf(right_keys, true, nullptr));
  const int left_keys[] = {10, 20};
  N* left = b.node(C::make_leaf(left_keys, false, right));
  const int root_keys[] = {10, 25};
  N* bad_children[] = {left, right, right};  // slot 1 overshoots
  N* root = b.node(C::make_routing(root_keys, bad_children, true, nullptr));
  auto rep = inspector::validate_raw(root, 1);
  EXPECT_FALSE(rep.ok) << rep.to_string();
}

TEST(ValidatorNegative, CensusCountsEmptyAndSuboptimal) {
  // Valid but degraded tree: an empty leaf node and a suboptimal reference.
  builder b;
  const int rk[] = {30};
  N* last = b.node(C::make_leaf(rk, true, nullptr));
  N* empty = b.node(C::make_leaf({}, false, last));
  const int lk[] = {10};
  N* first = b.node(C::make_leaf(lk, false, empty));
  // Root: keys [10, +inf]; slot 0 covers (-inf,10] -> first; slot 1 covers
  // (10, +inf] -> first is suboptimal (max(first)=10 < ... not less).
  // Point slot 1 at `first` whose max 10 < lower bound 10? Need strict <:
  // use root key 20 so slot 1's bound is 20 and target max is 10.
  const int root_keys[] = {20};
  N* children[] = {first, first};
  N* root = b.node(C::make_routing(root_keys, children, true, nullptr));
  auto rep = inspector::validate_raw(root, 1);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.empty_nodes, 1u);
  EXPECT_GE(rep.suboptimal_refs, 1u);
}

TEST(ValidatorNegative, CensusMeasuresShapeOfHandBuiltTree) {
  // Leaves [10, 20] -> [30, +inf]; level 1 routes on 20 and on 25, whose
  // leaf copy is gone: one dead separator, 3 keys over 2 leaves.
  builder b;
  const int right_keys[] = {30};
  N* right = b.node(C::make_leaf(right_keys, /*inf=*/true, nullptr));
  const int left_keys[] = {10, 20};
  N* left = b.node(C::make_leaf(left_keys, /*inf=*/false, right));
  const int root_keys[] = {20, 25};
  N* children[] = {left, right, right};
  N* root = b.node(C::make_routing(root_keys, children, /*inf=*/true, nullptr));
  auto rep = inspector::validate_raw(root, 1);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.dead_separators, 1u);
  EXPECT_DOUBLE_EQ(rep.leaf_keys_mean, 1.5);
  EXPECT_EQ(rep.headers_reachable, 3u);
  EXPECT_EQ(rep.headers_allocated, 0u) << "a raw structure has no arena";
}

TEST(ValidatorNegative, ReportToStringMentionsErrors) {
  builder b;
  const int ks[] = {5, 5};
  N* leaf = b.node(C::make_leaf(ks, true, nullptr));
  auto rep = inspector::validate_raw(leaf, 0);
  ASSERT_FALSE(rep.ok);
  EXPECT_NE(rep.to_string().find("INVALID"), std::string::npos);
  EXPECT_NE(rep.to_string().find("error"), std::string::npos);
}

// Corrupt trees that used to CRASH the validator (null dereference in the
// head_below descent) must instead fail into the report -- a validator that
// exists to report corruption must not die on it.

TEST(ValidatorCorrupt, NullHeadNodeFailsGracefully) {
  auto rep = inspector::validate_raw(nullptr, 0);
  EXPECT_FALSE(rep.ok);
}

TEST(ValidatorCorrupt, AllEmptyLevelWithNullLinkFailsGracefully) {
  // A height-1 tree whose single routing node is empty AND has a null link:
  // the old head_below skip loop dereferenced the null link looking for a
  // non-empty node to descend from.
  builder b;
  N* root = b.node(C::make_routing(std::span<const int>{},
                                   std::span<N* const>{},
                                   /*inf=*/false, /*link=*/nullptr));
  auto rep = inspector::validate_raw(root, 1);
  EXPECT_FALSE(rep.ok);
  bool mentions_link = false;
  for (const auto& e : rep.errors) {
    if (e.find("null final link") != std::string::npos) mentions_link = true;
  }
  EXPECT_TRUE(mentions_link) << rep.to_string();
}

TEST(ValidatorCorrupt, NullPayloadFailsGracefully) {
  // A node whose payload pointer is null (e.g. torn construction).  Not
  // registered with the builder: it owns no payload to destroy.
  N bare;
  auto rep = inspector::validate_raw(&bare, 0);
  EXPECT_FALSE(rep.ok);
}

TEST(ValidatorCorrupt, NullPayloadDuringDescentFailsGracefully) {
  // Descent from a height-1 root to level 0 crosses a node with a null
  // payload: must be reported, not dereferenced.
  builder b;
  N bare;  // null payload; stack-owned
  const int root_keys[] = {10};
  N* children[] = {&bare, &bare};
  N* root = b.node(C::make_routing(root_keys, children, true, nullptr));
  auto rep = inspector::validate_raw(root, 1);
  EXPECT_FALSE(rep.ok);
}

TEST(ValidatorCorrupt, LeafPayloadAboveLevelZeroFailsGracefully) {
  // A height-1 tree whose "routing" root is actually a leaf payload: the
  // old descent called children() on it (UB on a leaf block).
  builder b;
  const int ks[] = {10};
  N* root = b.node(C::make_leaf(ks, /*inf=*/true, nullptr));
  auto rep = inspector::validate_raw(root, 1);
  EXPECT_FALSE(rep.ok);
  bool mentions_leaf = false;
  for (const auto& e : rep.errors) {
    if (e.find("leaf payload above level 0") != std::string::npos) {
      mentions_leaf = true;
    }
  }
  EXPECT_TRUE(mentions_leaf) << rep.to_string();
}

TEST(ValidatorCorrupt, NullChildReferenceFailsGracefully) {
  builder b;
  const int root_keys[] = {10};
  N* children[] = {nullptr, nullptr};  // descent target is null
  N* root = b.node(C::make_routing(root_keys, children, true, nullptr));
  auto rep = inspector::validate_raw(root, 1);
  EXPECT_FALSE(rep.ok);
  bool mentions_child = false;
  for (const auto& e : rep.errors) {
    if (e.find("null child reference") != std::string::npos) {
      mentions_child = true;
    }
  }
  EXPECT_TRUE(mentions_child) << rep.to_string();
}

}  // namespace
}  // namespace lfst::skiptree
