// The leaf merge (detail/compact.hpp): remove's cleanup descent merges an
// under-full leaf whose level-1 separator is dead into its successor, in
// three CASes (freeze, copy, empty), so churn cannot thin the leaves far
// below the design width 1/q.
//
//   * Exact shape: one merge on a hand-sized tree, then 8a and 8c unlink
//     the emptied leaf and drop its dead separator.
//   * OOM: a bad_alloc at each of the three steps (a countdown Alloc
//     policy, so this runs in every build) leaves a tree that validates,
//     holds the same set, and whose next writer at the frozen leaf
//     finishes the merge.
//   * Churn width: 16 x size random add/remove pairs at q = 1/32 keep the
//     mean leaf at 1/(4q) keys or more and dead separators below one per
//     16 keys, on one thread and on four.  Without merges the leaves fall
//     to about 5 keys and dead separators to about one per 14 keys.
#include <gtest/gtest.h>

#include <atomic>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alloc/pool.hpp"
#include "common/rng.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst::skiptree {
namespace {

/// Alloc policy whose n-th allocation from `fail_after(n)` on throws
/// bad_alloc, once.
struct countdown_alloc {
  static inline std::atomic<long> countdown{-1};

  static void* allocate(std::size_t bytes, std::size_t align) {
    long c = countdown.load(std::memory_order_relaxed);
    while (c >= 0 && !countdown.compare_exchange_weak(
                         c, c - 1, std::memory_order_relaxed)) {
    }
    if (c == 0) throw std::bad_alloc{};
    return alloc::new_delete_policy::allocate(bytes, align);
  }
  static void deallocate(void* p, std::size_t bytes, std::size_t align) {
    alloc::new_delete_policy::deallocate(p, bytes, align);
  }
  static alloc::alloc_counters counters() noexcept { return {}; }
  static void fail_after(long n) {
    countdown.store(n, std::memory_order_relaxed);
  }
};

using tree_t = skip_tree<int, std::less<int>, reclaim::ebr_policy,
                         countdown_alloc>;
using inspector_t = skip_tree_inspector<int, std::less<int>,
                                        reclaim::ebr_policy, countdown_alloc>;

/// Keys 0..127 bulk-loaded at q = 1/32: four 32-key leaves under one
/// level-1 node with separators {31, 63, 95}.  Then leaf 1 is thinned to
/// the 7 keys {32, 34, ..., 44}, below 1/(4q) = 8, behind the dead
/// separator 63.  No remove on the way saw it below 8 keys, so no merge
/// has run yet.
tree_t thin_leaf_tree(std::set<int>& mirror) {
  std::vector<int> keys;
  for (int k = 0; k < 128; ++k) keys.push_back(k);
  tree_t t = tree_t::from_sorted(keys);
  mirror.insert(keys.begin(), keys.end());
  std::vector<int> gone{63};
  for (int k = 33; k <= 61; k += 2) gone.push_back(k);
  for (int k = 62; k >= 46; k -= 2) gone.push_back(k);
  for (int k : gone) {
    EXPECT_TRUE(t.remove(k));
    mirror.erase(k);
  }
  EXPECT_EQ(t.stats().leaf_merges, 0u);
  EXPECT_EQ(inspector_t(t).level_keys(1), (std::vector<int>{31, 63, 95}));
  return t;
}

void expect_set(const tree_t& t, const std::set<int>& mirror) {
  const inspector_t ins(t);
  const validation_report rep = ins.validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(ins.leaf_set(), std::vector<int>(mirror.begin(), mirror.end()));
  for (int k = -1; k <= 128; ++k) {
    EXPECT_EQ(t.contains(k), mirror.count(k) == 1) << k;
  }
  std::vector<int> seen;
  t.for_each([&](int k) { seen.push_back(k); });
  EXPECT_EQ(seen, std::vector<int>(mirror.begin(), mirror.end()));
}

TEST(LeafMerge, MergesAThinLeafAndDropsItsDeadSeparator) {
  std::set<int> mirror;
  tree_t t = thin_leaf_tree(mirror);

  // Removing the dead separator's own key descends through leaf 1's slot:
  // the merge runs, leaf 0's link is swung past the emptied leaf (8a at
  // the leaf level), and the remove then finds 63 absent.
  EXPECT_FALSE(t.remove(63));
  EXPECT_EQ(t.stats().leaf_merges, 1u);
  EXPECT_EQ(t.stats().empty_bypasses, 1u);
  expect_set(t, mirror);
  const validation_report rep = inspector_t(t).validate();
  EXPECT_EQ(rep.frozen_leaves, 0u);
  EXPECT_EQ(rep.empty_nodes, 0u);
  EXPECT_EQ(rep.nodes_per_level[0], 3u);
  EXPECT_EQ(rep.suboptimal_refs, 1u) << "the parent still names it";

  // The next two descents through the slot bypass the empty leaf in the
  // parent (8a), then drop the separator whose two slots now name one
  // leaf (8c).
  EXPECT_FALSE(t.remove(63));
  EXPECT_FALSE(t.remove(63));
  EXPECT_EQ(inspector_t(t).level_keys(1), (std::vector<int>{31, 95}));
  EXPECT_EQ(t.stats().empty_bypasses, 2u);
  EXPECT_EQ(t.stats().duplicate_drops, 1u);
  const validation_report after = inspector_t(t).validate();
  EXPECT_TRUE(after.ok) << after.to_string();
  EXPECT_EQ(after.dead_separators, 0u);
  EXPECT_EQ(after.suboptimal_refs, 0u);
  EXPECT_EQ(after.headers_reachable, 4u) << "one level-1 node, three leaves";
  expect_set(t, mirror);
}

TEST(LeafMerge, NoMergeWithCompactionOff) {
  std::vector<int> keys;
  for (int k = 0; k < 128; ++k) keys.push_back(k);
  skip_tree_options o;
  o.compaction = false;
  tree_t t = tree_t::from_sorted(keys, o);
  for (int k = 63; k >= 33; --k) t.remove(k);
  EXPECT_FALSE(t.remove(63));
  EXPECT_EQ(t.stats().leaf_merges, 0u);
}

/// The allocation the merge's three steps make, in order: 0 = the frozen
/// copy, 1 = the successor with the keys prepended, 2 = the empty leaf.
class LeafMergeOom : public ::testing::TestWithParam<int> {};

TEST_P(LeafMergeOom, EveryStepLeavesAValidTreeTheNextWriterFinishes) {
  std::set<int> mirror;
  tree_t t = thin_leaf_tree(mirror);
  const int step = GetParam();

  countdown_alloc::fail_after(step);
  EXPECT_FALSE(t.remove(63));  // compaction swallows the bad_alloc
  countdown_alloc::fail_after(-1);
  EXPECT_EQ(t.stats().compactions_skipped, 1u);
  EXPECT_EQ(t.stats().leaf_merges, 0u);
  const validation_report rep = inspector_t(t).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.frozen_leaves, step == 0 ? 0u : 1u);
  // After the copy step the frozen keys also head leaf 2: twice in the
  // leaf chain, once in the set.
  EXPECT_EQ(inspector_t(t).level_keys(0).size(),
            mirror.size() + (step == 2 ? 7u : 0u));
  expect_set(t, mirror);

  if (step > 0) {
    // A writer that needs the frozen leaf and cannot finish the merge
    // fails before its linearization: the set is unchanged.
    countdown_alloc::fail_after(0);
    EXPECT_THROW(t.add(33), std::bad_alloc);
    countdown_alloc::fail_after(-1);
    EXPECT_EQ(inspector_t(t).validate().frozen_leaves, 1u);
    expect_set(t, mirror);
  }

  // The next writer whose CAS target is the frozen leaf finishes the merge,
  // then inserts into the successor.
  EXPECT_TRUE(t.add(33));
  mirror.insert(33);
  EXPECT_EQ(t.stats().leaf_merges, step > 0 ? 1u : 0u);
  EXPECT_EQ(inspector_t(t).validate().frozen_leaves, 0u);
  expect_set(t, mirror);
}

std::string step_name(const ::testing::TestParamInfo<int>& info) {
  constexpr const char* kNames[] = {"Freeze", "Copy", "Empty"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Steps, LeafMergeOom, ::testing::Values(0, 1, 2),
                         step_name);

TEST(LeafMerge, RemoveAndReplaceHelpAFrozenLeaf) {
  for (const bool use_replace : {false, true}) {
    std::set<int> mirror;
    tree_t t = thin_leaf_tree(mirror);
    countdown_alloc::fail_after(1);  // freeze lands, copy fails
    EXPECT_FALSE(t.remove(63));
    countdown_alloc::fail_after(-1);
    ASSERT_EQ(inspector_t(t).validate().frozen_leaves, 1u);
    if (use_replace) {
      EXPECT_TRUE(t.replace(40));
    } else {
      EXPECT_TRUE(t.remove(40));
      mirror.erase(40);
    }
    EXPECT_EQ(t.stats().leaf_merges, 1u);
    EXPECT_EQ(inspector_t(t).validate().frozen_leaves, 0u);
    expect_set(t, mirror);
  }
}

// --- churn width -------------------------------------------------------------

using churn_tree = skip_tree<long>;

constexpr long kChurnSize = 16384;

/// A bulk-loaded tree of about kChurnSize keys: each key of
/// [0, 2 * kChurnSize) with probability 1/2, at most kChurnSize of them.
churn_tree churn_start() {
  xoshiro256ss rng{0x1eafu};
  std::vector<long> keys;
  for (long k = 0; keys.size() < static_cast<std::size_t>(kChurnSize) &&
                  k < 2 * kChurnSize;
       ++k) {
    if (rng.next() & 1u) keys.push_back(k);
  }
  return churn_tree::from_sorted(keys);
}

/// `pairs` random add/remove pairs over [0, 2 * kChurnSize).
void churn(churn_tree& t, long pairs, std::uint64_t seed) {
  xoshiro256ss rng{seed};
  for (long i = 0; i < pairs; ++i) {
    t.add(static_cast<long>(rng.next() % (2 * kChurnSize)));
    t.remove(static_cast<long>(rng.next() % (2 * kChurnSize)));
  }
}

void expect_design_width(const churn_tree& t) {
  const validation_report rep = skip_tree_inspector<long>(t).validate();
  ASSERT_TRUE(rep.ok) << rep.to_string();
  const double min_keys = (1u << skip_tree_options{}.q_log2) / 4.0;  // 1/(4q)
  EXPECT_GE(rep.leaf_keys_mean, min_keys) << rep.to_string();
  EXPECT_LE(rep.dead_separators * 16, t.size()) << rep.to_string();
}

TEST(LeafMergeChurn, SixteenTimesSizePairsKeepTheDesignWidth) {
  churn_tree t = churn_start();
  churn(t, 16 * kChurnSize, 0xc0ffeeu);
  expect_design_width(t);
}

TEST(LeafMergeChurn, SixteenTimesSizePairsOnFourThreads) {
  churn_tree t = churn_start();
  std::vector<std::thread> workers;
  for (std::uint64_t w = 0; w < 4; ++w) {
    workers.emplace_back([&t, w] { churn(t, 4 * kChurnSize, 0xbeef + w); });
  }
  for (std::thread& th : workers) th.join();
  expect_design_width(t);
}

}  // namespace
}  // namespace lfst::skiptree
