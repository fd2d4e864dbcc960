// Sequential tests of the B-link tree baseline.
#include "blinktree/blink_tree.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/ordered_set.hpp"

namespace lfst::blinktree {
namespace {

static_assert(lfst::concurrent_ordered_set<blink_tree<int>>);

blink_tree_options small_nodes(std::size_t m = 4) {
  blink_tree_options o;
  o.min_node_size = m;
  return o;
}

TEST(BlinkTreeBasic, EmptyTree) {
  blink_tree<int> t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.contains(1));
  EXPECT_FALSE(t.remove(1));
  EXPECT_EQ(t.height(), 0);
}

TEST(BlinkTreeBasic, AddContainsRemove) {
  blink_tree<int> t;
  EXPECT_TRUE(t.add(5));
  EXPECT_FALSE(t.add(5));
  EXPECT_TRUE(t.contains(5));
  EXPECT_TRUE(t.remove(5));
  EXPECT_FALSE(t.contains(5));
}

TEST(BlinkTreeBasic, LeafSplitKeepsAllKeysFindable) {
  blink_tree<int> t(small_nodes());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(t.add(i));
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(t.contains(i)) << i;
  EXPECT_GT(t.height(), 0);  // the root must have split
}

TEST(BlinkTreeBasic, InternalSplitCascades) {
  blink_tree<int> t(small_nodes(2));
  // M=2 means max 4 keys/node: 1000 ascending inserts force multi-level
  // cascading splits.
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(t.add(i));
  EXPECT_GE(t.height(), 3);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(t.contains(i)) << i;
  EXPECT_FALSE(t.contains(1000));
  EXPECT_FALSE(t.contains(-1));
}

TEST(BlinkTreeBasic, DescendingInsertions) {
  blink_tree<int> t(small_nodes());
  for (int i = 999; i >= 0; --i) ASSERT_TRUE(t.add(i));
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(t.contains(i)) << i;
  EXPECT_EQ(t.size(), 1000u);
}

TEST(BlinkTreeBasic, SeparatorBoundaryKeys) {
  // Keys equal to separators must stay findable on the left side.
  blink_tree<int> t(small_nodes(2));
  for (int i = 0; i < 64; ++i) t.add(i * 2);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(t.contains(i * 2)) << i * 2;
    EXPECT_FALSE(t.contains(i * 2 + 1)) << i * 2 + 1;
  }
}

TEST(BlinkTreeBasic, LazyDeletionKeepsStructureUsable) {
  blink_tree<int> t(small_nodes());
  for (int i = 0; i < 500; ++i) t.add(i);
  for (int i = 0; i < 500; i += 2) ASSERT_TRUE(t.remove(i));
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(t.contains(i), i % 2 == 1) << i;
  }
  // Underflowed (even empty) leaves tolerated; re-adding works.
  for (int i = 0; i < 500; i += 2) ASSERT_TRUE(t.add(i));
  EXPECT_EQ(t.size(), 500u);
}

TEST(BlinkTreeBasic, MatchesStdSetUnderRandomOps) {
  blink_tree<int> t(small_nodes(3));
  std::set<int> oracle;
  std::mt19937 rng(4242);
  std::uniform_int_distribution<int> key(0, 400);
  std::uniform_int_distribution<int> op(0, 2);
  for (int i = 0; i < 50000; ++i) {
    const int k = key(rng);
    switch (op(rng)) {
      case 0:
        ASSERT_EQ(t.add(k), oracle.insert(k).second) << "add " << k;
        break;
      case 1:
        ASSERT_EQ(t.remove(k), oracle.erase(k) != 0) << "rm " << k;
        break;
      default:
        ASSERT_EQ(t.contains(k), oracle.count(k) != 0) << "has " << k;
    }
  }
  EXPECT_EQ(t.size(), oracle.size());
  EXPECT_EQ(t.count_keys(), oracle.size());
}

TEST(BlinkTreeBasic, ForEachSortedComplete) {
  blink_tree<int> t(small_nodes());
  std::vector<int> keys{42, 7, 19, 3, 88, 21, 64};
  for (int k : keys) t.add(k);
  std::vector<int> seen;
  t.for_each([&](int k) { seen.push_back(k); });
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(seen, keys);
}

TEST(BlinkTreeBasic, StringKeys) {
  blink_tree<std::string> t(small_nodes());
  t.add("delta");
  t.add("alpha");
  t.add("echo");
  EXPECT_TRUE(t.contains("alpha"));
  EXPECT_TRUE(t.remove("delta"));
  std::vector<std::string> seen;
  t.for_each([&](const std::string& s) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<std::string>{"alpha", "echo"}));
}

TEST(BlinkTreeBasic, PaperDefaultParameterM128) {
  blink_tree<int> t;  // M = 128, the paper's best value
  EXPECT_EQ(t.options().min_node_size, 128u);
  for (int i = 0; i < 5000; ++i) t.add(i);
  EXPECT_LE(t.height(), 2);  // wide nodes keep the tree shallow
  EXPECT_EQ(t.count_keys(), 5000u);
}

TEST(BlinkTreeBasic, SplitCountersAccountForEverySplit) {
  blink_tree_options o;
  o.min_node_size = 128;  // small nodes so a modest load forces splits
  blink_tree<long> t(o);
  for (long k = 0; k < 5000; ++k) t.add(k);
  const split_stats s = t.stats();
  EXPECT_GT(s.splits, 0u);
  EXPECT_GT(s.root_splits, 0u);
  EXPECT_EQ(s.deferred_splits, 0u);
  EXPECT_EQ(s.half_splits_left, 0u);
  // Single-threaded and without OOM, every non-root split is repaired into
  // its parent immediately.
  EXPECT_EQ(s.half_split_repairs, s.splits - s.root_splits);
}

}  // namespace
}  // namespace lfst::blinktree
