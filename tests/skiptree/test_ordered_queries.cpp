// Tests for the skip-tree's ordered queries: lower_bound, first, for_range.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "skiptree/skip_tree.hpp"

namespace lfst::skiptree {
namespace {

using tree_t = skip_tree<long>;

TEST(SkipTreeOrdered, LowerBoundOnEmptyTree) {
  tree_t t;
  long out = 0;
  EXPECT_FALSE(t.lower_bound(5, out));
}

TEST(SkipTreeOrdered, LowerBoundExactAndCeiling) {
  tree_t t;
  for (long k : {10, 20, 30}) t.add(k);
  long out = 0;
  ASSERT_TRUE(t.lower_bound(20, out));
  EXPECT_EQ(out, 20);
  ASSERT_TRUE(t.lower_bound(15, out));
  EXPECT_EQ(out, 20);
  ASSERT_TRUE(t.lower_bound(-100, out));
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(t.lower_bound(31, out));
  ASSERT_TRUE(t.lower_bound(30, out));
  EXPECT_EQ(out, 30);
}

TEST(SkipTreeOrdered, LowerBoundMatchesStdSetExhaustively) {
  tree_t t;
  std::set<long> oracle;
  xoshiro256ss rng(88);
  for (int i = 0; i < 5000; ++i) {
    const long k = static_cast<long>(rng.below(20000));
    t.add(k);
    oracle.insert(k);
  }
  for (int i = 0; i < 5000; ++i) t.remove(static_cast<long>(rng.below(20000)));
  for (long k : std::vector<long>(oracle.begin(), oracle.end())) {
    if (!t.contains(k)) oracle.erase(k);
  }
  for (long probe = 0; probe < 20000; probe += 7) {
    long out = 0;
    const bool got = t.lower_bound(probe, out);
    auto it = oracle.lower_bound(probe);
    ASSERT_EQ(got, it != oracle.end()) << probe;
    if (got) {
      ASSERT_EQ(out, *it) << probe;
    }
  }
}

TEST(SkipTreeOrdered, LowerBoundCrossesNodeBoundaries) {
  // Deterministic heights force many leaf nodes; probes at every boundary.
  tree_t t;
  for (long k = 0; k < 512; ++k) {
    t.add_with_height(k * 2, k % 4 == 0 ? 1 : 0);
  }
  long out = 0;
  for (long k = 0; k < 511; ++k) {
    ASSERT_TRUE(t.lower_bound(k * 2 + 1, out)) << k;
    EXPECT_EQ(out, (k + 1) * 2) << k;
  }
}

TEST(SkipTreeOrdered, FirstOnEmptyAndNonEmpty) {
  tree_t t;
  long out = 0;
  EXPECT_FALSE(t.first(out));
  t.add(42);
  t.add(7);
  ASSERT_TRUE(t.first(out));
  EXPECT_EQ(out, 7);
  t.remove(7);
  ASSERT_TRUE(t.first(out));
  EXPECT_EQ(out, 42);
}

TEST(SkipTreeOrdered, ForRangeBasicWindow) {
  tree_t t;
  for (long k = 0; k < 100; ++k) t.add(k);
  std::vector<long> seen;
  EXPECT_TRUE(t.for_range(25, 30, [&](long k) {
    seen.push_back(k);
    return true;
  }));
  EXPECT_EQ(seen, (std::vector<long>{25, 26, 27, 28, 29}));
}

TEST(SkipTreeOrdered, ForRangeEmptyWindowAndMisses) {
  tree_t t;
  for (long k = 0; k < 100; k += 10) t.add(k);
  std::vector<long> seen;
  t.for_range(41, 49, [&](long k) {
    seen.push_back(k);
    return true;
  });
  EXPECT_TRUE(seen.empty());
  t.for_range(35, 65, [&](long k) {
    seen.push_back(k);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<long>{40, 50, 60}));
}

TEST(SkipTreeOrdered, ForRangeEarlyExit) {
  tree_t t;
  for (long k = 0; k < 1000; ++k) t.add(k);
  int visited = 0;
  const bool exhausted = t.for_range(100, 900, [&](long) {
    return ++visited < 5;
  });
  EXPECT_FALSE(exhausted);
  EXPECT_EQ(visited, 5);
}

TEST(SkipTreeOrdered, ForRangeSpansManyLeafNodes) {
  tree_t t;
  for (long k = 0; k < 2048; ++k) {
    t.add_with_height(k, k % 8 == 0 ? 1 : 0);  // many leaf splits
  }
  long expect = 100;
  std::size_t n = 0;
  EXPECT_TRUE(t.for_range(100, 2000, [&](long k) {
    EXPECT_EQ(k, expect);
    ++expect;
    ++n;
    return true;
  }));
  EXPECT_EQ(n, 1900u);
}

TEST(SkipTreeOrdered, ForRangeMatchesOracleOnRandomSets) {
  tree_t t;
  std::set<long> oracle;
  xoshiro256ss rng(123);
  for (int i = 0; i < 4000; ++i) {
    const long k = static_cast<long>(rng.below(10000));
    t.add(k);
    oracle.insert(k);
  }
  for (int trial = 0; trial < 50; ++trial) {
    const long lo = static_cast<long>(rng.below(10000));
    const long hi = lo + static_cast<long>(rng.below(2000));
    std::vector<long> got;
    t.for_range(lo, hi, [&](long k) {
      got.push_back(k);
      return true;
    });
    std::vector<long> want(oracle.lower_bound(lo), oracle.lower_bound(hi));
    ASSERT_EQ(got, want) << "[" << lo << ", " << hi << ")";
  }
}

TEST(SkipTreeOrdered, QueriesUnderConcurrentChurn) {
  tree_t t;
  for (long k = 0; k < 1000; k += 2) t.add(k * 100);  // permanent evens
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      long out = 0;
      // The ceiling of a permanent key is itself, no matter the churn.
      for (long k = 0; k < 1000; k += 100) {
        if (!t.lower_bound(k * 100, out) || out > k * 100 + 99) {
          errors.fetch_add(1);
        }
      }
      // Range scans over churn stay sorted and in-window, and report all
      // 200 permanent evens (multiples of 200) in [10000, 50000).
      long prev = -1;
      int evens = 0;
      t.for_range(10000, 50000, [&](long k) {
        if (k < 10000 || k >= 50000 || k <= prev) errors.fetch_add(1);
        if (k % 200 == 0) ++evens;
        prev = k;
        return true;
      });
      if (evens != 200) errors.fetch_add(1);
    }
  });
  std::thread churn([&] {
    xoshiro256ss rng(9);
    for (int i = 0; i < 60000; ++i) {
      const long k = (2 * static_cast<long>(rng.below(500)) + 1) * 100;
      if (rng.below(2) == 0) {
        t.add(k);
      } else {
        t.remove(k);
      }
    }
    stop.store(true, std::memory_order_release);
  });
  churn.join();
  reader.join();
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace lfst::skiptree
