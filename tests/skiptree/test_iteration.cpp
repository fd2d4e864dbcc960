// Tests for weakly-consistent iteration (the operation Figure 10 measures).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "skiptree/skip_tree.hpp"

namespace lfst::skiptree {
namespace {

using tree_t = skip_tree<long>;

TEST(SkipTreeIteration, EmptyTreeVisitsNothing) {
  tree_t t;
  int n = 0;
  t.for_each([&](long) { ++n; });
  EXPECT_EQ(n, 0);
}

TEST(SkipTreeIteration, VisitsExactlyTheMembers) {
  tree_t t;
  std::set<long> expected;
  xoshiro256ss rng(5);
  for (int i = 0; i < 5000; ++i) {
    const long k = static_cast<long>(rng.below(100000));
    t.add(k);
    expected.insert(k);
  }
  std::vector<long> visited;
  t.for_each([&](long k) { visited.push_back(k); });
  EXPECT_EQ(visited.size(), expected.size());
  EXPECT_TRUE(std::equal(visited.begin(), visited.end(), expected.begin()));
}

TEST(SkipTreeIteration, SnapshotKeysNotRemovedDuringScanAreSeen) {
  // Weak-consistency contract: a key present for the whole duration of the
  // scan must be reported (matching ConcurrentSkipListSet's guarantee).
  // Checked for all three leaf walks -- for_each, for_range and the
  // iteration_scope iterators -- at the default width and at q = 1/4, where
  // a scan crosses a level-1 parent every few leaves while churn splits
  // those parents under the cursor's prefetch schedule.
  for (const int q_log2 : {5, 2}) {
    SCOPED_TRACE(testing::Message() << "q_log2 = " << q_log2);
    skip_tree_options o;
    o.q_log2 = q_log2;
    tree_t t(o);
    for (long k = 0; k < 1000; ++k) t.add(k * 2);  // evens stay put
    std::atomic<bool> stop{false};
    constexpr const char* kWalks[] = {"for_each", "for_range",
                                      "iteration_scope"};
    int misses[3] = {};  // read after the join

    std::thread iterator_thread([&] {
      xoshiro256ss rng(17);
      std::vector<long> seen;
      seen.reserve(2100);
      // At least one scan per walk, even if the churn finishes first.
      for (int round = 0; round < 3 || !stop.load(std::memory_order_acquire);
           ++round) {
        const int walk = round % 3;
        seen.clear();
        // Permanent evens the walk must report: all 1000 in [0, 2000), or
        // the 500 in for_range's window [lo, lo + 1000).
        long lo = 0;
        long hi = 2000;
        long expected = 1000;
        if (walk == 0) {
          t.for_each([&](long k) { seen.push_back(k); });
        } else if (walk == 1) {
          lo = static_cast<long>(rng.below(1000));
          hi = lo + 1000;
          expected = 500;
          t.for_range(lo, hi, [&](long k) {
            seen.push_back(k);
            return true;
          });
        } else {
          tree_t::iteration_scope scope(t);
          for (long k : scope) seen.push_back(k);
        }
        const bool ascending =
            std::adjacent_find(seen.begin(), seen.end(),
                               std::greater_equal<long>()) == seen.end();
        const long found = std::count_if(seen.begin(), seen.end(),
                                         [](long k) { return k % 2 == 0; });
        const bool in_window =
            seen.empty() || (seen.front() >= lo && seen.back() < hi);
        if (!ascending || !in_window || found != expected) ++misses[walk];
      }
    });
    std::thread churn([&] {
      xoshiro256ss rng(11);
      for (int i = 0; i < 60000; ++i) {
        const long k = 2 * static_cast<long>(rng.below(1000)) + 1;  // odds
        if (rng.below(2) == 0) {
          t.add(k);
        } else {
          t.remove(k);
        }
      }
      stop.store(true, std::memory_order_release);
    });
    churn.join();
    iterator_thread.join();
    for (int w = 0; w < 3; ++w) EXPECT_EQ(misses[w], 0) << kWalks[w];
  }
}

TEST(SkipTreeIteration, IterationIsStrictlyIncreasingUnderChurn) {
  tree_t t;
  for (long k = 0; k < 2000; ++k) t.add(k);
  std::atomic<bool> stop{false};
  std::atomic<int> order_violations{0};
  std::thread it([&] {
    while (!stop.load(std::memory_order_acquire)) {
      long prev = -1;
      t.for_each([&](long k) {
        if (k <= prev) order_violations.fetch_add(1);
        prev = k;
      });
    }
  });
  std::thread churn([&] {
    xoshiro256ss rng(13);
    for (int i = 0; i < 80000; ++i) {
      const long k = static_cast<long>(rng.below(2000));
      if (rng.below(2) == 0) {
        t.remove(k);
      } else {
        t.add(k);
      }
    }
    stop.store(true, std::memory_order_release);
  });
  churn.join();
  it.join();
  EXPECT_EQ(order_violations.load(), 0);
}

TEST(SkipTreeIteration, ForEachWhileShortCircuitUnderConcurrency) {
  tree_t t;
  for (long k = 0; k < 10000; ++k) t.add(k);
  int visited = 0;
  t.for_each_while([&](long) { return ++visited < 100; });
  EXPECT_EQ(visited, 100);
}

TEST(SkipTreeIteration, FullScanThroughputSmoke) {
  // Sanity check that a full scan touches every element once (the metric
  // the Figure 10 bench reports as elements/ms).
  tree_t t;
  constexpr long kN = 100000;
  for (long k = 0; k < kN; ++k) t.add(k);
  std::size_t count = 0;
  t.for_each([&](long) { ++count; });
  EXPECT_EQ(count, static_cast<std::size_t>(kN));
}

}  // namespace
}  // namespace lfst::skiptree
