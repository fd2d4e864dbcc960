// Concurrent stress tests of the B-link tree.
#include "blinktree/blink_tree.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace lfst::blinktree {
namespace {

constexpr int kThreads = 8;

blink_tree_options small_nodes(std::size_t m = 4) {
  blink_tree_options o;
  o.min_node_size = m;
  return o;
}

TEST(BlinkTreeConcurrent, DisjointInsertionsWithSplitStorm) {
  blink_tree<long> t(small_nodes(2));  // tiny nodes maximize split frequency
  constexpr long kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const long base = tid * kPerThread;
      for (long i = 0; i < kPerThread; ++i) ASSERT_TRUE(t.add(base + i));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(t.count_keys(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(BlinkTreeConcurrent, InterleavedRangesForceSiblingContention) {
  blink_tree<long> t(small_nodes(2));
  constexpr long kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      // Stride the keys so every thread hits every leaf.
      for (long i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(t.add(i * kThreads + tid));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.count_keys(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(BlinkTreeConcurrent, ContendedSameKeysOneWinner) {
  blink_tree<long> t(small_nodes());
  constexpr long kKeys = 4000;
  std::atomic<long> wins{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&] {
      long w = 0;
      for (long k = 0; k < kKeys; ++k) w += t.add(k);
      wins.fetch_add(w);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wins.load(), kKeys);
  EXPECT_EQ(t.size(), static_cast<std::size_t>(kKeys));
}

TEST(BlinkTreeConcurrent, MixedNetEffectMatchesLogs) {
  blink_tree<long> t(small_nodes(3));
  constexpr long kRange = 3000;
  std::vector<std::vector<int>> deltas(kThreads, std::vector<int>(kRange, 0));
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      xoshiro256ss rng(thread_seed(21, static_cast<std::uint64_t>(tid)));
      for (int i = 0; i < 50000; ++i) {
        const long k = static_cast<long>(rng.below(kRange));
        switch (rng.below(3)) {
          case 0:
            if (t.add(k)) deltas[tid][k] += 1;
            break;
          case 1:
            if (t.remove(k)) deltas[tid][k] -= 1;
            break;
          default:
            t.contains(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::size_t expected = 0;
  for (long k = 0; k < kRange; ++k) {
    int net = 0;
    for (int tid = 0; tid < kThreads; ++tid) net += deltas[tid][k];
    ASSERT_TRUE(net == 0 || net == 1) << k;
    ASSERT_EQ(t.contains(k), net == 1) << k;
    expected += static_cast<std::size_t>(net);
  }
  EXPECT_EQ(t.count_keys(), expected);
}

TEST(BlinkTreeConcurrent, ReadersDuringSplitsAlwaysFindPermanentKeys) {
  blink_tree<long> t(small_nodes(2));
  for (long k = 0; k < 512; ++k) t.add(k * 1000);  // permanent, sparse
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (long k = 0; k < 512; k += 37) {
          if (!t.contains(k * 1000)) misses.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      xoshiro256ss rng(thread_seed(31, static_cast<std::uint64_t>(w)));
      for (int i = 0; i < 40000; ++i) {
        // Writers churn keys strictly between the permanent ones.
        const long k =
            static_cast<long>(rng.below(512)) * 1000 + 1 + static_cast<long>(rng.below(998));
        if (rng.below(2) == 0) {
          t.add(k);
        } else {
          t.remove(k);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0);
}

TEST(BlinkTreeConcurrent, IterationSortedUnderChurn) {
  blink_tree<long> t(small_nodes(2));
  for (long k = 0; k < 1000; ++k) t.add(k);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      long prev = -1;
      t.for_each([&](long k) {
        if (k <= prev) violations.fetch_add(1);
        prev = k;
      });
    }
  });
  std::thread churn([&] {
    xoshiro256ss rng(17);
    for (int i = 0; i < 50000; ++i) {
      const long k = static_cast<long>(rng.below(1000));
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
  EXPECT_EQ(violations.load(), 0);
}

TEST(BlinkTreeConcurrent, ContendedSplitAccountingStaysConsistent) {
  blink_tree<long> t(small_nodes(64));
  constexpr int kWriters = 4;
  std::barrier sync(kWriters);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWriters; ++w) {
    workers.emplace_back([&t, &sync, w] {
      sync.arrive_and_wait();
      // Disjoint but interleaved key stripes: all threads split leaves at
      // the same time, racing on shared parents.
      for (long i = 0; i < 8000; ++i) t.add(i * kWriters + w);
    });
  }
  for (auto& th : workers) th.join();
  const split_stats s = t.stats();
  EXPECT_GT(s.splits, 0u);
  EXPECT_GE(s.root_splits, 1u);
  EXPECT_GT(s.half_split_repairs, 0u);
  // Every split is accounted exactly once no matter the interleaving: a
  // root raise, a repaired half-split, or a half-split abandoned on OOM.
  EXPECT_EQ(s.half_split_repairs + s.half_splits_left,
            s.splits - s.root_splits);
  EXPECT_EQ(t.count_keys(), static_cast<std::size_t>(kWriters) * 8000);
}

}  // namespace
}  // namespace lfst::blinktree
