// Concurrent stress tests of the skip-tree.
//
// Strategy (phased linearizability checking): threads run operation storms
// and log their *successful* add/remove effects; after joining, the final
// membership must equal the net effect of the logs, and the structure must
// validate.  Disjoint-key-range tests additionally give each thread an
// exactly predictable outcome.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst::skiptree {
namespace {

using tree_t = skip_tree<long>;
using inspector_t = skip_tree_inspector<long>;

constexpr int kThreads = 8;

TEST(SkipTreeConcurrent, DisjointRangeInsertions) {
  tree_t t;
  constexpr long kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const long base = tid * kPerThread;
      for (long i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(t.add(base + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(t.count_keys(), static_cast<std::size_t>(kThreads) * kPerThread);
  auto rep = inspector_t(t).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST(SkipTreeConcurrent, DisjointRangeInsertThenRemove) {
  tree_t t;
  constexpr long kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const long base = tid * kPerThread;
      for (long i = 0; i < kPerThread; ++i) ASSERT_TRUE(t.add(base + i));
      for (long i = 0; i < kPerThread; i += 2) ASSERT_TRUE(t.remove(base + i));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.size(), static_cast<std::size_t>(kThreads) * kPerThread / 2);
  for (long k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_EQ(t.contains(k), k % 2 == 1) << k;
  }
  EXPECT_TRUE(inspector_t(t).validate().ok);
}

TEST(SkipTreeConcurrent, ContendedSameKeysExactlyOneWinner) {
  // All threads race to add the same keys; exactly one add per key may
  // succeed.  Then all race to remove; exactly one remove per key succeeds.
  tree_t t;
  constexpr long kKeys = 5000;
  std::atomic<long> add_wins{0};
  std::atomic<long> remove_wins{0};
  {
    std::vector<std::thread> threads;
    for (int tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&] {
        long wins = 0;
        for (long k = 0; k < kKeys; ++k) wins += t.add(k);
        add_wins.fetch_add(wins);
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(add_wins.load(), kKeys);
  EXPECT_EQ(t.size(), static_cast<std::size_t>(kKeys));
  {
    std::vector<std::thread> threads;
    for (int tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&] {
        long wins = 0;
        for (long k = 0; k < kKeys; ++k) wins += t.remove(k);
        remove_wins.fetch_add(wins);
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(remove_wins.load(), kKeys);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(inspector_t(t).validate().ok);
}

TEST(SkipTreeConcurrent, MixedWorkloadNetEffectMatchesLogs) {
  tree_t t;
  constexpr long kRange = 4000;
  constexpr int kOpsPerThread = 60000;
  // per-thread delta log: +1 for successful add, -1 for successful remove
  std::vector<std::vector<int>> deltas(kThreads,
                                       std::vector<int>(kRange, 0));
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      xoshiro256ss rng(thread_seed(42, static_cast<std::uint64_t>(tid)));
      for (int i = 0; i < kOpsPerThread; ++i) {
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

  std::size_t expected_size = 0;
  for (long k = 0; k < kRange; ++k) {
    int net = 0;
    for (int tid = 0; tid < kThreads; ++tid) net += deltas[tid][k];
    ASSERT_TRUE(net == 0 || net == 1) << "key " << k << " net " << net;
    ASSERT_EQ(t.contains(k), net == 1) << "key " << k;
    expected_size += static_cast<std::size_t>(net);
  }
  EXPECT_EQ(t.size(), expected_size);
  EXPECT_EQ(t.count_keys(), expected_size);
  auto rep = inspector_t(t).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST(SkipTreeConcurrent, ReadersDuringChurnNeverCrashOrMisorder) {
  tree_t t;
  for (long k = 0; k < 2000; k += 2) t.add(k);  // evens are permanent
  std::atomic<bool> stop{false};
  std::atomic<long> reader_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // Permanent keys must always be visible...
        for (long k = 0; k < 2000; k += 400) {
          if (!t.contains(k)) reader_errors.fetch_add(1);
        }
        // ...and iteration must stay strictly increasing.
        long prev = -1;
        bool sorted = true;
        t.for_each([&](long k) {
          if (k <= prev) sorted = false;
          prev = k;
        });
        if (!sorted) reader_errors.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      xoshiro256ss rng(thread_seed(7, static_cast<std::uint64_t>(w)));
      for (int i = 0; i < 40000; ++i) {
        const long k = 1 + 2 * static_cast<long>(rng.below(1000));  // odds
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
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_TRUE(inspector_t(t).validate().ok);
}

TEST(SkipTreeConcurrent, HighContentionOnTinyKeyRange) {
  // The paper's 500-key scenario in miniature: heavy CAS contention on a
  // handful of nodes.
  tree_t t;
  constexpr long kRange = 16;
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      xoshiro256ss rng(thread_seed(99, static_cast<std::uint64_t>(tid)));
      for (int i = 0; i < 50000; ++i) {
        const long k = static_cast<long>(rng.below(kRange));
        if (rng.below(2) == 0) {
          t.add(k);
        } else {
          t.remove(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  auto rep = inspector_t(t).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_LE(t.count_keys(), static_cast<std::size_t>(kRange));
}

TEST(SkipTreeConcurrent, ConcurrentAddsOfSameTallElement) {
  // Raising the same key from many threads exercises split/insert races at
  // routing levels.
  // A thread may add, remove and re-add before another thread's first add
  // runs, so several first adds can win; what must hold is the net effect:
  // successful adds minus successful removes is the final membership (1).
  for (int round = 0; round < 20; ++round) {
    tree_t t;
    std::atomic<int> adds{0};
    std::atomic<int> removes{0};
    std::vector<std::thread> threads;
    for (int tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&] {
        if (t.add(12345)) adds.fetch_add(1);
        if (t.remove(12345)) removes.fetch_add(1);
        if (t.add(12345)) adds.fetch_add(1);
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_GE(adds.load(), 1);
    EXPECT_EQ(adds.load() - removes.load(), 1);
    EXPECT_TRUE(t.contains(12345));
    auto rep = inspector_t(t).validate();
    ASSERT_TRUE(rep.ok) << "round " << round << ": " << rep.to_string();
  }
}

TEST(SkipTreeConcurrent, StressSurvivesManyEpochsOfReclamation) {
  // Enough churn to cycle the EBR epochs thousands of times; any
  // use-after-free in the payload lifecycle shows up here (and under ASan).
  tree_t t;
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      xoshiro256ss rng(thread_seed(1234, static_cast<std::uint64_t>(tid)));
      for (int i = 0; i < 120000; ++i) {
        const long k = static_cast<long>(rng.below(512));
        switch (i % 3) {
          case 0: t.add(k); break;
          case 1: t.remove(k); break;
          default: t.contains(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(inspector_t(t).validate().ok);
}

}  // namespace
}  // namespace lfst::skiptree
