// Tests for epoch-based reclamation: grace-period correctness, epoch
// advancement, multi-domain use, and a use-after-retire stress.
#include "reclaim/ebr.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lfst::reclaim {
namespace {

struct counted {
  static std::atomic<int> live;
  int payload = 0;
  counted() { live.fetch_add(1, std::memory_order_relaxed); }
  explicit counted(int p) : payload(p) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  ~counted() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> counted::live{0};

TEST(Ebr, RetiredObjectsAreEventuallyFreed) {
  ebr_domain d;
  const int before = counted::live.load();
  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 1000; ++i) d.retire(new counted);
  }
  d.flush();
  EXPECT_EQ(counted::live.load(), before);
}

TEST(Ebr, NothingFreedWhileEpochPinnedElsewhere) {
  ebr_domain d;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};

  std::thread reader([&] {
    ebr_domain::guard g(d);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  const int before = counted::live.load();
  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 200; ++i) d.retire(new counted);
  }
  // The reader pins an epoch <= retire epoch: a full grace period cannot
  // elapse, so at most one epoch of progress happened and nothing retired
  // under this guard may be freed yet.  flush() asserts quiescence, so this
  // deliberately non-quiescent call goes through try_flush(), whose report
  // must name the pinned slot.
  const flush_result partial = d.try_flush();
  EXPECT_GT(partial.skipped_slots, 0u) << "pinned reader not reported";
  EXPECT_FALSE(partial.clean());
  EXPECT_GE(counted::live.load(), before + 200 - 0)
      << "objects freed while a reader was pinned";

  release.store(true);
  reader.join();
  const flush_result full = d.flush();
  EXPECT_EQ(full.skipped_slots, 0u);
  EXPECT_EQ(counted::live.load(), before);
}

TEST(Ebr, EpochAdvancesWhenAllQuiescent) {
  ebr_domain d;
  const std::uint64_t e0 = d.epoch();
  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 1000; ++i) d.retire(new counted);
  }
  d.flush();
  EXPECT_GT(d.epoch(), e0);
}

// The outermost pin collects only when the epoch moved since the slot's
// last collection: a pin at an unchanged epoch leaves limbo as it was, and
// the first pin after the epoch moved two past the retire frees it.
TEST(Ebr, NextPinCollectsOnceTheEpochMoves) {
  ebr_domain d;
  const int before = counted::live.load();
  {
    ebr_domain::guard g(d);
    // Fewer than kAdvanceEvery: no advance or collection from retire().
    for (int i = 0; i < 10; ++i) d.retire(new counted);
  }
  { ebr_domain::guard g(d); }
  EXPECT_EQ(d.my_limbo_size(), 10u) << "a pin at an unchanged epoch";

  // stall_tick advances the epoch but never touches a slot's limbo.
  const std::uint64_t e0 = d.epoch();
  EXPECT_TRUE(d.stall_tick(stall_params{}).advanced);
  EXPECT_TRUE(d.stall_tick(stall_params{}).advanced);
  ASSERT_EQ(d.epoch(), e0 + 2);
  EXPECT_EQ(d.my_limbo_size(), 10u);
  EXPECT_EQ(counted::live.load(), before + 10);

  { ebr_domain::guard g(d); }
  EXPECT_EQ(d.my_limbo_size(), 0u) << "the first pin after the move";
  EXPECT_EQ(counted::live.load(), before);
  EXPECT_EQ(d.stats().limbo_blocks, 0u);
}

TEST(Ebr, GuardIsReentrant) {
  ebr_domain d;
  ebr_domain::guard outer(d);
  {
    ebr_domain::guard inner(d);
    d.retire(new counted);
  }
  // Outer guard still pinned; no crash, retire list intact.
  EXPECT_GE(d.my_limbo_size(), 1u);
}

TEST(Ebr, TwoDomainsAreIndependent) {
  ebr_domain d1;
  ebr_domain d2;
  const int before = counted::live.load();
  {
    ebr_domain::guard g1(d1);
    ebr_domain::guard g2(d2);
    d1.retire(new counted);
    d2.retire(new counted);
  }
  d1.flush();
  d2.flush();
  EXPECT_EQ(counted::live.load(), before);
}

TEST(Ebr, DomainDestructorDrainsLimbo) {
  const int before = counted::live.load();
  {
    ebr_domain d;
    ebr_domain::guard g(d);
    for (int i = 0; i < 50; ++i) d.retire(new counted);
    // No flush: destructor must reclaim.
  }
  EXPECT_EQ(counted::live.load(), before);
}

TEST(Ebr, RetireCustomBlock) {
  ebr_domain d;
  static std::atomic<int> freed{0};
  int dummy = 0;
  {
    ebr_domain::guard g(d);
    d.retire(retired_block{&dummy, [](void*) { freed.fetch_add(1); }});
  }
  d.flush();
  EXPECT_EQ(freed.load(), 1);
}

// The core safety property under real concurrency: a reader holding a guard
// dereferences objects it obtained from a live shared pointer; writers
// continuously replace and retire them.  Any premature free shows up as a
// torn payload (and as a crash under ASan).
TEST(EbrStress, ReadersNeverObserveFreedMemory) {
  ebr_domain d;
  struct twin {
    std::uint64_t a;
    std::uint64_t b;  // invariant: b == ~a
  };
  std::atomic<twin*> shared{new twin{1, ~std::uint64_t{1}}};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ebr_domain::guard g(d);
        twin* p = shared.load(std::memory_order_acquire);
        if (p->b != ~p->a) violations.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    for (std::uint64_t i = 2; i < 40000; ++i) {
      ebr_domain::guard g(d);
      twin* fresh = new twin{i, ~i};
      twin* old = shared.exchange(fresh, std::memory_order_acq_rel);
      d.retire(old);
    }
    stop.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(violations.load(), 0u);

  delete shared.load();
  d.flush();
}

TEST(EbrStress, ManyThreadsManyRetires) {
  ebr_domain d;
  const int before = counted::live.load();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        ebr_domain::guard g(d);
        d.retire(new counted(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  d.flush();
  d.flush();
  EXPECT_EQ(counted::live.load(), before);
}

// Regression tests for the tls_registry capacity rule.  The registry holds
// 8 entries per thread; the check used to be an assert that vanished under
// NDEBUG, turning a 9th distinct domain into an out-of-bounds write.  It is
// now a hard runtime error in every build mode -- but only when all 8
// tracked domains are still LIVE: entries of destroyed domains are reused.
// Each test runs on a fresh thread so the main thread's accumulated
// registry entries (global domain, other tests) cannot interfere.

TEST(EbrRegistry, NinthLiveDomainOnOneThreadThrows) {
  std::thread([] {
    std::vector<std::unique_ptr<ebr_domain>> domains;
    for (int i = 0; i < 8; ++i) {
      domains.push_back(std::make_unique<ebr_domain>());
      ebr_domain::guard g(*domains.back());  // claims a registry entry
    }
    auto ninth = std::make_unique<ebr_domain>();
    bool threw = false;
    try {
      ebr_domain::guard g(*ninth);
    } catch (const std::length_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "9th live domain must be a hard error, not an OOB";
  }).join();
}

TEST(EbrRegistry, DeadDomainEntriesAreReused) {
  const int before = counted::live.load();
  std::thread([] {
    // Far more sequential domains than the 8-entry capacity: each one dies
    // before the next is created, so its registry entry is recycled.
    for (int i = 0; i < 32; ++i) {
      ebr_domain d;
      ebr_domain::guard g(d);
      d.retire(new counted(i));
    }
  }).join();
  EXPECT_EQ(counted::live.load(), before);
}

TEST(EbrRegistry, DestroyingADomainFreesItsEntryForNewDomains) {
  std::thread([] {
    std::vector<std::unique_ptr<ebr_domain>> domains;
    for (int i = 0; i < 8; ++i) {
      domains.push_back(std::make_unique<ebr_domain>());
      ebr_domain::guard g(*domains.back());
    }
    domains.front().reset();  // one of the eight dies
    ebr_domain extra;         // its entry must be reusable
    ebr_domain::guard g(extra);
    SUCCEED();
  }).join();
}

}  // namespace
}  // namespace lfst::reclaim
