// EBR thread-lifecycle tests: slot acquisition/release across thread churn,
// limbo adoption by successor threads, and guard behaviour at exit.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "reclaim/ebr.hpp"

namespace lfst::reclaim {
namespace {

struct counted {
  static std::atomic<int> live;
  counted() { live.fetch_add(1, std::memory_order_relaxed); }
  ~counted() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> counted::live{0};

TEST(EbrThreads, SlotsAreRecycledAcrossManyShortLivedThreads) {
  // Far more sequential threads than kMaxThreads: each must acquire a slot
  // (recycled from predecessors) or the domain would abort.
  ebr_domain d;
  for (std::size_t i = 0; i < kMaxThreads * 3; ++i) {
    std::thread t([&] {
      ebr_domain::guard g(d);
      d.retire(new counted);
    });
    t.join();
  }
  d.flush();
  EXPECT_EQ(counted::live.load(), 0);
}

TEST(EbrThreads, LimboLeftByExitedThreadIsAdopted) {
  // A thread retires and exits without its garbage becoming freeable; the
  // slot's limbo must survive and be reclaimed later (by an adopting thread
  // or the domain's flush), never lost and never double-freed.
  ebr_domain d;
  {
    // Pin from the main thread so the worker's garbage cannot be freed
    // before the worker exits.
    ebr_domain::guard pin(d);
    std::thread worker([&] {
      ebr_domain::guard g(d);
      for (int i = 0; i < 100; ++i) d.retire(new counted);
    });
    worker.join();
    EXPECT_GE(counted::live.load(), 100);
    EXPECT_EQ(d.stats().limbo_blocks, 100u);
    // The next thread adopts the worker's slot (the main thread holds the
    // other one): its limbo is the adopter's now and still counted.
    std::thread adopter([&] {
      EXPECT_EQ(d.my_limbo_size(), 100u);
      EXPECT_EQ(d.stats().limbo_blocks, 100u);
      EXPECT_EQ(d.stats().limbo_bytes, 100 * sizeof(counted));
    });
    adopter.join();
  }
  // Successor threads adopt recycled slots and churn epochs.
  for (int round = 0; round < 8; ++round) {
    std::thread t([&] {
      ebr_domain::guard g(d);
      for (int i = 0; i < 80; ++i) d.retire(new counted);
    });
    t.join();
  }
  d.flush();
  d.flush();
  EXPECT_EQ(counted::live.load(), 0);
  EXPECT_EQ(d.stats().limbo_blocks, 0u);
  EXPECT_EQ(d.stats().limbo_bytes, 0u);
}

TEST(EbrThreads, ParallelThreadChurnWithConcurrentPinners) {
  ebr_domain d;
  std::atomic<bool> stop{false};
  // Long-lived pinner threads cycle guards continuously.
  std::vector<std::thread> pinners;
  for (int p = 0; p < 3; ++p) {
    pinners.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ebr_domain::guard g(d);
        d.retire(new counted);
      }
    });
  }
  // Meanwhile waves of short-lived threads come and go.
  for (int wave = 0; wave < 20; ++wave) {
    std::vector<std::thread> workers;
    for (int w = 0; w < 8; ++w) {
      workers.emplace_back([&] {
        for (int i = 0; i < 200; ++i) {
          ebr_domain::guard g(d);
          d.retire(new counted);
        }
      });
    }
    for (auto& t : workers) t.join();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : pinners) t.join();
  d.flush();
  d.flush();
  EXPECT_EQ(counted::live.load(), 0);
}

TEST(EbrThreads, EpochCannotOutrunSlowestPinner) {
  ebr_domain d;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread slow([&] {
    ebr_domain::guard g(d);
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();
  const std::uint64_t pinned_epoch = d.epoch();
  // Other threads churn heavily; the epoch may advance at most once past
  // the pinned reader.
  for (int i = 0; i < 4; ++i) {
    std::thread t([&] {
      for (int j = 0; j < 2000; ++j) {
        ebr_domain::guard g(d);
        d.retire(new counted);
      }
    });
    t.join();
  }
  EXPECT_LE(d.epoch(), pinned_epoch + 1);
  release.store(true, std::memory_order_release);
  slow.join();
  d.flush();
  d.flush();
  EXPECT_EQ(counted::live.load(), 0);
}

TEST(EbrThreads, ManyDomainsOneThread) {
  // One thread touching several domains concurrently must keep independent
  // slots (the per-domain thread-local registry).
  ebr_domain d1;
  ebr_domain d2;
  ebr_domain d3;
  {
    ebr_domain::guard g1(d1);
    ebr_domain::guard g2(d2);
    ebr_domain::guard g3(d3);
    d1.retire(new counted);
    d2.retire(new counted);
    d3.retire(new counted);
  }
  d1.flush();
  d2.flush();
  d3.flush();
  EXPECT_EQ(counted::live.load(), 0);
}

TEST(EbrThreads, SlotExhaustionIsAHardErrorNotAnOverflow) {
  // kMaxThreads concurrent pinners saturate the slot array; one more must
  // get std::length_error in every build mode, never an out-of-bounds
  // write.  Parked threads hold their slots alive for the whole test.
  ebr_domain d;
  std::atomic<std::size_t> parked{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> holders;
  holders.reserve(kMaxThreads);
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    holders.emplace_back([&] {
      ebr_domain::guard g(d);
      parked.fetch_add(1, std::memory_order_acq_rel);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  while (parked.load(std::memory_order_acquire) < kMaxThreads) {
    std::this_thread::yield();
  }
  std::thread extra([&] {
    bool threw = false;
    try {
      ebr_domain::guard g(d);
    } catch (const std::length_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "257th concurrent thread must be a hard error";
  });
  extra.join();
  release.store(true, std::memory_order_release);
  for (auto& t : holders) t.join();
  // Every slot was recycled by thread exit: a full complement of fresh
  // threads must fit again.
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> again;
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    again.emplace_back([&] {
      ebr_domain::guard g(d);
      d.retire(new counted);
      ok.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : again) t.join();
  EXPECT_EQ(ok.load(), kMaxThreads);
  d.flush();
  EXPECT_EQ(counted::live.load(), 0);
}

TEST(EbrThreads, ChurnWavesReuseDeadSlotsWithCleanFlags) {
  // Rapid waves of short-lived threads cross the registry capacity many
  // times over while a watchdog-style ladder keeps flagging a deliberately
  // parked reader.  Successor threads inheriting recycled slots must see
  // clean flags: a fresh pin is never born flagged.
  ebr_domain d;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread stalled([&] {
    ebr_domain::guard g(d);
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();

  std::uint64_t now = 0;
  for (int wave = 0; wave < 6; ++wave) {
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kMaxThreads / 2; ++w) {
      workers.emplace_back([&] {
        for (int i = 0; i < 20; ++i) {
          ebr_domain::guard g(d);
          d.retire(new counted);
          // A freshly pinned guard must never start life evicted.
          if (i == 0) {
            EXPECT_FALSE(g.check());
          }
        }
      });
    }
    // Stall ladder against the parked reader, concurrent with churn.
    stall_params p;
    p.now_tsc = (now += 1000);
    d.stall_tick(p);
    for (auto& t : workers) t.join();
  }
  release.store(true, std::memory_order_release);
  stalled.join();
  d.flush();
  d.flush();
  EXPECT_EQ(counted::live.load(), 0);
}

TEST(EbrThreads, DomainOutlivedByNothingDrainsOnDestruction) {
  {
    ebr_domain d;
    std::vector<std::thread> ts;
    for (int i = 0; i < 6; ++i) {
      ts.emplace_back([&] {
        for (int j = 0; j < 500; ++j) {
          ebr_domain::guard g(d);
          d.retire(new counted);
        }
      });
    }
    for (auto& t : ts) t.join();
    // No flush: the destructor must reclaim all remaining limbo.
  }
  EXPECT_EQ(counted::live.load(), 0);
}

}  // namespace
}  // namespace lfst::reclaim
