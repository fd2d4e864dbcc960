// Unit tests for the pooled allocation policy (src/alloc/pool.hpp).
//
// The pool's contract: blocks come back aligned to their (power-of-two)
// size class, a freed block is eligible for reuse, blocks may be freed on a
// different thread than the one that allocated them, and oversized or
// overaligned requests fall through to the global heap.  Reuse safety under
// concurrency is the reclamation layer's job -- the grace-period test below
// checks the composed behavior: a block retired under an EBR guard is not
// returned to the pool until the epoch advances past every pinned reader.
//
// Counters are process-wide (and this binary's other tests also allocate),
// so every assertion works on deltas between two counters() snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "alloc/pool.hpp"
#include "common/failpoint.hpp"
#include "reclaim/ebr.hpp"

namespace lfst::alloc {
namespace {

using pool = detail::pool;

std::uintptr_t addr(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

// --- block_size: the pure rounding function both paths must agree on -------

TEST(PoolBlockSize, RoundsUpToTheNextClass) {
  // Classes are powers of two plus the 3*2^k midpoints.
  EXPECT_EQ(pool::block_size(1, 1), 16u);
  EXPECT_EQ(pool::block_size(24, 8), 32u);
  EXPECT_EQ(pool::block_size(33, 8), 48u);
  EXPECT_EQ(pool::block_size(64, 8), 64u);
  EXPECT_EQ(pool::block_size(65, 8), 96u);
  EXPECT_EQ(pool::block_size(128, 8), 128u);
  EXPECT_EQ(pool::block_size(129, 8), 192u);
  EXPECT_EQ(pool::block_size(1000, 8), 1024u);
  EXPECT_EQ(pool::block_size(4096, 8), 4096u);
}

TEST(PoolBlockSize, AlignmentSkipsClassesThatCannotProvideIt) {
  // A midpoint class 3*2^k is only 2^k-aligned (blocks sit at class-size
  // multiples inside 64 KiB-aligned slabs), so strict alignment skips it.
  EXPECT_EQ(pool::block_size(8, 256), 256u);
  EXPECT_EQ(pool::block_size(300, 512), 512u);
  EXPECT_EQ(pool::block_size(40, 64), 64u);   // not the 16-aligned 48 class
  EXPECT_EQ(pool::block_size(100, 128), 128u);  // not the 32-aligned 96
}

TEST(PoolBlockSize, OversizedAndOveralignedAreNotPooled) {
  EXPECT_EQ(pool::block_size(4097, 8), 0u);
  EXPECT_EQ(pool::block_size(1 << 20, 64), 0u);
  EXPECT_EQ(pool::block_size(64, 8192), 0u);
}

TEST(PoolBlockSize, TableLookupMatchesALinearScan) {
  // The reference: the first class that fits `bytes` and whose natural
  // alignment covers `align`, found by scanning every class.
  const auto scan = [](std::size_t bytes, std::size_t align) {
    if (bytes > pool::kMaxBlock || align > pool::kMaxBlock) return -1;
    for (int ci = 0; ci < pool::kClasses; ++ci) {
      const std::size_t cls = pool::kClassSizes[ci];
      if (cls >= bytes && (cls & (~cls + 1)) >= align) return ci;
    }
    return -1;
  };
  for (std::size_t bytes = 1; bytes <= pool::kMaxBlock + 1; ++bytes) {
    for (std::size_t align = 1; align <= 8192; align *= 2) {
      const int want = scan(bytes, align);
      ASSERT_EQ(pool::class_of(bytes, align), want)
          << "bytes " << bytes << " align " << align;
      ASSERT_EQ(pool::block_size(bytes, align),
                want < 0 ? 0u : pool::kClassSizes[want])
          << "bytes " << bytes << " align " << align;
    }
  }
}

// --- alignment -------------------------------------------------------------

TEST(PoolPolicy, BlocksCarryTheirClassAlignment) {
  for (std::size_t bytes : {1u, 48u, 64u, 96u, 200u, 1000u, 4096u}) {
    const std::size_t cls = pool::block_size(bytes, alignof(std::max_align_t));
    ASSERT_NE(cls, 0u);
    const std::size_t natural = cls & (~cls + 1);  // largest pow2 divisor
    ASSERT_GE(natural, alignof(std::max_align_t));
    std::vector<void*> ps;
    for (int i = 0; i < 16; ++i) {
      void* p = pool_policy::allocate(bytes, alignof(std::max_align_t));
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(addr(p) % natural, 0u) << "size " << bytes;
      std::memset(p, 0xab, bytes);  // the block must be fully writable
      ps.push_back(p);
    }
    for (void* p : ps) {
      pool_policy::deallocate(p, bytes, alignof(std::max_align_t));
    }
  }
}

// --- chunks ----------------------------------------------------------------

/// Allocate `bytes` blocks on this thread, keeping them in `held`, until a
/// refill is served by carving (no free block of the class left anywhere):
/// from then on every block of the class this thread gets is fresh slab
/// space, in address order.  The test runs single-threaded.
void drain_to_fresh(std::size_t bytes, std::vector<void*>& held) {
  const std::uint64_t carves = pool_policy::counters().slab_carves;
  while (pool_policy::counters().slab_carves == carves) {
    held.push_back(pool_policy::allocate(bytes, 8));
  }
}

void release(std::vector<void*>& held, std::size_t bytes) {
  for (void* p : held) pool_policy::deallocate(p, bytes, 8);
  held.clear();
}

TEST(PoolChunks, ClassesCarveTheirSlabsFromOneAlignedChunk) {
  // Class 4096 holds 16 blocks per slab, so its slab bases are the only
  // blocks on 64 KiB boundaries, and only a slab that opens a chunk can
  // start on a 2 MiB boundary.  Find such a slab, then check the next slab
  // another class carves comes from the same chunk.
  constexpr std::size_t kBig = 4096;
  constexpr std::size_t kSmall = 384;
  std::vector<void*> big;
  std::vector<void*> small;
  drain_to_fresh(kBig, big);
  std::uintptr_t opener = 0;
  for (std::size_t i = 0; i < 2 * pool::kChunkBytes / kBig && opener == 0;
       ++i) {
    big.push_back(pool_policy::allocate(kBig, 8));
    if (addr(big.back()) % pool::kChunkBytes == 0) opener = addr(big.back());
  }
  ASSERT_NE(opener, 0u) << "no fresh slab started a 2 MiB-aligned chunk";

  drain_to_fresh(kSmall, small);
  std::uintptr_t slab = 0;
  for (std::size_t i = 0; i < 2 * pool::kSlabBytes / kSmall && slab == 0;
       ++i) {
    if (addr(small.back()) % pool::kSlabBytes == 0) slab = addr(small.back());
    small.push_back(pool_policy::allocate(kSmall, 8));
  }
  ASSERT_NE(slab, 0u) << "class 384 never reached a fresh slab";
  EXPECT_EQ(slab / pool::kChunkBytes, opener / pool::kChunkBytes)
      << "the first slabs of two classes came from different chunks";
  for (void* p : small) {
    EXPECT_EQ(addr(p) % 128, 0u) << "class 384 blocks are 128-aligned";
  }
  release(big, kBig);
  release(small, kSmall);
}

#if defined(LFST_FAILPOINTS)
TEST(PoolChunks, FailedSlabCarveServesPartialBatchOrRethrows) {
  // `alloc.pool.chunk` fires inside the chunk cursor's lock, as an
  // exhausted heap would when a fresh chunk is needed.  A class-4096
  // refill wants 32 blocks, two slabs' worth.
  using failpoint::action;
  using failpoint::policy;
  using failpoint::registry;
  constexpr std::size_t kBig = 4096;
  constexpr std::size_t kPerSlab = pool::kSlabBytes / kBig;
  std::vector<void*> held;

  // Every carve fails: use up the class until a refill comes back empty
  // handed.  Its free list, its slab and this thread's cache are now empty.
  registry::instance().reset_all();
  registry::instance().configure("alloc.pool.chunk",
                                 policy{.act = action::fail});
  bool threw = false;
  for (int i = 0; i < (1 << 20) && !threw; ++i) {
    try {
      held.push_back(pool_policy::allocate(kBig, 8));
    } catch (const std::bad_alloc&) {
      threw = true;
    }
  }
  ASSERT_TRUE(threw);

  // Let one carve through, then fail the rest: the refill gets one slab,
  // fails on the second and still serves the 16 blocks it gathered.
  registry::instance().reset_all();
  registry::instance().configure(
      "alloc.pool.chunk", policy{.act = action::fail, .skip_first = 1});
  const failpoint::site& site = registry::instance().at("alloc.pool.chunk");
  const std::uintptr_t base = addr(pool_policy::allocate(kBig, 8));
  held.push_back(reinterpret_cast<void*>(base));
  EXPECT_EQ(site.fires(), 1u);
  EXPECT_EQ(base % pool::kSlabBytes, 0u);
  std::vector<std::uintptr_t> batch{base};
  for (std::size_t i = 1; i < kPerSlab; ++i) {
    held.push_back(pool_policy::allocate(kBig, 8));  // from the cache
    batch.push_back(addr(held.back()));
  }
  EXPECT_EQ(site.fires(), 1u) << "the partial batch was not kept";
  std::sort(batch.begin(), batch.end());
  for (std::size_t i = 0; i < kPerSlab; ++i) {
    EXPECT_EQ(batch[i], base + i * kBig) << "block " << i;
  }
  // The batch is used up and the next carve fails with nothing gathered.
  EXPECT_THROW(pool_policy::allocate(kBig, 8), std::bad_alloc);
  EXPECT_EQ(site.fires(), 2u);

  // No lock was left held: with the site disarmed the class refills.
  registry::instance().reset_all();
  held.push_back(pool_policy::allocate(kBig, 8));
  release(held, kBig);
}
#endif

TEST(PoolPolicy, HonorsOversizedAlignmentViaFallback) {
  const alloc_counters before = pool_policy::counters();
  void* p = pool_policy::allocate(64, 8192);  // overaligned: not pooled
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(addr(p) % 8192, 0u);
  pool_policy::deallocate(p, 64, 8192);
  const alloc_counters after = pool_policy::counters();
  EXPECT_EQ(after.fallbacks - before.fallbacks, 1u);
  EXPECT_EQ(after.allocations - before.allocations, 1u);
  EXPECT_EQ(after.deallocations - before.deallocations, 1u);
}

TEST(PoolPolicy, OversizedRequestFallsThroughToHeap) {
  const alloc_counters before = pool_policy::counters();
  void* p = pool_policy::allocate(1 << 16, 64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5a, 1 << 16);
  pool_policy::deallocate(p, 1 << 16, 64);
  const alloc_counters after = pool_policy::counters();
  EXPECT_EQ(after.fallbacks - before.fallbacks, 1u);
}

// --- reuse -----------------------------------------------------------------

TEST(PoolPolicy, FreedBlockIsReusedSameThread) {
  // Warm the class, free into the thread cache, then allocate again: the
  // very next allocation of the class must come off the cache (LIFO).
  void* p = pool_policy::allocate(192, 64);  // class 192
  pool_policy::deallocate(p, 192, 64);
  const alloc_counters before = pool_policy::counters();
  void* q = pool_policy::allocate(192, 64);
  const alloc_counters after = pool_policy::counters();
  EXPECT_EQ(q, p);  // LIFO thread cache hands the same block back
  EXPECT_EQ(after.pool_hits - before.pool_hits, 1u);
  EXPECT_EQ(after.slab_carves - before.slab_carves, 0u);
  pool_policy::deallocate(q, 192, 64);
}

TEST(PoolPolicy, DifferentSizesWithinOneClassShareBlocks) {
  void* p = pool_policy::allocate(130, 8);  // class 192
  pool_policy::deallocate(p, 130, 8);
  void* q = pool_policy::allocate(192, 8);  // same class, different bytes
  EXPECT_EQ(q, p);
  pool_policy::deallocate(q, 192, 8);
}

TEST(PoolPolicy, CrossThreadFreeReturnsBlocksToTheSharedPool) {
  // Thread A allocates a large batch and publishes the pointers; thread B
  // frees all of them.  B's cache overflows (kCacheCap) and spills to the
  // shared per-class list; B's exit spills the rest.  Thread C then
  // allocates the same class and must be served by reuse, not fresh slabs.
  constexpr std::size_t kBlocks = 2 * pool::kCacheCap;
  constexpr std::size_t kBytes = 512;
  std::vector<void*> blocks(kBlocks, nullptr);

  std::thread a([&] {
    for (std::size_t i = 0; i < kBlocks; ++i) {
      blocks[i] = pool_policy::allocate(kBytes, 64);
    }
  });
  a.join();

  std::thread b([&] {
    for (void* p : blocks) pool_policy::deallocate(p, kBytes, 64);
  });
  b.join();

  // Both workers joined, so their thread-local counters have been folded
  // into the globals and their caches spilled to the shared lists.
  const alloc_counters before = pool_policy::counters();
  std::thread c([&] {
    std::vector<void*> got;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      got.push_back(pool_policy::allocate(kBytes, 64));
    }
    for (void* p : got) pool_policy::deallocate(p, kBytes, 64);
  });
  c.join();
  const alloc_counters after = pool_policy::counters();
  EXPECT_EQ(after.allocations - before.allocations, kBlocks);
  // Every allocation was served from the pool -- no fresh slab was carved.
  EXPECT_EQ(after.slab_carves - before.slab_carves, 0u);
  EXPECT_EQ(after.pool_hits - before.pool_hits, kBlocks);
}

TEST(PoolPolicy, CountersFoldInWhenThreadsExit) {
  const alloc_counters before = pool_policy::counters();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        void* p = pool_policy::allocate(96, 8);
        pool_policy::deallocate(p, 96, 8);
      }
    });
  }
  for (auto& t : ts) t.join();
  const alloc_counters after = pool_policy::counters();
  EXPECT_GE(after.allocations - before.allocations,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GE(after.deallocations - before.deallocations,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

// --- composition with reclamation ------------------------------------------

TEST(PoolPolicy, RetiredBlockReturnsOnlyAfterGracePeriod) {
  // The structures never free a payload directly: they retire it, and the
  // reclamation deleter hands it to the pool after the grace period.  Model
  // that wiring explicitly and check the block is NOT pooled while a guard
  // could still hold a reference, and IS pooled after flush().
  reclaim::ebr_domain dom;
  void* p = pool_policy::allocate(320, 64);  // class 384
  const alloc_counters before = pool_policy::counters();
  {
    reclaim::ebr_domain::guard g(dom);
    dom.retire(reclaim::retired_block{
        p, [](void* q) { pool_policy::deallocate(q, 320, 64); }});
    const alloc_counters pinned = pool_policy::counters();
    EXPECT_EQ(pinned.deallocations - before.deallocations, 0u)
        << "block freed while the retiring epoch was still pinned";
  }
  dom.flush();  // quiescent: epochs advance and deferred frees run
  const alloc_counters after = pool_policy::counters();
  EXPECT_EQ(after.deallocations - before.deallocations, 1u);
  // The recycled block is now the next class-512 allocation on this thread.
  void* q = pool_policy::allocate(320, 64);
  EXPECT_EQ(q, p);
  pool_policy::deallocate(q, 320, 64);
}

TEST(PoolPolicy, NewDeletePolicyBaselineHasNoCounters) {
  void* p = new_delete_policy::allocate(128, 64);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(addr(p) % 64, 0u);
  new_delete_policy::deallocate(p, 128, 64);
  const alloc_counters c = new_delete_policy::counters();
  EXPECT_EQ(c.allocations, 0u);
  EXPECT_EQ(c.pool_hits, 0u);
  EXPECT_EQ(c.hit_rate(), 0.0);
}

TEST(PoolPolicy, HitRateIsPoolHitsOverAllocations) {
  alloc_counters c;
  c.allocations = 200;
  c.pool_hits = 150;
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.75);
}

}  // namespace
}  // namespace lfst::alloc
