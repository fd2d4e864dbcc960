// ON-only (-DLFST_TRACE) site coverage: the LFST_T_* annotations threaded
// through the three traced structures, the pool, and EBR must actually record
// spans and events with the right ids -- the retry/step notes must land on the
// *operation* spans that were live when the deep sites fired, and every
// structural event must agree with the structure's exact counters.
//
// Each case quiesces (joins its threads) before draining, so counts are
// exact; the per-thread rings hold 4096 spans each and every case stays
// comfortably below that.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "blinktree/blink_tree.hpp"
#include "common/trace.hpp"
#include "reclaim/ebr.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/health.hpp"
#include "skiptree/skip_tree.hpp"

namespace lfst {
namespace {

using trace::sid;
using trace::span_record;
using trace::trace_registry;

std::array<std::size_t, static_cast<std::size_t>(sid::kCount)> tally(
    const std::vector<span_record>& spans) {
  std::array<std::size_t, static_cast<std::size_t>(sid::kCount)> n{};
  for (const span_record& s : spans) {
    ++n[static_cast<std::size_t>(s.id)];
  }
  return n;
}

std::size_t at(const std::array<std::size_t,
                                static_cast<std::size_t>(sid::kCount)>& n,
               sid id) {
  return n[static_cast<std::size_t>(id)];
}

TEST(SkipTreeSpans, EveryOperationRecordsOne) {
  trace_registry::instance().reset();
  reclaim::ebr_domain domain;
  skiptree::skip_tree<int> tree(skiptree::skip_tree_options{}, domain);
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.add(k));
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.contains(k));
  for (int k = 0; k < 50; ++k) ASSERT_TRUE(tree.remove(k));

  const auto n = tally(trace_registry::instance().drain());
  EXPECT_EQ(at(n, sid::skiptree_add), 100u);
  EXPECT_EQ(at(n, sid::skiptree_contains), 100u);
  EXPECT_EQ(at(n, sid::skiptree_remove), 50u);
}

TEST(SkipTreeSpans, DepthGrowsWithTheTree) {
  trace_registry::instance().reset();
  reclaim::ebr_domain domain;
  skiptree::skip_tree_options o;
  o.q_log2 = 2;  // narrow nodes: a few thousand keys build real height
  skiptree::skip_tree<int> tree(o, domain);
  for (int k = 0; k < 4000; ++k) tree.add(k);
  trace_registry::instance().reset();  // look at post-build operations only

  for (int k = 0; k < 64; ++k) tree.contains(k * 50);
  const auto spans = trace_registry::instance().drain();
  ASSERT_EQ(spans.size(), 64u);
  std::uint64_t total_depth = 0;
  for (const auto& s : spans) total_depth += s.depth;
  EXPECT_GT(total_depth, 0u)
      << "locate's steps must be charged to the contains span";
}

TEST(SkipTreeSpans, LocateChargesEveryLevelStepAndLeafHop) {
  reclaim::ebr_domain domain;
  skiptree::skip_tree_options o;
  o.q_log2 = 2;
  o.compaction = false;  // keep the empty leaf below for the hop

  // A bulk-loaded tree is optimal: no empty node, no stale separator, so
  // every descent takes exactly one step per level and no link hop.
  std::vector<int> keys(2000);
  for (int k = 0; k < 2000; ++k) keys[static_cast<std::size_t>(k)] = 2 * k;
  auto bulk = skiptree::skip_tree<int>::from_sorted(keys, o, domain);
  ASSERT_GE(bulk.height(), 2);
  trace_registry::instance().reset();
  for (int k = -1; k < 4002; k += 7) bulk.contains(k);
  std::size_t probes = 0;
  for (const auto& s : trace_registry::instance().drain()) {
    if (s.id != sid::skiptree_contains) continue;
    ++probes;
    ASSERT_EQ(s.depth, static_cast<std::uint32_t>(bulk.height()));
  }
  EXPECT_EQ(probes, 572u);
  // remove descends through locate too: an absent key costs the same path.
  trace_registry::instance().reset();
  EXPECT_FALSE(bulk.remove(1));
  const auto removes = trace_registry::instance().drain();
  ASSERT_EQ(removes.size(), 1u);
  EXPECT_EQ(removes[0].id, sid::skiptree_remove);
  EXPECT_EQ(removes[0].depth, static_cast<std::uint32_t>(bulk.height()))
      << "remove's descent charges one step per level";

  // Root [10, +inf] over leaves [10] -> [+inf]; removing 10 leaves the
  // first leaf empty, so a probe below 10 goes down one level and then
  // hops the leaf link: two steps.  A probe above 10 goes straight down.
  skiptree::skip_tree<int> tree(o, domain);
  ASSERT_TRUE(tree.add_with_height(10, 1));
  ASSERT_TRUE(tree.remove(10));
  trace_registry::instance().reset();
  EXPECT_FALSE(tree.contains(5));
  EXPECT_FALSE(tree.contains(15));
  const auto spans = trace_registry::instance().drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].depth, 2u) << "the leaf link hop is a step too";
  EXPECT_EQ(spans[1].depth, 1u);
}

TEST(SkipTreeSpans, ContentionChargesRetriesToMutationSpans) {
  // Every lost CAS funnels through tree_core::bump(cas_failures), which
  // charges the innermost live span -- so across a quiesced run with no
  // ring wraparound, span-charged retries must equal the tree's own
  // cas_failures counter EXACTLY.  Whether contention happens at all is up
  // to the scheduler (a single-core box can interleave 4 threads without
  // one lost race), so hammer in bounded attempts until the tree reports a
  // lost CAS, and skip -- visibly, not silently green -- if the scheduler
  // never delivers one.
  reclaim::ebr_domain domain;
  skiptree::skip_tree<int> tree(skiptree::skip_tree_options{}, domain);
  constexpr int kThreads = 4;
  // 2 spans per round per thread plus nested refill/advance spans and
  // events.  A ring freed by an exiting thread is re-leased with its
  // contents kept, so on a loaded host all four threads' records can land
  // in one ring: 4 x ~850 stays under its 4096 slots, so no retry-carrying
  // span can be overwritten before the drain.
  constexpr int kRounds = 400;
  constexpr int kAttempts = 20;

  std::uint64_t failures_before = 0;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    trace_registry::instance().reset();
    failures_before = tree.stats().cas_failures;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&] {
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kRounds; ++i) {
          tree.add(i % 8);
          tree.remove(i % 8);
        }
      });
    }
    while (ready.load() != kThreads) std::this_thread::yield();
    go.store(true);
    for (auto& th : pool) th.join();
    if (tree.stats().cas_failures > failures_before) break;
  }

  const std::uint64_t failures =
      tree.stats().cas_failures - failures_before;
  if (failures == 0) {
    GTEST_SKIP() << "scheduler never produced a lost CAS in " << kAttempts
                 << " contended attempts; nothing to charge";
  }
  const auto spans = trace_registry::instance().drain();
  std::uint64_t retries = 0;
  for (const auto& s : spans) {
    if (s.id == sid::skiptree_add || s.id == sid::skiptree_remove) {
      retries += s.retries;
    }
  }
  EXPECT_EQ(retries, failures)
      << "every lost CAS must be charged to exactly one add/remove span";
}

TEST(SkipListSpans, OperationsRecord) {
  trace_registry::instance().reset();
  reclaim::ebr_domain domain;
  skiplist::skip_list<int> list(skiplist::skip_list_options{}, domain);
  for (int k = 0; k < 50; ++k) ASSERT_TRUE(list.add(k));
  for (int k = 0; k < 50; ++k) ASSERT_TRUE(list.contains(k));
  for (int k = 0; k < 50; ++k) ASSERT_TRUE(list.remove(k));
  const auto n = tally(trace_registry::instance().drain());
  EXPECT_EQ(at(n, sid::skiplist_add), 50u);
  EXPECT_EQ(at(n, sid::skiplist_contains), 50u);
  EXPECT_EQ(at(n, sid::skiplist_remove), 50u);
}

TEST(BlinkSpans, OperationsRecord) {
  trace_registry::instance().reset();
  blinktree::blink_tree_options o;
  o.min_node_size = 4;
  blinktree::blink_tree<int> tree(o);
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.add(k));
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.contains(k));
  for (int k = 0; k < 100; ++k) ASSERT_TRUE(tree.remove(k));
  const auto n = tally(trace_registry::instance().drain());
  EXPECT_EQ(at(n, sid::blink_add), 100u);
  EXPECT_EQ(at(n, sid::blink_contains), 100u);
  EXPECT_EQ(at(n, sid::blink_remove), 100u);
}

TEST(SubsystemSpans, PoolRefillAndEbrAdvanceAndHealthProbe) {
  trace_registry::instance().reset();
  reclaim::ebr_domain domain;
  {
    skiptree::skip_tree<int> tree(skiptree::skip_tree_options{}, domain);
    // Enough allocation traffic to force thread-local cache refills, and
    // enough retires that the domain advances its epoch.
    for (int k = 0; k < 3000; ++k) tree.add(k);
    for (int k = 0; k < 3000; ++k) tree.remove(k);

    skiptree::skip_tree_health<int> health(tree);
    health.probe();
  }
  domain.flush();

  const auto n = tally(trace_registry::instance().drain());
  EXPECT_GT(at(n, sid::pool_refill), 0u);
  EXPECT_GT(at(n, sid::ebr_advance), 0u);
  EXPECT_EQ(at(n, sid::health_probe), 1u);
}

TEST(SubsystemSpans, NestedRefillStaysInsideOperationSpan) {
  // A pool refill fires mid-add; the spans nest, so both must surface and
  // the add span must fully contain the refill span in time.  The adds run
  // on a fresh thread: its pool cache starts empty, so its first
  // allocation refills even when earlier tests in this process left the
  // calling thread's cache warm.
  trace_registry::instance().reset();
  reclaim::ebr_domain domain;
  skiptree::skip_tree<int> tree(skiptree::skip_tree_options{}, domain);
  std::thread([&] {
    for (int k = 0; k < 3000; ++k) tree.add(k);
  }).join();

  const auto spans = trace_registry::instance().drain();
  bool found_nested = false;
  for (const auto& refill : spans) {
    if (refill.id != sid::pool_refill) continue;
    for (const auto& add : spans) {
      if (add.id == sid::skiptree_add && add.thread == refill.thread &&
          add.t0 <= refill.t0 && refill.t1 <= add.t1) {
        found_nested = true;
        break;
      }
    }
    if (found_nested) break;
  }
  EXPECT_TRUE(found_nested)
      << "at least one refill should fire inside a traced add";
}

TEST(SkipTreeEvents, SplitsAndRootRaisesMatchCounters) {
  trace_registry::instance().reset();
  reclaim::ebr_domain domain;
  skiptree::skip_tree_options o;
  o.q_log2 = 2;  // narrow nodes: many splits and raises from few keys
  skiptree::skip_tree<int> tree(o, domain);
  for (int k = 0; k < 1000; ++k) tree.add(k);
  const auto n = tally(trace_registry::instance().drain());
  const auto stats = tree.stats();
  EXPECT_GE(stats.splits, 1u);
  EXPECT_GE(stats.root_raises, 1u);
  EXPECT_EQ(at(n, sid::skiptree_split), stats.splits);
  EXPECT_EQ(at(n, sid::skiptree_root_raise), stats.root_raises);
}

TEST(SkipTreeEvents, CompactionTransformsMatchCounters) {
  // Emptying a tree that has real height drives the Fig. 8 transforms:
  // every empty bypass (8a), reference repair (8b), duplicate drop (8c)
  // and migration (8d) bumps its counter and records one event.
  trace_registry::instance().reset();
  reclaim::ebr_domain domain;
  skiptree::skip_tree_options o;
  o.q_log2 = 2;
  skiptree::skip_tree<int> tree(o, domain);
  for (int k = 0; k < 600; ++k) tree.add(k);
  for (int k = 0; k < 600; ++k) tree.remove(k);
  const auto n = tally(trace_registry::instance().drain());
  const auto stats = tree.stats();
  EXPECT_GT(stats.empty_bypasses, 0u);
  EXPECT_EQ(at(n, sid::skiptree_compact_8a), stats.empty_bypasses);
  EXPECT_EQ(at(n, sid::skiptree_compact_8b), stats.ref_repairs);
  EXPECT_EQ(at(n, sid::skiptree_compact_8c), stats.duplicate_drops);
  EXPECT_EQ(at(n, sid::skiptree_compact_8d), stats.migrations);
}

TEST(EbrEvents, AdvancesRecordTheNewEpoch) {
  trace_registry::instance().reset();
  reclaim::ebr_domain domain;
  const std::uint64_t first = domain.stats().epoch;
  {
    skiptree::skip_tree<int> tree(skiptree::skip_tree_options{}, domain);
    constexpr int kThreads = 4;
    std::barrier sync(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&tree, &sync, t] {
        sync.arrive_and_wait();
        // Heavy retire traffic from every thread forces repeated epoch
        // advances while other threads are pinned mid-operation.  Sized
        // so all four threads' records fit one recycled ring (see above).
        for (int i = 0; i < 300; ++i) {
          const int k = t * 100000 + i;
          tree.add(k);
          tree.remove(k);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  const std::uint64_t last = domain.stats().epoch;
  std::vector<std::uint64_t> epochs;
  for (const span_record& s : trace_registry::instance().drain()) {
    if (s.id == sid::ebr_new_epoch) epochs.push_back(s.payload);
  }
  ASSERT_GT(last, first);
  // Each successful advance publishes exactly one epoch, so the events name
  // every epoch in (first, last] once.
  std::sort(epochs.begin(), epochs.end());
  ASSERT_EQ(epochs.size(), last - first);
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    EXPECT_EQ(epochs[i], first + 1 + i);
  }
}

}  // namespace
}  // namespace lfst
