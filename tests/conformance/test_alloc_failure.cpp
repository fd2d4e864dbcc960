// Allocation-failure conformance across every Alloc-parameterized
// structure: after an injected bad_alloc, (a) the structure is still valid
// and usable, (b) the op's reported result is correct -- an op that threw
// did not happen, an op that returned did exactly what it said.
//
// Faults are injected through a test-local Alloc policy (`flaky_alloc`)
// with a deterministic countdown, so this suite runs in EVERY build
// configuration -- no LFST_FAILPOINTS required -- and is part of tier 1.
// The runtime-failpoint chaos suite (tests/chaos/) covers the skip-tree's
// concurrent schedules; this file covers the sequential contract of the
// sibling structures: skip_list and blink_tree, plus the skip-tree itself
// for symmetry.
#include <gtest/gtest.h>

#include <atomic>
#include <new>
#include <set>
#include <vector>

#include "alloc/pool.hpp"
#include "blinktree/blink_tree.hpp"
#include "common/rng.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst {
namespace {

/// Alloc policy that throws bad_alloc when its countdown hits zero.  The
/// Tag parameter gives each structure-under-test its own static state.
template <typename Tag>
struct flaky_alloc {
  // countdown semantics: < 0 disarmed; 0 -> next allocate throws; n -> the
  // n-th allocate from now throws.
  static inline std::atomic<long> countdown{-1};
  static inline std::atomic<long> failures{0};

  static void* allocate(std::size_t bytes, std::size_t align) {
    long c = countdown.load(std::memory_order_relaxed);
    while (c >= 0 && !countdown.compare_exchange_weak(
                         c, c - 1, std::memory_order_relaxed)) {
    }
    if (c == 0) {
      failures.fetch_add(1, std::memory_order_relaxed);
      throw std::bad_alloc{};
    }
    return alloc::new_delete_policy::allocate(bytes, align);
  }
  static void deallocate(void* p, std::size_t bytes, std::size_t align) {
    alloc::new_delete_policy::deallocate(p, bytes, align);
  }
  static alloc::alloc_counters counters() noexcept { return {}; }

  static void disarm() { countdown.store(-1, std::memory_order_relaxed); }
  static void fail_after(long n) {
    countdown.store(n, std::memory_order_relaxed);
  }
};

/// Drive a mixed sequential workload against `s` with a std::set mirror,
/// arming one allocation failure every few ops.  Every divergence between
/// the structure and the mirror is a conformance failure.
/// `expect_throws` is false for structures whose only Alloc allocations sit
/// on swallowed paths (the blink tree's deferred splits): there the countdown
/// fires but no bad_alloc ever reaches the caller, by design.
template <typename Set, typename Alloc>
void mixed_workload_with_failures(Set& s, int ops, bool expect_throws = true) {
  Alloc::disarm();
  std::set<int> mirror;
  xoshiro256ss rng{0xfa11edu};
  int thrown = 0;
  for (int i = 0; i < ops; ++i) {
    const int key = static_cast<int>(rng.next() % 512);
    const std::uint64_t dice = rng.next() % 100;
    if (i % 3 == 0) {
      // Arm: fail the (i/3 % 4)-th allocation of the next op, cycling the
      // failure deeper into multi-allocation ops (towers, splits).
      Alloc::fail_after((i / 3) % 4);
    }
    try {
      if (dice < 50) {
        const bool added = s.add(key);
        EXPECT_EQ(added, mirror.insert(key).second) << "add(" << key << ")";
      } else if (dice < 80) {
        const bool removed = s.remove(key);
        EXPECT_EQ(removed, mirror.erase(key) == 1u)
            << "remove(" << key << ")";
      } else {
        EXPECT_EQ(s.contains(key), mirror.count(key) == 1u)
            << "contains(" << key << ")";
      }
    } catch (const std::bad_alloc&) {
      ++thrown;  // strong guarantee: the op did not happen
    }
    Alloc::disarm();
  }
  if (expect_throws) {
    EXPECT_GT(thrown, 0) << "the countdown never produced a visible throw";
  }
  // Full final audit: exact membership both ways.
  for (int k = 0; k < 512; ++k) {
    ASSERT_EQ(s.contains(k), mirror.count(k) == 1u) << "final audit: " << k;
  }
  std::size_t n = 0;
  s.for_each([&](const int&) { ++n; });
  EXPECT_EQ(n, mirror.size());
  EXPECT_EQ(s.size(), mirror.size());
}

struct skiplist_tag {};
struct blink_tag {};
struct skiptree_tag {};

TEST(AllocFailureConformance, SkipList) {
  using A = flaky_alloc<skiplist_tag>;
  reclaim::ebr_domain domain;
  skiplist::skip_list<int, std::less<int>, reclaim::ebr_policy, A> l(
      skiplist::skip_list_options{}, domain);
  mixed_workload_with_failures<decltype(l), A>(l, 6000);
  EXPECT_GT(A::failures.load(), 0);
  domain.flush();
}

TEST(AllocFailureConformance, BlinkTree) {
  using A = flaky_alloc<blink_tag>;
  // Small nodes (M = 2) so splits -- the multi-allocation path -- happen
  // constantly under the armed countdown.
  blinktree::blink_tree<int, std::less<int>, A> t(
      blinktree::blink_tree_options{.min_node_size = 2});
  // Every Alloc allocation in the blink tree sits on a deferred-split path
  // that swallows bad_alloc, so nothing propagates: expect_throws = false.
  mixed_workload_with_failures<decltype(t), A>(t, 6000, /*expect_throws=*/false);
  EXPECT_GT(A::failures.load(), 0);
}

TEST(AllocFailureConformance, BlinkTreeDeferredSplitsRecover) {
  using A = flaky_alloc<blink_tag>;
  A::disarm();
  blinktree::blink_tree<int, std::less<int>, A> t(
      blinktree::blink_tree_options{.min_node_size = 2});
  // Fail every node allocation while filling: every split is deferred, so
  // nodes grow past 2M but stay valid; adds that throw must not lose keys.
  std::set<int> mirror;
  for (int k = 0; k < 200; ++k) {
    A::fail_after(0);
    try {
      if (t.add(k)) mirror.insert(k);
    } catch (const std::bad_alloc&) {
      // the insert itself may fail once a node outgrows its reservation
    }
    A::disarm();
  }
  EXPECT_GT(mirror.size(), 0u);
  EXPECT_GT(t.stats().deferred_splits, 0u);
  EXPECT_EQ(t.stats().splits, 0u);
  for (int k : mirror) ASSERT_TRUE(t.contains(k)) << k;
  // With allocation healthy again, the structure resumes splitting.
  for (int k = 200; k < 400; ++k) {
    ASSERT_TRUE(t.add(k));
    mirror.insert(k);
  }
  for (int k : mirror) ASSERT_TRUE(t.contains(k)) << k;
  EXPECT_EQ(t.size(), mirror.size());
  EXPECT_GT(t.stats().splits, 0u);
}

TEST(AllocFailureConformance, SkipTree) {
  using A = flaky_alloc<skiptree_tag>;
  reclaim::ebr_domain domain;
  skiptree::skip_tree<int, std::less<int>, reclaim::ebr_policy, A> t(
      skiptree::skip_tree_options{}, domain);
  mixed_workload_with_failures<decltype(t), A>(t, 6000);
  EXPECT_GT(A::failures.load(), 0);
  const auto stats = t.stats();
  EXPECT_GT(stats.alloc_failures + stats.compactions_skipped, 0u);
  skiptree::skip_tree_inspector<int, std::less<int>, reclaim::ebr_policy, A>
      inspector(t);
  const auto rep = inspector.validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  domain.flush();
}

}  // namespace
}  // namespace lfst
