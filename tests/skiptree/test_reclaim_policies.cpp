// Conformance of skip_tree across reclamation policies.
//
// The tree takes its reclamation scheme as the `Reclaim` template
// parameter.  Two policies satisfy its contract today:
//
//   * reclaim::ebr_policy   -- the default; epoch-based grace periods.
//   * reclaim::leaky_policy -- parks retired payloads until the domain
//     dies; the "GC will get it eventually" upper bound.
//
// A per-pointer slot scheme such as hazard pointers cannot satisfy that
// contract.  The tree asks a policy for `guard_type`, an RAII pin that
// makes EVERY payload reachable during the guarded operation safe to
// dereference.  add() keeps the payload snapshot of every node on its
// descent alive at once -- the `srchs` array spans up to max_height + 1
// levels (25 at the default options, 33 at kMaxHeightLimit) -- and
// remove()'s compaction also holds parent/child/sibling payloads while it
// decides a transform.  A fixed budget of per-thread slots cannot cover
// that set, and a publish-and-revalidate per hop would land on the
// wait-free contains() fast path.
//
// The battery below instantiates the tree with both policies (on top of
// both allocation policies) and checks the same behaviour for each.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "alloc/pool.hpp"
#include "reclaim/leaky.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst::skiptree {
namespace {

// The behavioral battery, shared by every (Reclaim, Alloc) combination.
template <typename Tree>
void run_battery() {
  typename Tree::domain_t domain;  // tree-local: reclamation is observable
  skip_tree_options opts;
  opts.q_log2 = 3;  // narrow nodes so the battery exercises splits
  {
    Tree t(opts, domain);

    // Single-threaded semantics.
    for (long k = 0; k < 2000; ++k) ASSERT_TRUE(t.add(k * 2));
    for (long k = 0; k < 2000; ++k) ASSERT_FALSE(t.add(k * 2));
    EXPECT_EQ(t.size(), 2000u);
    EXPECT_TRUE(t.contains(1998));
    EXPECT_FALSE(t.contains(1999));
    long out = 0;
    EXPECT_TRUE(t.lower_bound(1999, out));
    EXPECT_EQ(out, 2000);
    for (long k = 0; k < 2000; k += 2) ASSERT_TRUE(t.remove(k * 2));
    EXPECT_EQ(t.size(), 1000u);

    // A short concurrent shake: the policies differ exactly in when
    // replaced payloads are freed, so mutate under parallel readers.
    std::vector<std::thread> ws;
    for (int w = 0; w < 4; ++w) {
      ws.emplace_back([&t, w] {
        for (long k = 0; k < 1500; ++k) {
          const long key = 10000 + k * 4 + w;
          t.add(key);
          t.contains(key);
          if (k % 3 == 0) t.remove(key);
        }
      });
    }
    for (auto& w : ws) w.join();

    const auto rep =
        skip_tree_inspector<long, std::less<long>, typename Tree::reclaim_t,
                            typename Tree::alloc_t>(t)
            .validate();
    EXPECT_TRUE(rep.ok) << rep.to_string();
    EXPECT_EQ(t.count_keys(), t.size());
  }
  // The tree (and for leaky, its parked payloads) died with the domain in
  // scope: destruction order bugs would crash here, not assert.
}

TEST(SkipTreeReclaimPolicies, EbrPooled) {
  run_battery<skip_tree<long>>();
}

TEST(SkipTreeReclaimPolicies, EbrNewDelete) {
  run_battery<skip_tree<long, std::less<long>, reclaim::ebr_policy,
                        alloc::new_delete_policy>>();
}

TEST(SkipTreeReclaimPolicies, LeakyPooled) {
  run_battery<
      skip_tree<long, std::less<long>, reclaim::leaky_policy>>();
}

TEST(SkipTreeReclaimPolicies, LeakyNewDelete) {
  run_battery<skip_tree<long, std::less<long>, reclaim::leaky_policy,
                        alloc::new_delete_policy>>();
}

TEST(SkipTreeReclaimPolicies, LeakyParksUntilDomainDeath) {
  // Observable difference between the policies: under leaky, every replaced
  // payload stays allocated until the domain dies.  Three snapshots tell
  // the story: zero pool deallocations while the tree mutates, the tree's
  // destructor frees only the LIVE structure, and the domain's destructor
  // finally hands the parked payloads back to the pool.
  const auto before = alloc::pool_policy::counters();
  std::uint64_t after_tree_deallocs = 0;
  {
    reclaim::leaky_domain domain;
    {
      skip_tree<long, std::less<long>, reclaim::leaky_policy> t(
          skip_tree_options{}, domain);
      for (long k = 0; k < 500; ++k) t.add(k);
      for (long k = 0; k < 500; ++k) t.remove(k);
      const auto during = alloc::pool_policy::counters();
      EXPECT_EQ(during.deallocations - before.deallocations, 0u)
          << "leaky_policy freed a payload before domain destruction";
    }
    after_tree_deallocs = alloc::pool_policy::counters().deallocations;
  }
  const auto after = alloc::pool_policy::counters();
  EXPECT_GT(after.deallocations - after_tree_deallocs, 0u)
      << "domain destruction did not release parked payloads to the pool";
}

}  // namespace
}  // namespace lfst::skiptree
