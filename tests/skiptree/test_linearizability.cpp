// Per-key linearizability checking of the skip-tree under concurrency.
//
// Four threads run a random add/remove/contains mix over a small key range
// and record every operation: invoke timestamp, response timestamp, op, key
// and result.  Linearizability is local (Herlihy & Wing), and a set is a
// product of independent per-key registers, so the history is linearizable
// iff each key's subhistory is.  Each subhistory is checked with a
// Wing & Gong search: repeatedly pick an operation that no pending
// operation's response precedes, apply it to the key's boolean state if its
// result agrees, and backtrack otherwise.  A thread's operations are
// sequential, so the search state is one prefix length per thread plus the
// key's state, and visited states are memoized.
//
// The skip-tree runs at q = 1/32 over a key range small enough that leaves
// thin under churn and the leaf merge runs while the history is recorded;
// the test asserts that it did.  In a failpoint build it runs a second
// time with yields armed in the skip-tree's read-to-CAS windows and between
// the merge's steps.  The same recorder and checker then run against the
// other concurrent sets and the skip-tree map layer, whose
// `assign` (the skip-tree's `replace`) stands in for `contains`: it
// returns true iff the key is present.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <thread>
#include <unordered_set>
#include <vector>

#include "avltree/opt_tree.hpp"
#include "avltree/snap_tree.hpp"
#include "blinktree/blink_tree.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/skip_tree_map.hpp"
#include "skiptree/validate.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace lfst::skiptree {
namespace {

constexpr int kThreads = 4;

/// A timestamp ordered against the operation around it: the fences keep
/// the tsc read from passing the op's loads on either side.
std::uint64_t stamp() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

enum class op_kind : std::uint8_t { add, remove, contains };

struct event {
  std::uint64_t invoke;
  std::uint64_t response;
  std::uint32_t key;
  op_kind op;
  bool result;
};

/// Apply `e` to a key whose membership is `present`: false if the result
/// cannot happen in that state, else the state after it in `next`.
bool apply(const event& e, bool present, bool& next) {
  switch (e.op) {
    case op_kind::add:
      next = true;
      return e.result == !present;
    case op_kind::remove:
      next = false;
      return e.result == present;
    case op_kind::contains:
      next = present;
      return e.result == present;
  }
  return false;
}

/// Wing & Gong search over one key's subhistory, split by thread (each
/// list in invocation order).  True iff some linearization exists starting
/// from membership `initial`.
bool linearizable(const std::array<std::vector<event>, kThreads>& h,
                  bool initial) {
  struct state {
    std::array<std::uint32_t, kThreads> done{};
    bool present = false;
  };
  const auto pack = [](const state& s) {
    std::uint64_t k = s.present ? 1u : 0u;
    for (std::uint32_t d : s.done) k = (k << 15) | d;
    return k;
  };
  for (const auto& ops : h) {
    if (ops.size() >= (1u << 15)) return false;  // beyond the packing
  }
  std::unordered_set<std::uint64_t> seen;
  std::vector<state> todo{state{{}, initial}};
  while (!todo.empty()) {
    const state s = todo.back();
    todo.pop_back();
    if (!seen.insert(pack(s)).second) continue;
    // The earliest response among the pending operations: nothing invoked
    // after it can be linearized before it.
    std::uint64_t first_response = ~std::uint64_t{0};
    bool finished = true;
    for (int t = 0; t < kThreads; ++t) {
      if (s.done[t] < h[t].size()) {
        finished = false;
        first_response = std::min(first_response, h[t][s.done[t]].response);
      }
    }
    if (finished) return true;
    for (int t = 0; t < kThreads; ++t) {
      if (s.done[t] == h[t].size()) continue;
      const event& e = h[t][s.done[t]];
      if (e.invoke > first_response) continue;
      state n = s;
      if (!apply(e, s.present, n.present)) continue;
      ++n.done[t];
      todo.push_back(n);
    }
  }
  return false;
}

/// Check every key's subhistory; returns the first key that fails, or -1.
long first_violation(const std::array<std::vector<event>, kThreads>& logs,
                     std::uint32_t key_range,
                     const std::vector<bool>& initial) {
  std::vector<std::array<std::vector<event>, kThreads>> by_key(key_range);
  for (int t = 0; t < kThreads; ++t) {
    for (const event& e : logs[t]) by_key[e.key][t].push_back(e);
  }
  for (std::uint32_t k = 0; k < key_range; ++k) {
    if (!linearizable(by_key[k], initial[k])) return static_cast<long>(k);
  }
  return -1;
}

constexpr std::uint32_t kRange = 1024;

/// Every other key of [0, kRange): the set's starting membership.
std::vector<bool> initial_membership() {
  std::vector<bool> initial(kRange, false);
  for (std::uint32_t k = 0; k < kRange; k += 2) initial[k] = true;
  return initial;
}

/// Run kThreads threads of `ops` random operations each, a 40/40/20
/// add/remove/contains mix over [0, kRange), against `set` and return each
/// thread's history.
template <typename Set>
std::array<std::vector<event>, kThreads> record(Set& set, int ops) {
  std::array<std::vector<event>, kThreads> logs;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      xoshiro256ss rng{0x11ea5u + static_cast<std::uint64_t>(w)};
      std::vector<event>& log = logs[w];
      log.reserve(static_cast<std::size_t>(ops));
      for (int i = 0; i < ops; ++i) {
        const std::uint64_t r = rng.next();
        const auto key = static_cast<std::uint32_t>(r % kRange);
        const std::uint64_t dice = (r >> 32) % 100;
        event e{};
        e.key = key;
        e.op = dice < 40   ? op_kind::add
               : dice < 80 ? op_kind::remove
                           : op_kind::contains;
        e.invoke = stamp();
        switch (e.op) {
          case op_kind::add: e.result = set.add(key); break;
          case op_kind::remove: e.result = set.remove(key); break;
          case op_kind::contains: e.result = set.contains(key); break;
        }
        e.response = stamp();
        log.push_back(e);
      }
    });
  }
  for (std::thread& th : workers) th.join();
  return logs;
}

/// Record 4 x 100,000 operations against every other key of [0, kRange),
/// bulk-loaded (16 full leaves that the churn thins), then check that leaf
/// merges ran, that the history is linearizable and that the tree is valid.
void check_skip_tree_history() {
  std::vector<long> keys;
  for (std::uint32_t k = 0; k < kRange; k += 2) keys.push_back(k);
  skip_tree<long> t = skip_tree<long>::from_sorted(keys);

  const auto logs = record(t, 100000);
  EXPECT_GT(t.stats().leaf_merges, 0u)
      << "the history never saw a leaf merge; shrink the key range";
  EXPECT_EQ(first_violation(logs, kRange, initial_membership()), -1);
  const validation_report rep = skip_tree_inspector<long>(t).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST(Linearizability, PerKeyHistoriesWithLeafMerges) {
  check_skip_tree_history();
}

#ifdef LFST_FAILPOINTS
// The same check with yields at every skip-tree window between a payload
// read and its CAS, and between the leaf merge's steps: operations then
// overlap inside those windows, and writers meet half-done merges.
TEST(Linearizability, PerKeyHistoriesUnderYieldSchedule) {
  using failpoint::registry;
  const char* const merge_sites[] = {
      "skiptree.merge.freeze", "skiptree.merge.copy", "skiptree.merge.empty"};
  const char* const window_sites[] = {
      "skiptree.insert.publish", "skiptree.split.publish",
      "skiptree.compact.8a",     "skiptree.compact.8b",
      "skiptree.compact.8c",     "skiptree.compact.8d",
      "skiptree.traverse.step"};
  const auto arm = [](const char* site) {
    registry::instance().configure(
        site, failpoint::policy{.act = failpoint::action::yield,
                                .probability = 0.05,
                                .delay_iters = 4});
  };
  registry::instance().reset_all();
  for (const char* site : merge_sites) arm(site);
  for (const char* site : window_sites) arm(site);
  check_skip_tree_history();
  std::uint64_t merge_fires = 0;
  for (const char* site : merge_sites) {
    merge_fires += registry::instance().fires(site);
  }
  registry::instance().reset_all();
  EXPECT_GT(merge_fires, 0u) << "no yield fired inside a leaf merge";
}
#endif

/// The map layer as a set: insert, erase, and assign for contains.
struct map_as_set {
  skip_tree_map<long, long> map;
  bool add(long k) { return map.insert(k, k); }
  bool remove(long k) { return map.erase(k); }
  bool contains(long k) { return map.assign(k, k + 1); }
};

template <typename Set>
class LinearizabilityOf : public ::testing::Test {};

using OtherSets =
    ::testing::Types<skiplist::skip_list<long>, blinktree::blink_tree<long>,
                     avltree::opt_tree<long>, avltree::snap_tree<long>,
                     map_as_set>;
TYPED_TEST_SUITE(LinearizabilityOf, OtherSets);

TYPED_TEST(LinearizabilityOf, PerKeyHistories) {
  TypeParam set;
  for (std::uint32_t k = 0; k < kRange; k += 2) ASSERT_TRUE(set.add(k));
  // A quarter of the skip-tree's history: about 100 operations per key.
  const auto logs = record(set, 25000);
  EXPECT_EQ(first_violation(logs, kRange, initial_membership()), -1);
}

// The checker itself: a hand-written history with a remove that returned
// true without erasing is rejected, and its linearizable twin accepted.
TEST(Linearizability, CheckerRejectsARemoveThatDidNotErase) {
  std::array<std::vector<event>, kThreads> h;
  // Thread 0: remove(k) -> true, then contains(k) -> true, sequentially,
  // with no other operation on k: the contains must have seen k erased.
  h[0] = {{10, 20, 0, op_kind::remove, true},
          {30, 40, 0, op_kind::contains, true}};
  EXPECT_FALSE(linearizable(h, /*initial=*/true));
  // An add(k) on thread 1 overlapping both makes the same results legal.
  h[1] = {{15, 35, 0, op_kind::add, true}};
  EXPECT_TRUE(linearizable(h, /*initial=*/true));
  // ... but not when it was invoked after the contains returned.
  h[1] = {{45, 50, 0, op_kind::add, true}};
  EXPECT_FALSE(linearizable(h, /*initial=*/true));
}

}  // namespace
}  // namespace lfst::skiptree
