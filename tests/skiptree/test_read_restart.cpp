// Every skip-tree operation reaches its leaf through one descent,
// `traverse_ops::locate`, whose steps are cooperative-eviction safe points:
// when the guard's check() reports an eviction, every pointer in hand is
// stale and the descent restarts from the root.  `add` and `remove` take the
// same descent, recording hints and compacting on the way down.
//
// The policy below wraps the EBR guard and reports an eviction exactly once
// per operation, at that operation's n-th check() (the EBR pin itself stays
// put, so the restart is the only thing under test).  For every n from 1 to
// 6, each operation must still agree with a std::set oracle, and each must
// actually pass the safe point: the policy counts the checks.  The writers
// remove every probed key and re-add every other one, so routing copies go
// dead and remove's compaction has work to do; after each n the tree must
// validate and list exactly the oracle's keys.  A second test builds, with
// explicit heights, a shape in which a per-level bound carried across
// a restart would make remove's compaction strand keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "reclaim/ebr.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst::skiptree {
namespace {

/// What the guards of the current operation saw.  Tests are single-threaded.
struct check_log {
  static inline int evict_at = 0;  ///< 1-based check that evicts; 0: never
  static inline int checks = 0;
  static inline int evictions = 0;
};

/// An EBR guard whose `evict_at`-th check() reports an eviction.
class evicting_guard {
 public:
  explicit evicting_guard(reclaim::ebr_domain& d) : inner_(d) {}
  evicting_guard(const evicting_guard&) = delete;
  evicting_guard& operator=(const evicting_guard&) = delete;

  bool check() noexcept {
    ++check_log::checks;
    const bool planned = ++seen_ == check_log::evict_at;
    if (planned) ++check_log::evictions;
    return inner_.check() || planned;
  }

 private:
  reclaim::ebr_domain::guard inner_;
  int seen_ = 0;
};

struct evicting_policy : reclaim::ebr_policy {
  using guard_type = evicting_guard;
};

/// A map-like element: ordered by `k` only, so `get` and `replace` can see
/// and change `v`.
struct entry {
  long k = 0;
  long v = 0;
};
struct by_key {
  bool operator()(const entry& a, const entry& b) const { return a.k < b.k; }
};

using tree_t = skip_tree<entry, by_key, evicting_policy>;
using oracle_t = std::set<entry, by_key>;

enum op {
  kContains,
  kLowerBound,
  kGet,
  kForRange,
  kReplace,
  kRemove,
  kAdd,
  kOps
};
constexpr const char* kOpNames[kOps] = {
    "contains", "lower_bound", "get", "for_range", "replace", "remove", "add"};

TEST(ReadRestart, EveryOperationRestartsAtItsNthSafePoint) {
  reclaim::ebr_domain domain;
  skip_tree_options o;
  o.q_log2 = 2;  // 4-key nodes: 8000 keys build a tree of height >= 2
  tree_t tree(o, domain);
  oracle_t oracle;
  xoshiro256ss rng(0x5afe);
  constexpr long kRange = 32000;
  while (oracle.size() < 8000) {
    const entry e{static_cast<long>(rng.below(kRange)), 0};
    ASSERT_EQ(tree.add(e), oracle.insert(e).second);
  }
  ASSERT_GE(tree.height(), 2);

  for (int n = 1; n <= 6; ++n) {
    check_log::evict_at = n;
    int min_checks[kOps];
    int evicted_ops[kOps] = {};
    for (int& m : min_checks) m = 1 << 30;
    // Run one operation and account for the safe points it passed.
    const auto run = [&](op which, const auto& body) {
      check_log::checks = 0;
      check_log::evictions = 0;
      body();
      ASSERT_EQ(check_log::evictions, check_log::checks >= n ? 1 : 0)
          << kOpNames[which] << ": one eviction, at check " << n;
      min_checks[which] = std::min(min_checks[which], check_log::checks);
      evicted_ops[which] += check_log::evictions;
    };

    for (long p = -3; p < kRange + 3; p += 29) {
      const entry probe{p, 0};
      const auto hit = oracle.find(probe);
      run(kContains, [&] {
        EXPECT_EQ(tree.contains(probe), hit != oracle.end()) << p;
      });
      run(kLowerBound, [&] {
        entry out;
        const auto want = oracle.lower_bound(probe);
        ASSERT_EQ(tree.lower_bound(probe, out), want != oracle.end()) << p;
        if (want != oracle.end()) {
          EXPECT_EQ(out.k, want->k) << p;
        }
      });
      run(kGet, [&] {
        entry out;
        ASSERT_EQ(tree.get(probe, out), hit != oracle.end()) << p;
        if (hit != oracle.end()) {
          EXPECT_EQ(out.v, hit->v) << p;
        }
      });
      run(kForRange, [&] {
        std::vector<long> got;
        EXPECT_TRUE(tree.for_range(probe, entry{p + 40, 0},
                                   [&](const entry& e) {
                                     got.push_back(e.k);
                                     return true;
                                   }));
        std::vector<long> want;
        for (auto it = oracle.lower_bound(probe);
             it != oracle.end() && it->k < p + 40; ++it) {
          want.push_back(it->k);
        }
        EXPECT_EQ(got, want) << p;
      });
      run(kReplace, [&] {
        const entry repl{p, n * 100000L + p};
        const bool present = hit != oracle.end();
        ASSERT_EQ(tree.replace(repl), present) << p;
        if (present) {
          oracle.erase(hit);
          oracle.insert(repl);
        }
      });
      run(kRemove, [&] {
        EXPECT_EQ(tree.remove(probe), oracle.erase(probe) == 1) << p;
      });
      if ((p + 3) / 29 % 2 == 0) {
        run(kAdd, [&] {
          const entry e{p, n};
          EXPECT_EQ(tree.add(e), oracle.insert(e).second) << p;
        });
      }
    }

    const auto rep =
        skip_tree_inspector<entry, by_key, evicting_policy>(tree).validate();
    ASSERT_TRUE(rep.ok) << "n = " << n << "\n" << rep.to_string();
    std::vector<long> listed;
    tree.for_each([&](const entry& e) { listed.push_back(e.k); });
    std::vector<long> want;
    for (const entry& e : oracle) want.push_back(e.k);
    ASSERT_EQ(listed, want) << "n = " << n;

    for (int which = 0; which < kOps; ++which) {
      EXPECT_GE(min_checks[which], 2)
          << kOpNames[which] << " must pass a safe point per descent step";
      EXPECT_GT(evicted_ops[which], 0)
          << kOpNames[which] << " never reached check " << n;
    }
  }
  check_log::evict_at = 0;

  // Every replaced or re-added value is visible, and the tree is intact.
  for (const entry& e : oracle) {
    entry out;
    ASSERT_TRUE(tree.get(e, out));
    ASSERT_EQ(out.v, e.v) << e.k;
  }
  const auto rep =
      skip_tree_inspector<entry, by_key, evicting_policy>(tree).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

// An eviction restart starts every per-level bound over.  The shape below
// is built with explicit heights and removes (the absent-key removes only
// compact): before the last remove the root's slot-0 child holds [10, 19],
// so probe 26 is past its end and crosses a link there, then crosses
// another on level 1 from a node holding [19, 24], and the eviction lands
// on the check right after that deeper hop.  The restarted descent goes
// down the root's slot 0 again.  Had the bound crossed on level 1 survived
// the restart, remove's `clean_node` would judge the root's [10, 19] child
// against 24, bypass it, and strand key 10.
TEST(ReadRestart, RestartDropsTheBoundCrossedBelowTheRoot) {
  struct step {
    bool add;
    long key;
    int height;    // add only
    int evict_at;  // 0: no eviction
  };
  constexpr step kSteps[] = {
      {true, 19, 3, 0},   {false, 13, 0, 2}, {true, 51, 4, 0},
      {true, 25, 1, 0},   {false, 26, 0, 0}, {true, 10, 3, 0},
      {false, 25, 0, 0},  {true, 25, 3, 0},  {false, 29, 0, 0},
      {true, 24, 2, 0},   {false, 26, 0, 8},
  };
  reclaim::ebr_domain domain;
  skip_tree_options o;
  o.q_log2 = 2;
  tree_t tree(o, domain);
  oracle_t oracle;
  for (const step& s : kSteps) {
    check_log::evict_at = s.evict_at;
    check_log::evictions = 0;
    const entry e{s.key, 0};
    if (s.add) {
      ASSERT_EQ(tree.add_with_height(e, s.height), oracle.insert(e).second)
          << s.key;
    } else {
      ASSERT_EQ(tree.remove(e), oracle.erase(e) == 1) << s.key;
    }
    ASSERT_EQ(check_log::evictions, s.evict_at > 0 ? 1 : 0) << s.key;
  }
  check_log::evict_at = 0;
  ASSERT_EQ(tree.height(), 4);

  for (const entry& e : oracle) {
    EXPECT_TRUE(tree.contains(e)) << "key " << e.k << " is unreachable";
  }
  std::vector<long> listed;
  tree.for_each([&](const entry& e) { listed.push_back(e.k); });
  std::vector<long> want;
  for (const entry& e : oracle) want.push_back(e.k);
  EXPECT_EQ(listed, want);
  const auto rep =
      skip_tree_inspector<entry, by_key, evicting_policy>(tree).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

}  // namespace
}  // namespace lfst::skiptree
