// Chaos schedules for stall-tolerant reclamation (DESIGN.md Sec. 8).
//
// The headline schedule is a long-running reader that holds one guard for
// the whole run while healthy threads churn removals -- the stall classic
// EBR turns into unbounded garbage.  With a reclaim_watchdog the watchdog
// must evict the reader at its check() safe point so reclamation keeps
// pace -- the in-limbo footprint at the end of the churn stays bounded, not
// proportional to the op count -- and every healthy thread must complete
// with the structure validating.  The contrast run -- same churn, no
// watchdog -- demonstrates the unbounded growth eviction exists to prevent
// (numbers quoted in EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "reclaim/watchdog.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst::skiptree {
namespace {

using failpoint::action;
using failpoint::policy;
using failpoint::registry;

constexpr int kThreads = 4;
constexpr int kKeyRange = 4096;
// Footprint yardstick: the watchdog run must end under 16x this, the
// contrast run must peak above it.
constexpr std::size_t kFootprintUnit = 64 * 1024;

/// Delay-family failpoints: widen the read-to-CAS windows so the churn
/// exercises real interleavings, same sites as test_chaos_skiptree.
void arm_delays() {
  registry::instance().reset_all();
  for (const char* site :
       {"skiptree.insert.publish", "skiptree.split.publish",
        "skiptree.root.raise", "skiptree.compact.8a", "skiptree.compact.8b",
        "skiptree.compact.8c", "skiptree.compact.8d",
        "skiptree.traverse.step", "ebr.pin", "ebr.retire", "ebr.advance"}) {
    registry::instance().configure(
        site,
        policy{.act = action::yield, .probability = 0.05, .delay_iters = 4});
  }
}

/// A long-running reader: one guard held until release(), reading the tree
/// in bursts with a `check()` safe point between them.  Without a watchdog
/// nobody asks it to move, so it pins the epoch for the whole run; with
/// one, each eviction republishes its pin and lets reclamation catch up.
class pinned_reader {
 public:
  pinned_reader(reclaim::ebr_domain& d, const skip_tree<int>& tree)
      : domain_(d) {
    thread_ = std::thread([this, &tree] {
      // Read under the pin so the stall is a *mid-read* stall, not an idle
      // pin.
      auto read_burst = [&tree] {
        for (int k = 0; k < 64; ++k) (void)tree.contains(k);
      };
      reclaim::ebr_domain::guard g(domain_);
      read_burst();
      pinned_.store(true, std::memory_order_release);
      while (!release_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (g.check()) evictions_.fetch_add(1, std::memory_order_relaxed);
        read_burst();
      }
    });
    while (!pinned_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  ~pinned_reader() { release(); }
  void release() {
    release_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  int evictions() const { return evictions_.load(std::memory_order_relaxed); }

 private:
  reclaim::ebr_domain& domain_;
  std::atomic<bool> pinned_{false};
  std::atomic<bool> release_{false};
  std::atomic<int> evictions_{0};
  std::thread thread_;
};

struct churn_outcome {
  reclaim::domain_stats stats;
  std::size_t expected_keys = 0;
  bool validated = false;
  std::size_t ops = 0;
  int evictions = 0;
};

/// Owner-partitioned add/remove/contains churn against a tree whose domain
/// has one reader holding a guard for the entire run.  Remove-heavy on purpose: the
/// point is to generate garbage nobody can collect classically.
churn_outcome churn_with_pinned_reader(reclaim::ebr_domain& domain,
                                       bool with_watchdog,
                                       std::atomic<bool>* stop_when,
                                       int iters) {
  skip_tree<int> tree(skip_tree_options{}, domain);
  for (int k = 0; k < kKeyRange; ++k) tree.add(k);
  arm_delays();

  // Stall age picked so the epoch stays pinned long enough for limbo to
  // pile up past kFootprintUnit before each eviction unblocks it.
  reclaim::watchdog_options wopts;
  wopts.interval = std::chrono::milliseconds(1);
  wopts.stall_age = std::chrono::milliseconds(5);
  reclaim::reclaim_watchdog dog(domain, wopts);

  pinned_reader reader(domain, tree);
  if (with_watchdog) dog.start();

  std::vector<std::set<int>> mirrors(kThreads);
  for (int k = 0; k < kKeyRange; ++k) {
    mirrors[static_cast<std::size_t>(k % kThreads)].insert(k);
  }
  std::atomic<std::size_t> ops{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      xoshiro256ss rng{thread_seed(0x57a11u, static_cast<std::uint64_t>(t))};
      std::set<int>& mine = mirrors[static_cast<std::size_t>(t)];
      int i = 0;
      while (i < iters ||
             (stop_when != nullptr &&
              !stop_when->load(std::memory_order_acquire))) {
        ++i;
        const int key =
            t + kThreads * static_cast<int>(rng.next() % (kKeyRange / kThreads));
        const std::uint64_t dice = rng.next() % 100;
        if (dice < 60) {
          if (tree.remove(key)) {
            ASSERT_EQ(mine.erase(key), 1u);
          } else {
            ASSERT_EQ(mine.count(key), 0u);
          }
        } else if (dice < 85) {
          if (tree.add(key)) {
            ASSERT_TRUE(mine.insert(key).second);
          } else {
            ASSERT_EQ(mine.count(key), 1u);
          }
        } else {
          ASSERT_EQ(tree.contains(key), mine.count(key) == 1);
        }
      }
      ops.fetch_add(static_cast<std::size_t>(i), std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  dog.stop();
  registry::instance().reset_all();

  churn_outcome out;
  out.stats = domain.stats();  // sampled BEFORE the reader unparks
  out.ops = ops.load();

  // Healthy threads completed; now the full oracle.
  std::set<int> expected;
  for (const auto& m : mirrors) expected.insert(m.begin(), m.end());
  out.expected_keys = expected.size();
  skip_tree_inspector<int> inspector(tree);
  const validation_report rep = inspector.validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(tree.count_keys(), expected.size());
  for (int key : expected) {
    EXPECT_TRUE(tree.contains(key)) << "surviving key lost: " << key;
  }
  out.validated = rep.ok;

  reader.release();
  out.evictions = reader.evictions();
  if (with_watchdog) {
    EXPECT_GT(dog.totals().stalled_ticks, 0u)
        << "watchdog never detected the pinned reader";
    EXPECT_GT(out.evictions, 0) << "the reader never self-evicted";
    // Eviction let reclamation keep pace: the limbo footprint at the
    // end of the churn is bounded, not proportional to the op count.
    EXPECT_LT(out.stats.limbo_bytes, 16 * kFootprintUnit)
        << "reclamation did not progress past the evicted reader";
  }
  return out;
}

// The acceptance schedule: one long-running reader holding its guard for
// the whole run + sustained remove churn.  The watchdog must evict the
// reader at its safe point, the footprint left at the end of the churn
// must stay bounded, and every healthy thread completes and validates.
TEST(ChaosReclaim, PinnedReaderFootprintStaysBounded) {
  reclaim::ebr_domain domain;
  // Run long enough for the watchdog to evict the reader many times.
  std::atomic<bool> stop{false};
  std::thread timer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    stop.store(true, std::memory_order_release);
  });
  const churn_outcome out = churn_with_pinned_reader(
      domain, /*with_watchdog=*/true, &stop, /*iters=*/2000);
  timer.join();
  EXPECT_TRUE(out.validated);
  std::printf(
      "--- watchdog: %zu ops, limbo hwm %zu B, end footprint %zu B, "
      "%d evictions ---\n",
      out.ops, out.stats.limbo_bytes_hwm, out.stats.limbo_bytes,
      out.evictions);
}

// Contrast run for EXPERIMENTS.md: same churn, no watchdog.  The pinned
// reader blocks every epoch advance, so limbo grows with the op count.
TEST(ChaosReclaim, PinnedReaderWithoutWatchdogGrows) {
  reclaim::ebr_domain domain;
  const churn_outcome out = churn_with_pinned_reader(
      domain, /*with_watchdog=*/false, nullptr, /*iters=*/4000);
  EXPECT_GT(out.stats.limbo_bytes_hwm, kFootprintUnit)
      << "contrast run failed to demonstrate unbounded growth";
  EXPECT_TRUE(out.validated);
  std::printf("--- no watchdog: %zu ops, limbo hwm %zu B (%.1fx 64 KiB) ---\n",
              out.ops, out.stats.limbo_bytes_hwm,
              static_cast<double>(out.stats.limbo_bytes_hwm) /
                  static_cast<double>(kFootprintUnit));
}

}  // namespace
}  // namespace lfst::skiptree
