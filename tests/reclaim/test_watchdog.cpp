// Stall-tolerant reclamation: stall detection, cooperative eviction,
// quarantine, the bounded-limbo cap, the hazard escape hatch, and the
// background reclaim_watchdog driver.
//
// Most tests drive `ebr_domain::stall_tick` directly with synthetic tsc
// values, which makes the flag -> grace -> quarantine ladder fully
// deterministic (no sleeps, no calibration).  The last tests exercise the
// real `reclaim_watchdog` thread against wall-clock options.
#include "reclaim/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "reclaim/ebr.hpp"
#include "reclaim/hazard.hpp"

namespace lfst::reclaim {
namespace {

struct counted {
  static std::atomic<int> live;
  int payload = 0;
  counted() { live.fetch_add(1, std::memory_order_relaxed); }
  ~counted() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> counted::live{0};

/// A reader that pins the domain and parks until released, never calling
/// check() -- the "stalled forever" failure mode classic EBR cannot survive.
class parked_reader {
 public:
  explicit parked_reader(ebr_domain& d) {
    thread_ = std::thread([this, &d] {
      ebr_domain::guard g(d);
      pinned_.store(true, std::memory_order_release);
      while (!release_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    while (!pinned_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  ~parked_reader() { release(); }
  void release() {
    release_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> pinned_{false};
  std::atomic<bool> release_{false};
  std::thread thread_;
};

/// Synthetic stall params: zero age thresholds so the ladder fires on
/// consecutive ticks; `now` only has to increase monotonically.
stall_params tick_params(std::uint64_t now, bool quarantine = true,
                         bool escape = false) {
  stall_params p;
  p.now_tsc = now;
  p.stall_age_ticks = 0;
  p.eviction_grace_ticks = 0;
  p.min_epoch_lag = 1;
  p.quarantine = quarantine;
  p.escape_to_hazard = escape;
  return p;
}

TEST(StallDetection, LadderObserveFlagQuarantine) {
  ebr_domain d;
  d.set_escape_domain(nullptr);
  parked_reader reader(d);

  // Tick 1: the reader is pinned at the current epoch -- observed, clock
  // started, and try_advance() succeeds (everyone is at g), so from now on
  // the reader lags by one.
  stall_report r1 = d.stall_tick(tick_params(100));
  EXPECT_EQ(r1.pinned, 1u);
  EXPECT_EQ(r1.flagged, 0u);

  // Tick 2: same epoch, now lagging, age past the (zero) threshold: flag.
  stall_report r2 = d.stall_tick(tick_params(200));
  EXPECT_EQ(r2.stalled, 1u);
  EXPECT_EQ(r2.flagged, 1u);
  EXPECT_EQ(r2.quarantined_now, 0u);

  // Tick 3: still ignoring the request past the (zero) grace: quarantine,
  // and the epoch is free to advance past the dead reader.
  stall_report r3 = d.stall_tick(tick_params(300));
  EXPECT_EQ(r3.quarantined_now, 1u);
  EXPECT_EQ(r3.quarantined, 1u);
  EXPECT_TRUE(r3.advanced);
  EXPECT_EQ(d.quarantined(), 1u);

  // The reader thread exits cleanly; its TLS teardown clears the flags and
  // the quarantine count drops back to zero.
  reader.release();
  EXPECT_EQ(d.quarantined(), 0u);
}

TEST(StallDetection, FlaggedReaderSelfEvictsAndStaysLive) {
  ebr_domain d;
  d.set_escape_domain(nullptr);

  std::atomic<bool> flagged{false};
  std::atomic<bool> evicted{false};
  std::atomic<bool> release{false};
  std::atomic<bool> pinned{false};
  std::thread reader([&] {
    ebr_domain::guard g(d);
    pinned.store(true, std::memory_order_release);
    while (!flagged.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    // The safe point: exactly one check() reports the eviction (and has
    // republished the pin); the next one is quiet again.
    EXPECT_TRUE(g.check());
    EXPECT_FALSE(g.check());
    evicted.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();

  d.stall_tick(tick_params(100));  // observe + advance
  stall_report r = d.stall_tick(tick_params(200));
  ASSERT_EQ(r.flagged, 1u);
  flagged.store(true, std::memory_order_release);
  while (!evicted.load(std::memory_order_acquire)) std::this_thread::yield();

  // The reader republished a fresh epoch: the next pass sees progress
  // (clock restarted), nobody is quarantined.
  stall_report after = d.stall_tick(tick_params(300));
  EXPECT_EQ(after.quarantined_now, 0u);
  EXPECT_EQ(d.quarantined(), 0u);
  release.store(true, std::memory_order_release);
  reader.join();
}

TEST(StallDetection, UnflaggedCheckIsFreeAndFalse) {
  ebr_domain d;
  ebr_domain::guard g(d);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(g.check());
}

TEST(StallDetection, QuarantineUnblocksReclamation) {
  ebr_domain d;
  d.set_escape_domain(nullptr);  // direct frees: count them exactly
  const int before = counted::live.load();
  parked_reader reader(d);

  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 100; ++i) d.retire(new counted);
  }
  // Classic EBR would sit here forever: the parked reader pins the epoch.
  const flush_result stuck = d.try_flush();
  EXPECT_FALSE(stuck.clean());
  EXPECT_EQ(counted::live.load(), before + 100);

  // Walk the ladder; after quarantine the reader no longer blocks
  // try_advance, so a few more ticks age the (handed-off) garbage past its
  // grace period and the drain frees it.
  std::uint64_t now = 100;
  for (int i = 0; i < 8 && counted::live.load() != before; ++i) {
    d.stall_tick(tick_params(now += 100));
    // The garbage lives in *this* thread's limbo buckets; the tick only
    // advances the epoch past the quarantined reader -- a non-quiescent
    // flush then frees the aged buckets.
    d.try_flush();
  }
  EXPECT_EQ(counted::live.load(), before);
  EXPECT_EQ(d.stats().limbo_bytes, 0u);
  EXPECT_EQ(d.stats().overflow_bytes, 0u);
}

TEST(BoundedLimbo, ByteAccountingIsExact) {
  ebr_domain d;
  const int before = counted::live.load();
  {
    ebr_domain::guard g(d);
    // Fewer than kAdvanceEvery so no collection sneaks in mid-loop.
    for (int i = 0; i < 50; ++i) d.retire(new counted);
    EXPECT_EQ(d.my_limbo_size(), 50u);
    EXPECT_EQ(d.my_limbo_bytes(), 50 * sizeof(counted));
    EXPECT_EQ(d.stats().limbo_bytes, 50 * sizeof(counted));
    EXPECT_GE(d.stats().limbo_bytes_hwm, 50 * sizeof(counted));
  }
  const flush_result r = d.flush();
  EXPECT_EQ(r.flushed_blocks, 50u);
  EXPECT_EQ(r.flushed_bytes, 50 * sizeof(counted));
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(d.stats().limbo_bytes, 0u);
  EXPECT_EQ(d.stats().limbo_blocks, 0u);
  EXPECT_EQ(counted::live.load(), before);
}

TEST(BoundedLimbo, CapIsAHardCeilingOnTheHighWatermark) {
  ebr_domain d;
  d.set_escape_domain(nullptr);
  const std::size_t cap = 32 * sizeof(counted);
  d.set_limits(reclaim_limits{cap});
  const int before = counted::live.load();
  parked_reader reader(d);  // blocks collection: limbo can only grow

  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 500; ++i) d.retire(new counted);
  }
  const domain_stats s = d.stats();
  EXPECT_LE(s.limbo_bytes_hwm, cap) << "cap overshot";
  EXPECT_GT(s.overflow_bytes + s.limbo_bytes, 0u);
  // Everything the cap refused is parked on the overflow list, not dropped.
  EXPECT_EQ(s.limbo_bytes + s.overflow_bytes, 500 * sizeof(counted));
  EXPECT_EQ(counted::live.load(), before + 500);

  // Overflow blocks still honor the grace period while the reader lives...
  const flush_result stuck = d.try_flush();
  EXPECT_FALSE(stuck.clean());
  EXPECT_EQ(counted::live.load(), before + 500);

  // ...and once the reader exits, a quiescent flush frees every block from
  // both lists.
  reader.release();
  d.flush();
  EXPECT_EQ(counted::live.load(), before);
  EXPECT_EQ(d.stats().overflow_bytes, 0u);
}

TEST(BoundedLimbo, EscapeHatchRoutesThroughHazardDomain) {
  hp_domain escape;
  ebr_domain d;
  d.set_escape_domain(&escape);
  d.set_limits(reclaim_limits{4 * sizeof(counted)});
  const int before = counted::live.load();
  parked_reader reader(d);

  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 64; ++i) d.retire(new counted);
  }
  // Quarantine the parked reader, then keep ticking with the escape hatch
  // armed: expired overflow blocks must be routed through the hazard domain
  // (and freed by its scan, since nobody holds hazard pointers).
  std::uint64_t now = 100;
  std::size_t escaped = 0;
  for (int i = 0; i < 8; ++i) {
    const stall_report r =
        d.stall_tick(tick_params(now += 100, true, /*escape=*/true));
    escaped += r.overflow_escaped;
  }
  EXPECT_GT(escaped, 0u) << "degraded mode never used the escape hatch";
  // The handful of blocks that fit under the cap are still in this
  // thread's limbo; the epoch has advanced well past their tags.
  d.try_flush();
  EXPECT_EQ(counted::live.load(), before);
}

TEST(Watchdog, ThreadDetectsInjectedStallWithinBoundedTicks) {
  ebr_domain d;
  d.set_escape_domain(nullptr);
  const int before = counted::live.load();

  watchdog_options opts;
  opts.interval = std::chrono::milliseconds(1);
  opts.stall_age = std::chrono::milliseconds(2);
  opts.eviction_grace = std::chrono::milliseconds(2);
  opts.quarantine = true;
  reclaim_watchdog dog(d, opts);

  parked_reader reader(d);
  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 100; ++i) d.retire(new counted);
  }

  dog.start();
  // Detection + quarantine + drain must all land within a bounded number
  // of ticks (generous wall-clock bound: ~2s vs the ~5ms nominal path).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counted::live.load() != before &&
         std::chrono::steady_clock::now() < deadline) {
    // Brief re-pins give this thread's own limbo its collect opportunity
    // (collection is driven from pin(); the watchdog only unblocks the
    // epoch and handles quarantined slots' garbage).
    { ebr_domain::guard g(d); }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  dog.stop();

  EXPECT_EQ(counted::live.load(), before)
      << "watchdog failed to reclaim past a stalled reader";
  bool saw_stall = false;
  bool saw_quarantine = false;
  for (const watchdog_sample& s : dog.samples()) {
    saw_stall |= s.report.stalled > 0;
    saw_quarantine |= s.report.quarantined_now > 0;
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_quarantine);
}

TEST(Watchdog, DefaultOptionsNeverQuarantineAPinnedReader) {
  // Quarantine is opt-in: a default-constructed watchdog may flag a stalled
  // reader for cooperative eviction, but must never declare it failed --
  // the reader may still hold pointers into limbo.
  ebr_domain d;
  d.set_escape_domain(nullptr);
  watchdog_options opts;
  EXPECT_FALSE(opts.quarantine);
  EXPECT_FALSE(stall_params{}.quarantine);
  opts.interval = std::chrono::milliseconds(1);
  opts.stall_age = std::chrono::milliseconds(1);
  opts.eviction_grace = std::chrono::milliseconds(1);
  reclaim_watchdog dog(d, opts);

  parked_reader reader(d);
  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 100; ++i) d.retire(new counted);
  }
  dog.start();
  // Run until the stall has been seen on 20 ticks -- each one far past the
  // 1 ms grace, where a quarantining watchdog would already have acted.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t stalled_ticks = 0;
  while (stalled_ticks < 20 && std::chrono::steady_clock::now() < deadline) {
    { ebr_domain::guard g(d); }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stalled_ticks = 0;
    for (const watchdog_sample& s : dog.samples()) {
      stalled_ticks += s.report.stalled > 0 ? 1 : 0;
    }
  }
  dog.stop();
  EXPECT_GE(stalled_ticks, 20u) << "the parked reader should be detected";
  for (const watchdog_sample& s : dog.samples()) {
    EXPECT_EQ(s.report.quarantined_now, 0u);
    EXPECT_EQ(s.report.quarantined, 0u);
  }
  EXPECT_EQ(d.quarantined(), 0u);
  reader.release();
  d.flush();
}

TEST(Watchdog, QuietDomainProducesQuietSamples) {
  ebr_domain d;
  reclaim_watchdog dog(d);
  const stall_report r = dog.tick_now();
  EXPECT_EQ(r.pinned, 0u);
  EXPECT_EQ(r.stalled, 0u);
  EXPECT_EQ(r.quarantined, 0u);
  EXPECT_EQ(dog.samples().size(), 1u);
  // start/stop idempotence.
  dog.start();
  dog.start();
  dog.stop();
  dog.stop();
}

}  // namespace
}  // namespace lfst::reclaim
