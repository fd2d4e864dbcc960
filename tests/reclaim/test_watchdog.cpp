// Stall-tolerant reclamation: stall detection, cooperative eviction, exact
// limbo accounting, and the background reclaim_watchdog thread.
//
// Most tests drive `ebr_domain::stall_tick` directly with synthetic tsc
// values, which makes the observe -> flag ladder fully deterministic (no
// sleeps, no calibration).  The last tests exercise the real
// `reclaim_watchdog` thread against wall-clock options.
//
// The contract under test: a reader that answers at a `guard::check()` safe
// point is evicted and reclamation moves on; a reader that never does keeps
// blocking the epoch, and nothing retired after its pin is ever freed.
#include "reclaim/watchdog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "reclaim/ebr.hpp"

namespace lfst::reclaim {
namespace {

struct counted {
  static std::atomic<int> live;
  int payload = 0;
  counted() { live.fetch_add(1, std::memory_order_relaxed); }
  ~counted() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> counted::live{0};

/// A reader that pins the domain and holds the guard until released.  A
/// parked reader never reaches a safe point -- the "stalled forever" failure
/// mode classic EBR cannot survive.  A running reader calls check() between
/// reads, the long scan cooperative eviction is built for.
class pinned_reader {
 public:
  enum class mode { parked, running };

  pinned_reader(ebr_domain& d, mode m) {
    thread_ = std::thread([this, &d, m] {
      ebr_domain::guard g(d);
      pinned_.store(true, std::memory_order_release);
      while (!release_.load(std::memory_order_acquire)) {
        if (m == mode::running && g.check()) {
          evictions_.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();
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
  std::atomic<bool> pinned_{false};
  std::atomic<bool> release_{false};
  std::atomic<int> evictions_{0};
  std::thread thread_;
};

/// Synthetic stall params: a zero age threshold so the ladder fires on
/// consecutive ticks; `now` only has to increase monotonically.
stall_params tick_params(std::uint64_t now) {
  stall_params p;
  p.now_tsc = now;
  p.stall_age_ticks = 0;
  return p;
}

TEST(StallDetection, LadderObserveFlag) {
  ebr_domain d;
  const int before = counted::live.load();
  pinned_reader reader(d, pinned_reader::mode::parked);
  {
    ebr_domain::guard g(d);
    // Fewer than kAdvanceEvery so no advance sneaks in mid-loop.
    for (int i = 0; i < 50; ++i) d.retire(new counted);
  }

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

  // Tick 3 on: the reader ignores the request.  It stays flagged (no second
  // request is issued), keeps blocking the epoch, and nothing retired after
  // its pin is freed -- however long the watchdog keeps ticking.
  std::uint64_t now = 200;
  for (int tick = 3; tick < 20; ++tick) {
    const stall_report r = d.stall_tick(tick_params(now += 100));
    EXPECT_EQ(r.pinned, 1u);
    EXPECT_EQ(r.stalled, 1u);
    EXPECT_EQ(r.flagged, 0u);
    EXPECT_FALSE(r.advanced);
    EXPECT_FALSE(d.try_flush().clean());
    EXPECT_EQ(counted::live.load(), before + 50);
  }

  // Once the reader exits, the garbage goes.
  reader.release();
  d.flush();
  EXPECT_EQ(counted::live.load(), before);
}

TEST(StallDetection, FlaggedReaderSelfEvictsAndStaysLive) {
  ebr_domain d;

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
  // (clock restarted), so nothing is stalled and the epoch moves again.
  stall_report after = d.stall_tick(tick_params(300));
  EXPECT_EQ(after.stalled, 0u);
  EXPECT_EQ(after.flagged, 0u);
  EXPECT_TRUE(after.advanced);
  release.store(true, std::memory_order_release);
  reader.join();
}

TEST(StallDetection, UnflaggedCheckIsFreeAndFalse) {
  ebr_domain d;
  ebr_domain::guard g(d);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(g.check());
}

TEST(LimboAccounting, ByteAccountingIsExact) {
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

TEST(LimboAccounting, ParkedReaderHoldsEveryRetiredByte) {
  ebr_domain d;
  const int before = counted::live.load();
  // Blocks collection: limbo can only grow.
  pinned_reader reader(d, pinned_reader::mode::parked);

  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 500; ++i) d.retire(new counted);
  }
  // Nothing caps limbo: every retired byte is held and counted, none dropped.
  EXPECT_EQ(d.stats().limbo_bytes, 500 * sizeof(counted));
  EXPECT_EQ(counted::live.load(), before + 500);

  // The grace period holds while the reader lives...
  const flush_result stuck = d.try_flush();
  EXPECT_FALSE(stuck.clean());
  EXPECT_EQ(counted::live.load(), before + 500);

  // ...and once the reader exits, a quiescent flush frees every block.
  reader.release();
  d.flush();
  EXPECT_EQ(counted::live.load(), before);
  EXPECT_EQ(d.stats().limbo_bytes, 0u);
}

// Limbo is counted per slot; stats() sums every slot.  Four threads retire
// distinct numbers of distinctly sized blocks while a parked reader keeps
// all of it in limbo, and the main thread samples stats() meanwhile.
TEST(LimboAccounting, StatsSumEverySlotExactly) {
  ebr_domain d;
  const int before = counted::live.load();
  pinned_reader reader(d, pinned_reader::mode::parked);

  constexpr int kThreads = 4;
  std::size_t want_blocks = 0;
  std::size_t want_bytes = 0;
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    // Past kAdvanceEvery, so advance attempts run mid-retire too.
    const int n = 150 + 37 * t;
    const std::size_t bytes = 8 * static_cast<std::size_t>(t + 1);
    want_blocks += static_cast<std::size_t>(n);
    want_bytes += static_cast<std::size_t>(n) * bytes;
    writers.emplace_back([&d, &done, n, bytes] {
      {
        ebr_domain::guard g(d);
        for (int i = 0; i < n; ++i) {
          d.retire(retired_block{new counted, &delete_of<counted>, bytes});
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  std::size_t most_read = 0;
  while (done.load(std::memory_order_acquire) < kThreads) {
    const domain_stats s = d.stats();
    EXPECT_LE(s.limbo_blocks, want_blocks);
    EXPECT_LE(s.limbo_bytes, want_bytes);
    EXPECT_GE(s.limbo_bytes_hwm, s.limbo_bytes);
    most_read = std::max(most_read, s.limbo_bytes);
    std::this_thread::yield();
  }
  for (auto& w : writers) w.join();

  const domain_stats s = d.stats();
  EXPECT_EQ(s.limbo_blocks, want_blocks);
  EXPECT_EQ(s.limbo_bytes, want_bytes);
  EXPECT_GE(s.limbo_bytes_hwm, want_bytes);
  EXPECT_GE(s.limbo_bytes_hwm, most_read);
  EXPECT_EQ(counted::live.load(), before + static_cast<int>(want_blocks));

  reader.release();
  d.flush();
  EXPECT_EQ(d.stats().limbo_blocks, 0u);
  EXPECT_EQ(d.stats().limbo_bytes, 0u);
  EXPECT_EQ(counted::live.load(), before);
}

TEST(Watchdog, ThreadDetectsInjectedStallWithinBoundedTicks) {
  ebr_domain d;
  const int before = counted::live.load();

  watchdog_options opts;
  opts.interval = std::chrono::milliseconds(1);
  opts.stall_age = std::chrono::milliseconds(2);
  reclaim_watchdog dog(d, opts);

  pinned_reader reader(d, pinned_reader::mode::running);
  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 100; ++i) d.retire(new counted);
  }

  dog.start();
  // Detection + self-eviction + collection must all land within a bounded
  // number of ticks (generous wall-clock bound: ~2s vs the ~5ms nominal
  // path).  Each eviction lets the epoch move one step past the reader.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counted::live.load() != before &&
         std::chrono::steady_clock::now() < deadline) {
    // Brief re-pins give this thread's own limbo its collect opportunity
    // (collection is driven from pin(); the watchdog only asks the reader
    // to move).
    { ebr_domain::guard g(d); }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  dog.stop();

  EXPECT_EQ(counted::live.load(), before)
      << "watchdog failed to move a running reader off its stale epoch";
  EXPECT_GT(dog.totals().stalled_ticks, 0u);
  EXPECT_GT(dog.totals().flagged, 0u);
  EXPECT_GT(reader.evictions(), 0) << "the reader never self-evicted";
}

TEST(Watchdog, ParkedReaderGarbageIsNeverFreed) {
  // A reader that never reaches a safe point may still hold pointers to
  // anything retired after its pin.  The watchdog flags it, but however
  // long it keeps ticking, none of that garbage may be freed.
  ebr_domain d;
  const int before = counted::live.load();
  watchdog_options opts;
  opts.interval = std::chrono::milliseconds(1);
  opts.stall_age = std::chrono::milliseconds(1);
  reclaim_watchdog dog(d, opts);

  pinned_reader reader(d, pinned_reader::mode::parked);
  {
    ebr_domain::guard g(d);
    for (int i = 0; i < 100; ++i) d.retire(new counted);
  }
  dog.start();
  // Run until the stall has been seen on 20 ticks, each one far past the
  // 1 ms stall age.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int live_low = before + 100;
  while (dog.totals().stalled_ticks < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    { ebr_domain::guard g(d); }
    live_low = std::min(live_low, counted::live.load());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  dog.stop();
  const watchdog_totals t = dog.totals();
  EXPECT_GE(t.stalled_ticks, 20u) << "the parked reader should be detected";
  // One request, never answered, never re-issued.
  EXPECT_EQ(t.flagged, 1u);
  EXPECT_EQ(live_low, before + 100) << "garbage freed under a pinned reader";
  EXPECT_EQ(counted::live.load(), before + 100);

  reader.release();
  d.flush();
  EXPECT_EQ(counted::live.load(), before);
}

TEST(Watchdog, QuietDomainProducesQuietSamples) {
  ebr_domain d;
  reclaim_watchdog dog(d);
  const stall_report r = dog.tick_now();
  EXPECT_EQ(r.pinned, 0u);
  EXPECT_EQ(r.stalled, 0u);
  EXPECT_EQ(dog.totals().ticks, 1u);
  EXPECT_EQ(dog.totals().stalled_ticks, 0u);
  EXPECT_EQ(dog.last_report().pinned, 0u);
  // start/stop idempotence.
  dog.start();
  dog.start();
  dog.stop();
  dog.stop();
}

}  // namespace
}  // namespace lfst::reclaim
