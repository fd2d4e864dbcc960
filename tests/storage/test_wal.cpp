// WAL unit tests: LSN assignment, group commit, rotation, scan, and the
// multi-thread contiguity invariant.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "storage/wal.hpp"
#include "scratch_dir.hpp"

namespace lfst::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::test_scratch_dir();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(WalTest, FilenameRoundTrip) {
  lsn_t v = 0;
  EXPECT_TRUE(parse_segment_filename(segment_filename(1), v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(parse_segment_filename(segment_filename(123456789), v));
  EXPECT_EQ(v, 123456789u);
  EXPECT_TRUE(parse_checkpoint_filename(checkpoint_filename(42), v));
  EXPECT_EQ(v, 42u);
  EXPECT_FALSE(parse_segment_filename("wal-abc.log", v));
  EXPECT_FALSE(parse_segment_filename("ckpt-00000000000000000001.ckpt", v));
  EXPECT_FALSE(parse_checkpoint_filename(segment_filename(1), v));
}

TEST_F(WalTest, AppendAssignsSequentialLsns) {
  wal log(dir_, 1);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    EXPECT_EQ(log.append(wal_op::add, &i, sizeof(i)), i);
  }
  EXPECT_EQ(log.last_assigned(), 100u);
  log.flush();
  EXPECT_EQ(log.durable(), 100u);
}

TEST_F(WalTest, WaitDurableBlocksUntilFsync) {
  wal_options o;
  o.sync = fsync_policy::every_commit;
  wal log(dir_, 1, o);
  const std::uint64_t k = 7;
  const lsn_t lsn = log.append(wal_op::add, &k, sizeof(k));
  log.wait_durable(lsn);
  EXPECT_GE(log.durable(), lsn);
  EXPECT_GE(log.stats().fsyncs, 1u);
}

// Appends never wake the flusher, so under every_commit the waiter must:
// with a 10 s poll, a lost wake-up shows as a wait that lasts the poll.
TEST_F(WalTest, WaitDurableWakesTheFlusher) {
  wal_options o;
  o.sync = fsync_policy::every_commit;
  o.flusher_poll = std::chrono::seconds(10);
  wal log(dir_, 1, o);
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const auto t0 = std::chrono::steady_clock::now();
    const lsn_t lsn = log.append(wal_op::add, &k, sizeof(k));
    log.wait_durable(lsn);
    const auto waited = std::chrono::steady_clock::now() - t0;
    ASSERT_LT(waited, std::chrono::seconds(2)) << "record " << k;
    EXPECT_GE(log.durable(), lsn);
  }
  log.close();
}

// Under interval nobody wakes the flusher: its poll alone must drain the
// slots and fsync them, with no flush() call.
TEST_F(WalTest, PollAloneHardensIntervalAppends) {
  constexpr int kThreads = 2;
  constexpr std::uint64_t kPerThread = 2000;
  wal_options o;
  o.sync = fsync_policy::interval;
  o.sync_interval = std::chrono::milliseconds(1);
  wal log(dir_, 1, o);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t payload =
            (static_cast<std::uint64_t>(t) << 32) | i;
        log.append(wal_op::add, &payload, sizeof(payload));
      }
    });
  }
  for (auto& th : threads) th.join();
  const lsn_t n = kThreads * kPerThread;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (log.durable() < n && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(log.durable(), n);
  EXPECT_GE(log.stats().fsyncs, 1u);
  log.close();
}

TEST_F(WalTest, ScanRecoversEverythingAfterClose) {
  {
    wal log(dir_, 1);
    for (std::uint64_t i = 1; i <= 500; ++i) {
      log.append(i % 3 == 0 ? wal_op::remove : wal_op::add, &i, sizeof(i));
    }
    log.close();
  }
  std::vector<std::pair<lsn_t, std::uint64_t>> seen;
  const segment_scan scan = scan_segment(
      dir_ + "/" + segment_filename(1), /*skip_upto=*/0,
      [&](lsn_t lsn, wal_op, const void* p, std::size_t n) {
        ASSERT_EQ(n, sizeof(std::uint64_t));
        std::uint64_t v = 0;
        std::memcpy(&v, p, n);
        seen.emplace_back(lsn, v);
      });
  EXPECT_TRUE(scan.header_ok);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.records, 500u);
  EXPECT_EQ(scan.last_lsn, 500u);
  ASSERT_EQ(seen.size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(seen[i].first, i + 1);
    EXPECT_EQ(seen[i].second, i + 1);
  }
}

TEST_F(WalTest, ScanSkipsUpToCheckpointLsn) {
  {
    wal log(dir_, 1);
    for (std::uint64_t i = 1; i <= 100; ++i) {
      log.append(wal_op::add, &i, sizeof(i));
    }
    log.close();
  }
  std::uint64_t applied = 0;
  const segment_scan scan =
      scan_segment(dir_ + "/" + segment_filename(1), /*skip_upto=*/60,
                   [&](lsn_t, wal_op, const void*, std::size_t) { ++applied; });
  EXPECT_EQ(scan.records, 100u);
  EXPECT_EQ(scan.applied, 40u);
  EXPECT_EQ(applied, 40u);
}

TEST_F(WalTest, RotateSealsSegmentAtBoundary) {
  wal log(dir_, 1);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
  }
  const lsn_t sealed = log.rotate();
  EXPECT_EQ(sealed, 10u);
  for (std::uint64_t i = 11; i <= 15; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
  }
  log.close();

  EXPECT_TRUE(std::filesystem::exists(dir_ + "/" + segment_filename(1)));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/" + segment_filename(11)));
  const segment_scan first = scan_segment(
      dir_ + "/" + segment_filename(1), 0,
      [](lsn_t, wal_op, const void*, std::size_t) {});
  const segment_scan second = scan_segment(
      dir_ + "/" + segment_filename(11), 0,
      [](lsn_t, wal_op, const void*, std::size_t) {});
  EXPECT_EQ(first.records, 10u);
  EXPECT_EQ(first.last_lsn, 10u);
  EXPECT_FALSE(first.torn);
  EXPECT_EQ(second.first_lsn, 11u);
  EXPECT_EQ(second.records, 5u);
  EXPECT_EQ(second.last_lsn, 15u);
}

TEST_F(WalTest, EmptyRotate) {
  wal log(dir_, 1);
  EXPECT_EQ(log.rotate(), 0u);  // nothing appended: seals at LSN 0
  const std::uint64_t k = 1;
  EXPECT_EQ(log.append(wal_op::add, &k, sizeof(k)), 1u);
  log.close();
  const segment_scan scan = scan_segment(
      dir_ + "/" + segment_filename(1), 0,
      [](lsn_t, wal_op, const void*, std::size_t) {});
  EXPECT_EQ(scan.records, 1u);
}

TEST_F(WalTest, LargePayloadSpillsAndRoundTrips) {
  std::vector<unsigned char> blob(50000);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<unsigned char>(i * 131);
  }
  {
    wal log(dir_, 1);
    log.append(wal_op::put, blob.data(), blob.size());
    log.close();
  }
  std::vector<unsigned char> got;
  scan_segment(dir_ + "/" + segment_filename(1), 0,
               [&](lsn_t, wal_op op, const void* p, std::size_t n) {
                 EXPECT_EQ(op, wal_op::put);
                 got.assign(static_cast<const unsigned char*>(p),
                            static_cast<const unsigned char*>(p) + n);
               });
  EXPECT_EQ(got, blob);
}

TEST_F(WalTest, OversizedPayloadRejected) {
  wal log(dir_, 1);
  std::vector<unsigned char> blob(kMaxRecordPayload + 1);
  EXPECT_THROW(log.append(wal_op::put, blob.data(), blob.size()),
               std::invalid_argument);
  log.close();
}

// The core concurrency property: appenders on many threads, every record
// lands exactly once, file order is contiguous 1..N.
TEST_F(WalTest, ConcurrentAppendersYieldContiguousLog) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 800;
  wal_options o;
  o.sync = fsync_policy::none;  // stress enqueue/drain, not the disk
  {
    wal log(dir_, 1, o);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t payload =
              (static_cast<std::uint64_t>(t) << 32) | i;
          log.append(wal_op::add, &payload, sizeof(payload));
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(log.last_assigned(), kThreads * kPerThread);
    log.close();
  }
  lsn_t expect = 1;
  std::set<std::uint64_t> payloads;
  const segment_scan scan = scan_segment(
      dir_ + "/" + segment_filename(1), 0,
      [&](lsn_t lsn, wal_op, const void* p, std::size_t n) {
        EXPECT_EQ(lsn, expect++);
        std::uint64_t v = 0;
        std::memcpy(&v, p, n);
        EXPECT_TRUE(payloads.insert(v).second) << "duplicate payload";
      });
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.records, kThreads * kPerThread);
  EXPECT_EQ(payloads.size(), kThreads * kPerThread);
}

// Rotation racing appenders: every record still lands exactly once across
// the resulting segment chain, in contiguous LSN order.
TEST_F(WalTest, RotateUnderConcurrentAppends) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  wal_options o;
  o.sync = fsync_policy::none;
  {
    wal log(dir_, 1, o);
    std::atomic<bool> stop{false};
    std::thread rotator([&] {
      while (!stop.load(std::memory_order_acquire)) {
        log.rotate();
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          const std::uint64_t payload =
              (static_cast<std::uint64_t>(t) << 32) | i;
          log.append(wal_op::add, &payload, sizeof(payload));
        }
      });
    }
    for (auto& th : threads) th.join();
    stop.store(true, std::memory_order_release);
    rotator.join();
    log.close();
  }
  // Scan every segment in first-LSN order; the union must be exactly 1..N.
  std::vector<std::pair<lsn_t, std::filesystem::path>> segs;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    lsn_t first = 0;
    if (parse_segment_filename(e.path().filename().string(), first)) {
      segs.emplace_back(first, e.path());
    }
  }
  std::sort(segs.begin(), segs.end());
  lsn_t expect = 1;
  for (const auto& [first, path] : segs) {
    EXPECT_EQ(first, expect) << "segment chain gap";
    const segment_scan scan = scan_segment(
        path.string(), 0, [&](lsn_t lsn, wal_op, const void*, std::size_t) {
          EXPECT_EQ(lsn, expect++);
        });
    EXPECT_FALSE(scan.torn) << path;
  }
  EXPECT_EQ(expect, kThreads * kPerThread + 1);
}

TEST_F(WalTest, FlushLagTracksUndurableRecords) {
  // Under fsync_policy::none the flusher writes but never fsyncs, so the
  // lag gauge climbs deterministically with appends and collapses to zero
  // the moment flush() hardens the log.
  wal_options o;
  o.sync = fsync_policy::none;
  wal log(dir_, 1, o);
  EXPECT_EQ(log.flush_lag(), 0u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    log.append(wal_op::add, &i, sizeof(i));
    EXPECT_EQ(log.flush_lag(), i);
  }
  log.flush();
  EXPECT_EQ(log.flush_lag(), 0u);
  EXPECT_EQ(log.durable(), 5u);
  log.close();
  EXPECT_EQ(log.flush_lag(), 0u);
}

TEST_F(WalTest, FsyncAndBatchSketchesRecord) {
  // Each sync_locked() feeds two sketches: the fsync latency and the
  // batch size (records hardened by that fsync).  flush() after 3 appends
  // must add at least one observation to each.
  auto& p = lfst::telemetry::plane::instance();
  const auto fsync_before =
      p.sketch(lfst::telemetry::skid::wal_fsync).count;
  const auto batch_before =
      p.sketch(lfst::telemetry::skid::wal_batch).count;
  {
    wal_options o;
    o.sync = fsync_policy::none;  // all hardening happens in flush()
    wal log(dir_, 1, o);
    for (std::uint64_t i = 1; i <= 3; ++i) {
      log.append(wal_op::add, &i, sizeof(i));
    }
    log.flush();
    log.close();
  }
  EXPECT_GT(p.sketch(lfst::telemetry::skid::wal_fsync).count,
            fsync_before);
  const auto batch = p.sketch(lfst::telemetry::skid::wal_batch);
  EXPECT_GT(batch.count, batch_before);
  EXPECT_GE(batch.max, 3u);  // the flush hardened all three at once
}

TEST_F(WalTest, StatsCount) {
  wal log(dir_, 1);
  const std::uint64_t k = 9;
  log.append(wal_op::add, &k, sizeof(k));
  log.append(wal_op::remove, &k, sizeof(k));
  log.flush();
  const wal_stats s = log.stats();
  EXPECT_EQ(s.appends, 2u);
  EXPECT_EQ(s.bytes_appended, 2 * (kRecordHeaderBytes + sizeof(k)));
  EXPECT_GE(s.fsyncs, 1u);
  EXPECT_EQ(s.last_assigned, 2u);
  EXPECT_EQ(s.durable, 2u);
  log.close();
}

}  // namespace
}  // namespace lfst::storage
