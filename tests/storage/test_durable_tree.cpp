// durable_tree facade tests: open-or-recover semantics, clean shutdown,
// auto-checkpointing, concurrent commits, and recovered-tree validity.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "skiptree/validate.hpp"
#include "storage/durable_tree.hpp"
#include "scratch_dir.hpp"

namespace lfst::storage {
namespace {

namespace fs = std::filesystem;

class DurableTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::test_scratch_dir();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

durable_options fast_opts() {
  durable_options o;
  o.wal.sync = fsync_policy::none;  // unit tests: exercise logic, not disk
  o.checkpoint_bytes = 0;           // no background checkpointer
  return o;
}

TEST_F(DurableTreeTest, FreshDirectoryStartsEmpty) {
  durable_tree<long> t(dir_, fast_opts());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.recovery_stats().cp_lsn == 0 &&
              t.recovery_stats().replayed == 0);
}

TEST_F(DurableTreeTest, CleanShutdownRoundTrip) {
  {
    durable_tree<long> t(dir_, fast_opts());
    for (long i = 0; i < 3000; ++i) EXPECT_TRUE(t.add(i * 2));
    for (long i = 0; i < 300; ++i) EXPECT_TRUE(t.remove(i * 20));
    EXPECT_FALSE(t.add(2));     // present: no-op, not logged
    EXPECT_FALSE(t.remove(1));  // absent: no-op, not logged
    t.close();
  }
  durable_tree<long> t(dir_, fast_opts());
  EXPECT_EQ(t.size(), 3000u - 300u);
  EXPECT_TRUE(t.contains(2));
  EXPECT_FALSE(t.contains(0));
  EXPECT_FALSE(t.contains(1));
  const auto rep =
      skiptree::skip_tree_inspector<long>(t.tree()).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST_F(DurableTreeTest, CheckpointShortensReplay) {
  {
    durable_tree<long> t(dir_, fast_opts());
    for (long i = 0; i < 1000; ++i) t.add(i);
    t.checkpoint();
    for (long i = 1000; i < 1100; ++i) t.add(i);
    t.close();
  }
  durable_tree<long> t(dir_, fast_opts());
  EXPECT_EQ(t.size(), 1100u);
  EXPECT_EQ(t.recovery_stats().cp_lsn, 1000u);
  EXPECT_EQ(t.recovery_stats().replayed, 100u);
}

TEST_F(DurableTreeTest, PutOverwritesEquivalentKey) {
  struct kv {
    long k;
    long v;
  };
  struct by_k {
    bool operator()(const kv& a, const kv& b) const { return a.k < b.k; }
  };
  {
    durable_tree<kv, by_k> t(dir_, fast_opts());
    t.put(kv{1, 10});
    t.put(kv{1, 20});
    t.put(kv{2, 7});
    EXPECT_EQ(t.size(), 2u);
    t.close();
  }
  durable_tree<kv, by_k> t(dir_, fast_opts());
  ASSERT_EQ(t.size(), 2u);
  long v1 = -1;
  t.tree().for_each([&](const kv& e) {
    if (e.k == 1) v1 = e.v;
  });
  EXPECT_EQ(v1, 20);  // last put wins across recovery
}

TEST_F(DurableTreeTest, AutoCheckpointFires) {
  durable_options o = fast_opts();
  o.checkpoint_bytes = 4096;  // a few hundred records
  o.checkpoint_poll = std::chrono::milliseconds(5);
  {
    durable_tree<long> t(dir_, o);
    for (long i = 0; i < 5000; ++i) t.add(i);
    // Give the checkpointer a beat to notice the byte threshold.
    for (int spin = 0; spin < 200; ++spin) {
      bool any_ckpt = false;
      for (const auto& e : fs::directory_iterator(dir_)) {
        if (e.path().extension() == ".ckpt") any_ckpt = true;
      }
      if (any_ckpt) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    t.close();
  }
  bool any_ckpt = false;
  for (const auto& e : fs::directory_iterator(dir_)) {
    if (e.path().extension() == ".ckpt") any_ckpt = true;
  }
  EXPECT_TRUE(any_ckpt) << "background checkpointer never fired";
  durable_tree<long> t(dir_, fast_opts());
  EXPECT_EQ(t.size(), 5000u);
  EXPECT_GT(t.recovery_stats().cp_lsn, 0u);
}

// checkpoint() from a caller while the background checkpointer polls: the
// caller writes the checkpointer's byte baseline, the checkpointer reads it
// on every poll, and the two must not race (TSan sees both accesses).
TEST_F(DurableTreeTest, ManualCheckpointWhileCheckpointerPolls) {
  durable_options o = fast_opts();
  o.checkpoint_bytes = 2048;  // about a hundred records
  o.checkpoint_poll = std::chrono::milliseconds(1);
  std::set<long> expected;
  {
    durable_tree<long> t(dir_, o);
    xoshiro256ss rng{thread_seed(0x5eed, 0)};
    for (int round = 0; round < 40; ++round) {
      for (int i = 0; i < 150; ++i) {
        const long key = static_cast<long>(rng.below(4096));
        if (rng.below(100) < 70) {
          if (t.add(key)) expected.insert(key);
        } else {
          if (t.remove(key)) expected.erase(key);
        }
      }
      t.checkpoint();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    t.close();
  }
  durable_tree<long> t(dir_, fast_opts());
  EXPECT_EQ(t.size(), expected.size());
  for (long key : expected) {
    EXPECT_TRUE(t.contains(key)) << "lost key " << key;
  }
  const auto rep =
      skiptree::skip_tree_inspector<long>(t.tree()).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST_F(DurableTreeTest, EveryCommitPolicyAcksDurable) {
  durable_options o;
  o.wal.sync = fsync_policy::every_commit;
  o.checkpoint_bytes = 0;
  durable_tree<long> t(dir_, o);
  for (long i = 0; i < 50; ++i) t.add(i);
  const wal_stats s = t.log_stats();
  EXPECT_EQ(s.appends, 50u);
  EXPECT_EQ(s.durable, 50u);  // every ack waited for its fsync
  EXPECT_GE(s.fsyncs, 1u);    // group commit may batch many acks per fsync
  t.close();
}

// Concurrent writers with owner-partitioned keys; after close + reopen the
// recovered tree equals the union of every thread's final mirror.
TEST_F(DurableTreeTest, ConcurrentCommitsRecoverExactly) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::set<long>> mirrors(kThreads);
  {
    durable_tree<long> t(dir_, fast_opts());
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        xoshiro256ss rng{thread_seed(0x77, static_cast<std::uint64_t>(w))};
        std::set<long>& mine = mirrors[static_cast<std::size_t>(w)];
        for (int i = 0; i < kOpsPerThread; ++i) {
          const long key =
              w + kThreads * static_cast<long>(rng.below(512));
          if (rng.below(100) < 60) {
            if (t.add(key)) mine.insert(key);
          } else {
            if (t.remove(key)) mine.erase(key);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    t.close();
  }
  std::set<long> expected;
  for (const auto& m : mirrors) expected.insert(m.begin(), m.end());
  durable_tree<long> t(dir_, fast_opts());
  EXPECT_EQ(t.size(), expected.size());
  for (long key : expected) {
    EXPECT_TRUE(t.contains(key)) << "lost key " << key;
  }
  const auto rep =
      skiptree::skip_tree_inspector<long>(t.tree()).validate();
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST_F(DurableTreeTest, ReopenPreservesQLog2FromCheckpoint) {
  durable_options o = fast_opts();
  o.tree.q_log2 = 3;  // non-default so the reopen must really read it back
  {
    durable_tree<long> t(dir_, o);
    for (long i = 0; i < 100; ++i) t.add(i);
    t.checkpoint();
    t.close();
  }
  durable_tree<long> t(dir_, fast_opts());  // default opts: q comes from disk
  EXPECT_EQ(t.options().tree.q_log2, 3);
}

}  // namespace
}  // namespace lfst::storage
