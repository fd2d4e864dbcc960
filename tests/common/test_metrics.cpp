// Tests for the exact per-instance counters (common/metrics.hpp) and for
// the instrumentation hooks as a whole.
//
// This binary is part of the tier-1 suite and builds in EVERY configuration.
// Including every instrumented structure header below doubles as the
// plain-build conformance check -- if a span or event site fails to compile
// to nothing without LFST_TRACE, this translation unit breaks in the
// default build.
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <barrier>
#include <string>
#include <thread>
#include <vector>

#include "blinktree/blink_tree.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace lfst::metrics {
namespace {

enum class demo_counter : std::uint16_t { alpha = 0, beta, kCount };

TEST(InstanceCounters, ExactPerInstance) {
  instance_counters<demo_counter> a;
  instance_counters<demo_counter> b;
  a.inc(demo_counter::alpha);
  a.add(demo_counter::beta, 10);
  b.inc(demo_counter::beta);
  EXPECT_EQ(a.get(demo_counter::alpha), 1u);
  EXPECT_EQ(a.get(demo_counter::beta), 10u);
  EXPECT_EQ(b.get(demo_counter::alpha), 0u);
  const auto snap = a.snapshot();
  EXPECT_EQ(snap[0], 1u);
  EXPECT_EQ(snap[1], 10u);
}

TEST(InstanceCounters, ConcurrentIncrementsLoseNothing) {
  instance_counters<demo_counter> c;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 10000;
  std::barrier sync(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      sync.arrive_and_wait();
      for (std::uint64_t i = 0; i < kPer; ++i) c.inc(demo_counter::alpha);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.get(demo_counter::alpha), kThreads * kPer);
  EXPECT_EQ(c.get(demo_counter::beta), 0u);
}

TEST(Macros, CompileInEveryConfiguration) {
  // Every instrumentation hook compiles and runs in every build: the span
  // and event macros are ((void)0) without LFST_TRACE, the telemetry hooks
  // are unconditional.
  LFST_T_EVENT(::lfst::trace::sid::skiptree_split, 1);
  {
    LFST_TEL_OP(::lfst::telemetry::skid::op_contains);
  }
  LFST_TEL_RECORD(::lfst::telemetry::skid::wal_batch, 3);
  EXPECT_GE(::lfst::telemetry::plane::instance()
                .sketch(::lfst::telemetry::skid::wal_batch)
                .count,
            1u);
}

TEST(Conformance, InstrumentedStructuresRunInThisBuild) {
  // Exercise every instrumented hot path once; the assertion here is simply
  // that the structures still behave (macro sites are transparent).
  skiptree::skip_tree<long> tree;
  skiplist::skip_list<long> sl;
  blinktree::blink_tree<long> bt;
  for (long k = 0; k < 200; ++k) {
    EXPECT_TRUE(tree.add(k));
    EXPECT_TRUE(sl.add(k));
    EXPECT_TRUE(bt.add(k));
  }
  for (long k = 0; k < 200; k += 2) {
    EXPECT_TRUE(tree.remove(k));
    EXPECT_TRUE(sl.remove(k));
    EXPECT_TRUE(bt.remove(k));
  }
  EXPECT_TRUE(tree.contains(1));
  EXPECT_FALSE(tree.contains(0));
  const auto stats = tree.stats();
  EXPECT_GE(stats.splits, 1u);
}

TEST(Validator, MetricsTextListsPerTreeCounters) {
  skiptree::skip_tree<long> tree;
  for (long k = 0; k < 300; ++k) tree.add(k);
  skiptree::skip_tree_inspector<long> inspector(tree);
  const std::string text = inspector.metrics_text();
  EXPECT_NE(text.find("cas_failures="), std::string::npos);
  EXPECT_NE(text.find("splits="), std::string::npos);
  // A healthy tree validates clean, so the report carries no metrics dump.
  const auto rep = inspector.validate();
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.metrics_text.empty());
}

}  // namespace
}  // namespace lfst::metrics
