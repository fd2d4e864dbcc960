// Tests for the workload generator and trial driver.
#include "workload/workload.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "common/ordered_set.hpp"
#include "skiptree/skip_tree.hpp"
#include "workload/table.hpp"

namespace lfst::workload {
namespace {

TEST(OpStream, IsDeterministicPerSeedAndThread) {
  scenario sc;
  sc.total_ops = 10000;
  sc.threads = 4;
  auto a = make_op_stream(sc, 42, 2);
  auto b = make_op_stream(sc, 42, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].key, b[i].key);
  }
}

TEST(OpStream, DifferentThreadsGetDifferentStreams) {
  scenario sc;
  sc.total_ops = 8000;
  sc.threads = 2;
  auto a = make_op_stream(sc, 42, 0);
  auto b = make_op_stream(sc, 42, 1);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same += (a[i].key == b[i].key);
  }
  EXPECT_LT(same, 100);  // overlap only by coincidence
}

TEST(OpStream, MixProportionsAreRespected) {
  scenario sc;
  sc.operations = kReadDominated;  // 90/9/1
  sc.total_ops = 200000;
  sc.threads = 1;
  auto ops = make_op_stream(sc, 7, 0);
  std::map<op_kind, int> counts;
  for (const op& o : ops) ++counts[o.kind];
  EXPECT_NEAR(counts[op_kind::kContains], 180000, 3000);
  EXPECT_NEAR(counts[op_kind::kAdd], 18000, 1500);
  EXPECT_NEAR(counts[op_kind::kRemove], 2000, 600);
}

TEST(OpStream, KeysRespectRange) {
  scenario sc;
  sc.key_range = 500;
  sc.total_ops = 50000;
  sc.threads = 1;
  for (const op& o : make_op_stream(sc, 3, 0)) {
    EXPECT_LT(o.key, 500u);
  }
}

TEST(Preload, InsertsExactlyContainsAndRemoveTargets) {
  scenario sc;
  sc.operations = mix{50, 0, 50};  // no adds
  sc.key_range = 100;
  sc.total_ops = 5000;
  sc.threads = 2;
  std::vector<std::vector<op>> streams{make_op_stream(sc, 9, 0),
                                       make_op_stream(sc, 9, 1)};
  locked_set<long> set;
  preload(set, streams);
  std::set<std::uint64_t> expected;
  for (const auto& s : streams) {
    for (const op& o : s) expected.insert(o.key);
  }
  EXPECT_EQ(set.size(), expected.size());
  for (std::uint64_t k : expected) {
    EXPECT_TRUE(set.contains(static_cast<long>(k)));
  }
}

TEST(Trial, ExecutesAllOperationsAndReportsThroughput) {
  scenario sc;
  sc.operations = kWriteDominated;
  sc.key_range = 1000;
  sc.total_ops = 40000;
  sc.threads = 4;
  std::vector<std::vector<op>> streams;
  for (int tid = 0; tid < sc.threads; ++tid) {
    streams.push_back(make_op_stream(sc, 11, tid));
  }
  skiptree::skip_tree<long> set;
  preload(set, streams);
  const trial_result r = execute_trial(set, streams);
  EXPECT_GT(r.millis, 0.0);
  EXPECT_GT(r.ops_per_ms, 0.0);
  EXPECT_LE(set.size(), 1000u);
}

TEST(Scenario, RunProducesSummaryOverTrials) {
  scenario sc;
  sc.operations = kReadDominated;
  sc.key_range = 2000;
  sc.total_ops = 20000;
  sc.threads = 2;
  sc.trials = 3;
  const summary s = run_scenario(
      sc, [] { return std::make_unique<skiptree::skip_tree<long>>(); });
  EXPECT_EQ(s.count, 3u);
  EXPECT_GT(s.mean, 0.0);
  EXPECT_GE(s.max, s.min);
}

TEST(Iteration, ReportsElementsPerMs) {
  skiptree::skip_tree<long> set;
  iteration_scenario sc;
  sc.preload_keys = 20000;
  sc.key_range = 1 << 24;
  sc.contenders = 2;
  sc.duration_ms = 50.0;
  const iteration_result r = run_iteration_trial(set, sc);
  EXPECT_GT(r.elements_per_ms, 0.0);
  EXPECT_GT(r.full_scans, 0u);
}

TEST(Iteration, ZeroContendersWorks) {
  skiptree::skip_tree<long> set;
  iteration_scenario sc;
  sc.preload_keys = 5000;
  sc.key_range = 1 << 20;
  sc.contenders = 0;
  sc.duration_ms = 20.0;
  const iteration_result r = run_iteration_trial(set, sc);
  EXPECT_GT(r.full_scans, 0u);
}

// A stand-in set that records, per kind of call, every CPU the calling
// thread's affinity mask allows, to observe where the drivers pin their
// threads.
struct cpu_recording_set {
  using key_type = long;
  std::mutex mu;
  std::set<int> op_cpus;
  std::set<int> scan_cpus;

  void note(std::set<int>& cpus) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    sched_getaffinity(0, sizeof(mask), &mask);
    std::lock_guard<std::mutex> lock(mu);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) cpus.insert(c);
    }
  }
  bool contains(long) { note(op_cpus); return false; }
  bool add(long) { note(op_cpus); return true; }
  bool remove(long) { note(op_cpus); return false; }
  template <typename F>
  void for_each(F&& f) {
    note(scan_cpus);
    f(0L);
  }
};

TEST(Placement, TrialWorkersRunOnTheFirstAllowedCpus) {
  const std::vector<int>& cpus = allowed_cpus();
  ASSERT_FALSE(cpus.empty());
  scenario sc;
  sc.total_ops = 4000;
  sc.threads = 2;
  std::vector<std::vector<op>> streams;
  for (int tid = 0; tid < sc.threads; ++tid) {
    streams.push_back(make_op_stream(sc, 7, tid));
  }
  cpu_recording_set set;
  execute_trial(set, streams);
  EXPECT_EQ(set.op_cpus, (std::set<int>{cpus[0], cpus[1 % cpus.size()]}));
}

TEST(Placement, IterationScannerRunsAloneAndCallerKeepsItsMask) {
  const std::vector<int>& cpus = allowed_cpus();
  ASSERT_FALSE(cpus.empty());
  cpu_set_t before;
  CPU_ZERO(&before);
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);

  cpu_recording_set set;
  iteration_scenario sc;
  sc.preload_keys = 0;
  sc.contenders = static_cast<int>(cpus.size()) + 1;  // more than CPUs
  sc.duration_ms = 20.0;
  run_iteration_trial(set, sc);

  EXPECT_EQ(set.scan_cpus, std::set<int>{cpus[0]});
  if (cpus.size() > 1) {
    EXPECT_EQ(set.op_cpus.count(cpus[0]), 0u);
  }
  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(Table, FormatsAlignedColumns) {
  table t({"structure", "ops/ms"});
  t.add_row({"skip-tree", table::fmt(1234.5)});
  t.add_row({"b-link", table::fmt(9.87, 2)});
  // Smoke: printing must not crash; fmt must round correctly.
  EXPECT_EQ(table::fmt(1234.54), "1234.5");
  EXPECT_EQ(table::fmt(9.876, 2), "9.88");
  t.print(stderr);
}

}  // namespace
}  // namespace lfst::workload
