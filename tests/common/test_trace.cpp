// Tier-1 coverage of the span ring (common/trace.hpp).
//
// The machinery is compiled in every build -- only the LFST_T_* macro
// sites are gated -- so these tests drive spans, events, rings, the
// registry and the Chrome exporter directly, in ON and OFF builds alike.
// The ON-only assertion that the *structures'* hot paths record spans and
// events lives in tests/trace/test_trace_sites.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.hpp"

namespace lfst::trace {
namespace {

TEST(SpanNames, TableMatchesEnum) {
  EXPECT_EQ(span_name(sid::skiptree_contains), "skiptree.contains");
  EXPECT_EQ(span_name(sid::health_probe), "skiptree.health_probe");
  EXPECT_EQ(span_name(sid::storage_replay), "storage.replay");
  for (std::size_t i = 0; i < static_cast<std::size_t>(sid::kCount); ++i) {
    EXPECT_FALSE(span_name(static_cast<sid>(i)).empty());
  }
}

TEST(Names, TablesMatchEnums) {
  // The event block starts right after the last operation span and holds
  // the Fig. 8 transforms in order.
  EXPECT_FALSE(is_event(sid::storage_replay));
  EXPECT_TRUE(is_event(kFirstEvent));
  EXPECT_EQ(span_name(kFirstEvent), "skiptree.split");
  EXPECT_EQ(span_name(sid::skiptree_root_raise), "skiptree.root_raise");
  EXPECT_EQ(span_name(sid::skiptree_compact_8a), "skiptree.compact_8a");
  EXPECT_EQ(span_name(sid::skiptree_compact_8d), "skiptree.compact_8d");
  EXPECT_EQ(span_name(sid::ebr_new_epoch), "ebr.new_epoch");
}

TEST(SpanRing, PushAndDrainRoundTrips) {
  span_ring ring;
  ring.push(sid::skiptree_add, 100, 250, (std::uint64_t{3} << 32) | 7);
  ring.push(sid::pool_refill, 300, 310, 0);
  ring.push(sid::skiptree_compact_8c, 400, 400, std::uint64_t{1} << 40);
  std::vector<span_record> out;
  ring.drain_into(out, 42);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, sid::skiptree_add);
  EXPECT_EQ(out[0].t0, 100u);
  EXPECT_EQ(out[0].t1, 250u);
  EXPECT_EQ(out[0].retries, 3u);
  EXPECT_EQ(out[0].depth, 7u);
  EXPECT_EQ(out[0].payload, 0u);
  EXPECT_EQ(out[0].thread, 42u);
  EXPECT_EQ(out[1].id, sid::pool_refill);
  // An event's arg word is its payload, not a retry/depth pair.
  EXPECT_EQ(out[2].id, sid::skiptree_compact_8c);
  EXPECT_EQ(out[2].payload, std::uint64_t{1} << 40);
  EXPECT_EQ(out[2].retries, 0u);
  EXPECT_EQ(out[2].depth, 0u);
}

TEST(SpanRing, WraparoundKeepsNewestSpans) {
  span_ring ring;
  const std::uint64_t total = span_ring::kCapacity + 100;
  for (std::uint64_t i = 0; i < total; ++i) {
    ring.push(sid::skiplist_add, i, i + 1, 0);
  }
  EXPECT_EQ(ring.pushed(), total);
  std::vector<span_record> out;
  ring.drain_into(out, 0);
  ASSERT_EQ(out.size(), span_ring::kCapacity);
  // Survivors come out oldest first: the first is the one pushed at index
  // total - kCapacity, and the order is strictly increasing from there.
  EXPECT_EQ(out.front().t0, total - span_ring::kCapacity);
  EXPECT_EQ(out.back().t0, total - 1);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].t0, out[i - 1].t0 + 1);
  }
  ring.reset();
  out.clear();
  ring.drain_into(out, 0);
  EXPECT_TRUE(out.empty());
}

TEST(TraceRing, WraparoundKeepsNewestOldestFirst) {
  // Events share the ring with operation spans; wraparound keeps the
  // newest records, oldest first, with each event's payload intact.
  span_ring ring;
  const std::uint64_t total = span_ring::kCapacity + 10;
  for (std::uint64_t i = 0; i < total; ++i) {
    if (i % 2 == 0) {
      ring.push(sid::skiptree_split, i, i, i * 3);
    } else {
      ring.push(sid::skiptree_add, i, i + 1, (std::uint64_t{1} << 32) | 2);
    }
  }
  std::vector<span_record> out;
  ring.drain_into(out, 5);
  ASSERT_EQ(out.size(), span_ring::kCapacity);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::uint64_t i = total - span_ring::kCapacity + k;
    EXPECT_EQ(out[k].t0, i);
    if (i % 2 == 0) {
      EXPECT_EQ(out[k].id, sid::skiptree_split);
      EXPECT_EQ(out[k].payload, i * 3);
    } else {
      EXPECT_EQ(out[k].retries, 1u);
      EXPECT_EQ(out[k].depth, 2u);
    }
  }
}

TEST(ScopedSpan, RecordsIntoRegistryWithRetriesAndSteps) {
  trace_registry::instance().reset();
  {
    scoped_span span(sid::skiptree_remove);
    note_retry();
    note_retry();
    note_step();
  }
  const auto spans = trace_registry::instance().drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].id, sid::skiptree_remove);
  EXPECT_EQ(spans[0].retries, 2u);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_GE(spans[0].t1, spans[0].t0);
}

TEST(ScopedSpan, NestedSpansChargeInnermost) {
  trace_registry::instance().reset();
  {
    scoped_span outer(sid::skiptree_add);
    note_retry();  // outer
    {
      scoped_span inner(sid::pool_refill);
      note_retry();  // inner
      note_retry();  // inner
    }
    note_step();  // outer again, after inner restored the TLS slot
  }
  auto spans = trace_registry::instance().drain();
  ASSERT_EQ(spans.size(), 2u);
  // drain() orders by t0: outer begins first.
  EXPECT_EQ(spans[0].id, sid::skiptree_add);
  EXPECT_EQ(spans[0].retries, 1u);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].id, sid::pool_refill);
  EXPECT_EQ(spans[1].retries, 2u);
  EXPECT_EQ(spans[1].depth, 0u);
}

TEST(ScopedSpan, NotesOutsideAnySpanAreIgnored) {
  trace_registry::instance().reset();
  note_retry();
  note_step();
  EXPECT_TRUE(trace_registry::instance().drain().empty());
}

TEST(TraceRegistry, MultiThreadSpansAllSurface) {
  trace_registry::instance().reset();
  constexpr int kThreads = 4;
  constexpr int kSpansPer = 64;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kSpansPer; ++i) {
        scoped_span span(sid::skiplist_contains);
      }
    });
  }
  for (auto& th : pool) th.join();
  const auto spans = trace_registry::instance().drain();
  EXPECT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kSpansPer);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].t0, spans[i].t0) << "drain() must sort by t0";
  }
}

TEST(TraceRegistry, TickRateIsPositive) {
  // The rate spans are exported with converts a span around a 2 ms sleep
  // into roughly 2000 us (generous bounds: a loaded host oversleeps).
  const double tpu = metrics::ticks_per_us();
  ASSERT_GT(tpu, 0.0);
  trace_registry::instance().reset();
  {
    scoped_span span(sid::storage_checkpoint);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto spans = trace_registry::instance().drain();
  ASSERT_EQ(spans.size(), 1u);
  const double us = static_cast<double>(spans[0].t1 - spans[0].t0) / tpu;
  EXPECT_GE(us, 1500.0);
  EXPECT_LT(us, 1e6);
}

TEST(Registry, DrainTraceMergesThreadsInTimeOrder) {
  auto& reg = trace_registry::instance();
  reg.reset();
  // Hold every worker at a barrier until all four have claimed a ring, so
  // the four leases land on four distinct rings and the dump exercises a
  // genuinely multi-ring merge of events.
  std::barrier sync(4);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&reg, &sync] {
      reg.event(sid::ebr_new_epoch, 0);  // claim this thread's ring
      sync.arrive_and_wait();
      for (std::uint64_t i = 1; i < 50; ++i) {
        reg.event(sid::ebr_new_epoch, i);
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::vector<span_record> dump = reg.drain();
  EXPECT_EQ(dump.size(), 200u);
  for (std::size_t i = 0; i < dump.size(); ++i) {
    EXPECT_EQ(dump[i].t0, dump[i].t1) << "an event is a zero-length span";
    if (i > 0) {
      EXPECT_LE(dump[i - 1].t0, dump[i].t0);
    }
  }
  reg.reset();
}

// --- Chrome export -----------------------------------------------------------

std::vector<span_record> sample_spans() {
  return {
      span_record{sid::skiptree_add, 1000, 1500, 2, 5, 0, 0},
      span_record{sid::blink_remove, 1200, 1300, 0, 1, 1, 0},
      span_record{sid::skiptree_split, 2000, 2000, 0, 0, 0, 17},
  };
}

TEST(ChromeJson, ShapeAndRelativeTimestamps) {
  const std::string lines = to_chrome_lines(sample_spans(), 1.0);
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 3);
  EXPECT_NE(lines.find("\"type\":\"span\""), std::string::npos);
  EXPECT_NE(lines.find("\"name\":\"skiptree.add\""), std::string::npos);
  EXPECT_NE(lines.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(lines.find("\"retries\":2"), std::string::npos);
  // Events export their payload and a zero duration.
  EXPECT_NE(lines.find("\"dur\":0,\"args\":{\"payload\":17}"),
            std::string::npos);
  // Timestamps are base-relative: the earliest span (absolute tsc 1000)
  // exports at ts 0, and no absolute tsc value (>= 1000 up to 2000)
  // survives into the output.
  EXPECT_NE(lines.find("\"ts\":0"), std::string::npos);
  EXPECT_EQ(lines.find("\"ts\":2000"), std::string::npos);
}

TEST(ChromeJson, EmptyDumpIsValid) {
  // No spans, no lines: a sidecar from a build without LFST_TRACE simply
  // carries no span records.
  EXPECT_EQ(to_chrome_lines({}, 1.0), "");
}

TEST(Macros, CompileInEveryBuild) {
  // In OFF builds these are ((void)0); in ON builds they record. Either
  // way they must compile and run without a registry precondition.
  LFST_T_SPAN(::lfst::trace::sid::skiplist_contains);
  LFST_T_RETRY();
  LFST_T_STEP();
  LFST_T_EVENT(::lfst::trace::sid::ebr_stall, 3);
}

}  // namespace
}  // namespace lfst::trace
