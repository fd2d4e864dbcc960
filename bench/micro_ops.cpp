// Google-benchmark microbenchmarks: per-operation cost of contains / add /
// remove for each structure across working-set sizes, plus layer panels
// (in-node search, leaf hops, pool alloc+free, guard pin/unpin, retire, and
// pin+retire on four threads sharing one domain).
// These are not a paper figure; they localize WHERE the Figure 9
// differences come from (e.g. the skip-list's pointer-chase per element vs
// the skip-tree's packed nodes as the working set leaves cache).
#include <benchmark/benchmark.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "avltree/opt_tree.hpp"
#include "avltree/snap_tree.hpp"
#include "bench_common.hpp"
#include "blinktree/blink_tree.hpp"
#include "common/rng.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/leaky.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace {

using key = long;

template <typename Set>
std::unique_ptr<Set> make_set() {
  return std::make_unique<Set>();
}

template <>
std::unique_ptr<lfst::skiptree::skip_tree<key>> make_set() {
  lfst::skiptree::skip_tree_options o;
  o.q_log2 = 5;
  return std::make_unique<lfst::skiptree::skip_tree<key>>(o);
}

template <>
std::unique_ptr<lfst::blinktree::blink_tree<key>> make_set() {
  lfst::blinktree::blink_tree_options o;
  o.min_node_size = 128;
  return std::make_unique<lfst::blinktree::blink_tree<key>>(o);
}

/// Pre-fill with `size` random keys from a range 4x the size (so about half
/// of the probe keys hit).
template <typename Set>
std::uint64_t prefill(Set& set, std::int64_t size) {
  lfst::xoshiro256ss rng(0xf111);
  const std::uint64_t range = static_cast<std::uint64_t>(size) * 4;
  for (std::int64_t i = 0; i < size; ++i) {
    set.add(static_cast<key>(rng.below(range)));
  }
  return range;
}

template <typename Set>
void BM_Contains(benchmark::State& state) {
  auto set = make_set<Set>();
  const std::uint64_t range = prefill(*set, state.range(0));
  lfst::xoshiro256ss rng(0xc0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        set->contains(static_cast<key>(rng.below(range))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Set>
void BM_AddRemoveCycle(benchmark::State& state) {
  auto set = make_set<Set>();
  const std::uint64_t range = prefill(*set, state.range(0));
  lfst::xoshiro256ss rng(0xad);
  for (auto _ : state) {
    const key k = static_cast<key>(rng.below(range));
    benchmark::DoNotOptimize(set->add(k));
    benchmark::DoNotOptimize(set->remove(k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

template <typename Set>
void BM_Iterate(benchmark::State& state) {
  auto set = make_set<Set>();
  prefill(*set, state.range(0));
  for (auto _ : state) {
    std::uint64_t n = 0;
    set->for_each([&](const key&) { ++n; });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

/// The node-hop panel: 1000-key for_range calls from seeded random starts.
/// Under updates the skip-tree's leaves split on tall adds and are unlinked
/// only when empty, so they shrink from the ~1/q keys of a fresh tree to a
/// steady state of about 4 keys at 16 x size add/remove pairs.  The tree
/// is churned that far before timing (over up to 4 threads, to keep the
/// 2^20 set-up short): each pair adds an absent key and removes a random
/// member, so the size stays put at half the key range.  A scan then hops
/// a leaf every few keys, which is the cost this panel prices; the
/// skip-tree cases report the leaf width they ran at as `leaf_keys`.
template <typename Set>
void churn_to_steady_state(Set& set, std::size_t size) {
  constexpr std::size_t kPairsPerKey = 16;
  const std::uint64_t range = static_cast<std::uint64_t>(size) * 2;
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      // Each thread adds, and later removes, only its own members.
      lfst::xoshiro256ss rng(0xf0f0 + t);
      const std::size_t mine = size / threads;
      std::vector<key> live;
      live.reserve(mine);
      while (live.size() < mine) {
        const key k = static_cast<key>(rng.below(range));
        if (set.add(k)) live.push_back(k);
      }
      for (std::size_t pairs = 0; pairs < kPairsPerKey * mine;) {
        const key k = static_cast<key>(rng.below(range));
        if (!set.add(k)) continue;
        key& victim = live[rng.below(live.size())];
        set.remove(victim);
        victim = k;
        ++pairs;
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

template <typename Set>
void BM_ForRange(benchmark::State& state) {
  constexpr std::uint64_t kScanKeys = 1000;
  auto set = make_set<Set>();
  const auto size = static_cast<std::size_t>(state.range(0));
  churn_to_steady_state(*set, size);
  const auto range = static_cast<std::uint64_t>(size) * 2;
  lfst::xoshiro256ss rng(0x5ca7);
  std::uint64_t keys = 0;
  for (auto _ : state) {
    std::uint64_t n = 0;
    benchmark::DoNotOptimize(set->for_range(
        static_cast<key>(rng.below(range)), static_cast<key>(range),
        [&](const key& k) {
          benchmark::DoNotOptimize(k);
          return ++n < kScanKeys;
        }));
    keys += n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys));
  if constexpr (std::is_same_v<Set, lfst::skiptree::skip_tree<key>>) {
    lfst::skiptree::skip_tree_inspector<key> ins(*set);
    state.counters["leaf_keys"] =
        static_cast<double>(ins.level_keys(0).size()) /
        static_cast<double>(ins.level_width(0));
  }
}

constexpr std::int64_t kSmall = 1 << 10;
constexpr std::int64_t kMedium = 1 << 16;
constexpr std::int64_t kLarge = 1 << 20;

// Fixed iteration counts: benchmark's automatic calibration would re-enter
// the benchmark function (and so redo the expensive prefill) several times
// per case.
#define LFST_BENCH_SET(fn, iters)                                       \
  BENCHMARK_TEMPLATE(fn, lfst::skiptree::skip_tree<key>)                \
      ->Arg(kSmall)->Arg(kMedium)->Arg(kLarge)->Iterations(iters);      \
  BENCHMARK_TEMPLATE(fn, lfst::skiplist::skip_list<key>)                \
      ->Arg(kSmall)->Arg(kMedium)->Arg(kLarge)->Iterations(iters);      \
  BENCHMARK_TEMPLATE(fn, lfst::avltree::opt_tree<key>)                  \
      ->Arg(kSmall)->Arg(kMedium)->Arg(kLarge)->Iterations(iters);      \
  BENCHMARK_TEMPLATE(fn, lfst::blinktree::blink_tree<key>)              \
      ->Arg(kSmall)->Arg(kMedium)->Arg(kLarge)->Iterations(iters);

LFST_BENCH_SET(BM_Contains, 300000)
LFST_BENCH_SET(BM_AddRemoveCycle, 100000)

// The in-node search in isolation: random probes into a pool of node-like
// sorted key runs, one search per iteration.  The pool is large enough that
// the probed run usually misses L1, matching how a descent encounters a
// node; `width` sweeps the node sizes the trees actually build (expected
// skip-tree width 1/q = 32; b-link nodes up to 2M = 256).
void BM_KernelSearch(benchmark::State& state) {
  const std::uint32_t width = static_cast<std::uint32_t>(state.range(0));
  constexpr std::size_t kNodes = 4096;
  std::vector<key> pool(kNodes * width);
  lfst::xoshiro256ss rng(0x5ea7c4);
  for (key& k : pool) k = static_cast<key>(rng.below(1u << 30));
  for (std::size_t n = 0; n < kNodes; ++n) {
    std::sort(pool.begin() + static_cast<std::ptrdiff_t>(n * width),
              pool.begin() + static_cast<std::ptrdiff_t>((n + 1) * width));
  }
  const std::less<key> cmp;
  for (auto _ : state) {
    const std::size_t n = rng.below(kNodes);
    const key v = static_cast<key>(rng.below(1u << 30));
    benchmark::DoNotOptimize(
        lfst::skiptree::node_search(pool.data() + n * width, width, v, cmp));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_KernelSearch)
    ->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Iterations(2000000);

// The pool's hit path in isolation: one allocate and one deallocate of the
// same size per iteration, so every allocation after the first is a pop
// from the thread cache and every free a push back onto it.  Sizes: a
// small block (64 B), a 32-key leaf payload of 8-byte keys (272 B, served
// from the 384 B class) and a 32-key routing payload (536 B, from 768 B).
void BM_PoolAllocFree(benchmark::State& state) {
  using lfst::alloc::pool_policy;
  const auto bytes = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kAlign = alignof(void*);
  for (auto _ : state) {
    void* p = pool_policy::allocate(bytes, kAlign);
    benchmark::DoNotOptimize(p);
    pool_policy::deallocate(p, bytes, kAlign);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_PoolAllocFree)
    ->Arg(64)->Arg(384)->Arg(768)->Iterations(5000000);

/// Pins the calling thread to the `slot`-th allowed CPU for one panel, then
/// restores its mask (threads the benchmark library starts later inherit
/// it).
class pinned_panel {
 public:
  explicit pinned_panel(int slot = 0) {
    pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    lfst::bench::pin_to_cpu(slot);
  }
  ~pinned_panel() {
    pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  pinned_panel(const pinned_panel&) = delete;
  pinned_panel& operator=(const pinned_panel&) = delete;

 private:
  cpu_set_t saved_{};
};

// The reclamation layer's two costs on the update path, split: entering
// and leaving a guard (every operation does this once), and retiring one
// replaced payload (every successful update does this once, inside its
// guard).  BM_Retire pins a guard per retire as an update does, so the
// retire share is BM_Retire minus BM_GuardPinUnpin.  The retired block is a
// 384 B stand-in with a no-op deleter: the pool free it would trigger is
// BM_PoolAllocFree's panel.  Each case uses a fresh domain; under leaky the
// parked list grows by one entry per iteration until the domain dies.
template <typename Policy>
void BM_GuardPinUnpin(benchmark::State& state) {
  pinned_panel pin;
  typename Policy::domain_type domain;
  for (auto _ : state) {
    typename Policy::guard_type g(domain);
    benchmark::DoNotOptimize(&g);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <typename Policy>
void BM_Retire(benchmark::State& state) {
  pinned_panel pin;
  typename Policy::domain_type domain;
  alignas(64) static std::byte block[384];
  for (auto _ : state) {
    typename Policy::guard_type g(domain);
    Policy::retire(domain, lfst::reclaim::retired_block{
                               block, [](void*) {}, sizeof(block)});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// BM_Retire with four threads on one domain, each pinned to its own CPU: the
// pattern of perfbench's write_cached, where every update pins and retires.
// What it adds to the single-thread panels is the traffic on cache lines
// the threads share (the global epoch, and any domain-wide counter).
void BM_PinRetireShared(benchmark::State& state) {
  static lfst::reclaim::ebr_domain domain;
  pinned_panel pin(state.thread_index());
  alignas(64) static std::byte block[384];
  for (auto _ : state) {
    lfst::reclaim::ebr_domain::guard g(domain);
    domain.retire(lfst::reclaim::retired_block{
        block, [](void*) {}, sizeof(block)});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK_TEMPLATE(BM_GuardPinUnpin, lfst::reclaim::ebr_policy)
    ->Iterations(5000000);
BENCHMARK_TEMPLATE(BM_GuardPinUnpin, lfst::reclaim::leaky_policy)
    ->Iterations(5000000);
BENCHMARK_TEMPLATE(BM_Retire, lfst::reclaim::ebr_policy)
    ->Iterations(1000000);
BENCHMARK_TEMPLATE(BM_Retire, lfst::reclaim::leaky_policy)
    ->Iterations(1000000);
BENCHMARK(BM_PinRetireShared)->Threads(4)->UseRealTime()->Iterations(1000000);

// Iteration also includes the snap-tree (the Figure 10 participant).
BENCHMARK_TEMPLATE(BM_Iterate, lfst::skiptree::skip_tree<key>)
    ->Arg(kMedium)->Arg(kLarge)->Iterations(8);
BENCHMARK_TEMPLATE(BM_Iterate, lfst::skiplist::skip_list<key>)
    ->Arg(kMedium)->Arg(kLarge)->Iterations(8);
BENCHMARK_TEMPLATE(BM_Iterate, lfst::avltree::snap_tree<key>)
    ->Arg(kMedium)->Arg(kLarge)->Iterations(8);
BENCHMARK_TEMPLATE(BM_Iterate, lfst::blinktree::blink_tree<key>)
    ->Arg(kMedium)->Arg(kLarge)->Iterations(8);

BENCHMARK_TEMPLATE(BM_ForRange, lfst::skiptree::skip_tree<key>)
    ->Arg(kMedium)->Arg(kLarge)->Iterations(20000);
BENCHMARK_TEMPLATE(BM_ForRange, lfst::blinktree::blink_tree<key>)
    ->Arg(kMedium)->Arg(kLarge)->Iterations(20000);

// Multi-threaded add/remove over a deliberately tiny key range: the whole
// set fits in a handful of leaves, so concurrent payload CASes collide and
// the skip-tree's retry paths (and the retries charged to LFST_TRACE spans)
// become non-trivial.
void BM_ContendedAddRemove(benchmark::State& state) {
  static lfst::skiptree::skip_tree<key>* shared = [] {
    lfst::skiptree::skip_tree_options o;
    o.q_log2 = 5;
    auto* t = new lfst::skiptree::skip_tree<key>(o);
    lfst::xoshiro256ss rng(0xc027);
    for (int i = 0; i < 12; ++i) t->add(static_cast<key>(rng.below(16)));
    return t;
  }();
  lfst::xoshiro256ss rng(0xc028 + static_cast<std::uint64_t>(
                                      state.thread_index()));
  for (auto _ : state) {
    const key k = static_cast<key>(rng.below(16));
    benchmark::DoNotOptimize(shared->add(k));
    benchmark::DoNotOptimize(shared->remove(k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_ContendedAddRemove)->Threads(4)->Iterations(250000);

/// Console output as usual, plus each case's repetitions folded into one
/// bench-JSON summary entry (ops/ms over repetitions), named by the
/// benchmark's canonical name -- stable across runs, which is what the gate
/// joins on.  The library reports a case's repetitions in one call and its
/// aggregates (mean, median, ...) in a second one, which records nothing.
class json_capture_reporter : public benchmark::ConsoleReporter {
 public:
  explicit json_capture_reporter(lfst::bench::bench_json_reporter& out)
      : out_(out) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    std::vector<double> items_per_ms;
    for (const Run& r : reports) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      auto it = r.counters.find("items_per_second");
      items_per_ms.push_back(it == r.counters.end()
                                 ? 0.0
                                 : static_cast<double>(it->second) / 1000.0);
    }
    if (items_per_ms.empty()) return;
    out_.record(reports.front().benchmark_name(), reports.front().threads,
                lfst::summary::of(std::move(items_per_ms)));
  }

 private:
  lfst::bench::bench_json_reporter& out_;
};

}  // namespace

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  lfst::bench::bench_json_reporter bench_json("micro", argc, argv);
  // Three repetitions of every case, interleaved in random order across
  // cases, unless the command line says otherwise (a later flag wins).  One
  // slow stretch of the host then costs one repetition of a few cases, not
  // the whole of several neighbouring ones.  The process is not pinned:
  // BM_ContendedAddRemove's threads would inherit the mask.
  std::vector<char*> args(argv, argv + argc);
  char repetitions[] = "--benchmark_repetitions=3";
  char interleave[] = "--benchmark_enable_random_interleaving=true";
  args.insert(args.begin() + 1, {repetitions, interleave});
  int nargs = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&nargs, args.data());
  if (benchmark::ReportUnrecognizedArguments(nargs, args.data())) return 1;
  json_capture_reporter reporter(bench_json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
