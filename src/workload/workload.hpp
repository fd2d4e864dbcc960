// Synthetic workloads reproducing the paper's experimental design (Sec. V).
//
// "Synthetic workloads are created that vary in proportions of contains,
//  add, and remove operations and in the number of unique elements stored
//  by the data structure.  Half of the workloads use a 90:9:1 ratio of
//  operations.  The other half use a 1/3:1/3:1/3 ratio.  5,000,000
//  operations are executed in each independent trial [...].  The maximum
//  size of the tree is determined through selection of random elements from
//  a uniform distribution with a range of 500 or 200,000 or 2^32 integers.
//  Each independent trial is repeated 64 times.  Integers that are
//  designated for a contains or remove operation are pre-loaded into the
//  tree prior to the beginning of a trial."
//
// This header provides exactly those ingredients: operation mixes, the three
// key ranges, deterministic per-thread operation streams, the pre-loading
// rule, and a timed multi-threaded trial driver.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace lfst::workload {

/// Operation kinds, in the order the paper lists them.
enum class op_kind : std::uint8_t { kContains = 0, kAdd = 1, kRemove = 2 };

struct op {
  op_kind kind;
  std::uint64_t key;
};

/// An operation mix in percent.  The two mixes of Sec. V:
struct mix {
  int contains_pct;
  int add_pct;
  int remove_pct;

  constexpr int total() const noexcept {
    return contains_pct + add_pct + remove_pct;
  }
};

/// 90% contains, 9% add, 1% remove -- the paper's read-dominated workload.
inline constexpr mix kReadDominated{90, 9, 1};
/// 1/3 : 1/3 : 1/3 -- the paper's write-dominated workload.
inline constexpr mix kWriteDominated{34, 33, 33};

/// The paper's three key ranges ("max size" panels of Figure 9).
inline constexpr std::uint64_t kRangeSmall = 500;
inline constexpr std::uint64_t kRangeMedium = 200000;
inline constexpr std::uint64_t kRangeLarge = std::uint64_t{1} << 32;

/// The CPUs this process may run on (its affinity mask), ascending.
inline const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

/// Pin the calling thread to the `slot`-th allowed CPU, wrapping when there
/// are more slots than CPUs.  A no-op when the mask cannot be read.  Every
/// thread the trial drivers below start runs this first, so thread i of a
/// trial stays on one CPU for the whole trial.
inline void pin_to_cpu(int slot) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/// One experimental configuration.
struct scenario {
  mix operations = kReadDominated;
  std::uint64_t key_range = kRangeMedium;
  std::size_t total_ops = 1 << 20;  ///< across all threads (paper: 5M)
  int threads = 1;
  int trials = 5;                   ///< paper: 64 repetitions
  std::uint64_t seed = 0x5eed;
};

/// Deterministically generate thread `tid`'s slice of a trial's operations.
inline std::vector<op> make_op_stream(const scenario& sc,
                                      std::uint64_t trial_seed, int tid) {
  const std::size_t per_thread =
      sc.total_ops / static_cast<std::size_t>(sc.threads);
  xoshiro256ss rng(thread_seed(trial_seed, static_cast<std::uint64_t>(tid)));
  std::vector<op> ops;
  ops.reserve(per_thread);
  const int total = sc.operations.total();
  for (std::size_t i = 0; i < per_thread; ++i) {
    const int dice = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
    op_kind kind;
    if (dice < sc.operations.contains_pct) {
      kind = op_kind::kContains;
    } else if (dice < sc.operations.contains_pct + sc.operations.add_pct) {
      kind = op_kind::kAdd;
    } else {
      kind = op_kind::kRemove;
    }
    ops.push_back(op{kind, rng.below(sc.key_range)});
  }
  return ops;
}

/// Pre-load rule (Sec. V): every key that a contains or remove operation
/// will touch is inserted before the trial starts, so the working set is in
/// place from the first operation.
template <typename Set>
void preload(Set& set, const std::vector<std::vector<op>>& streams) {
  for (const auto& stream : streams) {
    for (const op& o : stream) {
      if (o.kind != op_kind::kAdd) {
        set.add(static_cast<typename Set::key_type>(o.key));
      }
    }
  }
}

/// Result of one timed trial.
struct trial_result {
  double millis = 0.0;
  double ops_per_ms = 0.0;  ///< the Figure 9 metric (total throughput)
};

/// Execute one trial against an existing (already pre-loaded) set: all
/// threads start together behind a spin barrier, each drains its stream,
/// and the wall time spans first release to last completion.  Worker `tid`
/// runs on slot `tid` (`pin_to_cpu`).
template <typename Set>
trial_result execute_trial(Set& set,
                           const std::vector<std::vector<op>>& streams) {
  const int threads = static_cast<int>(streams.size());
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int tid = 0; tid < threads; ++tid) {
    pool.emplace_back([&, tid] {
      pin_to_cpu(tid);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (const op& o : streams[static_cast<std::size_t>(tid)]) {
        const auto k = static_cast<typename Set::key_type>(o.key);
        switch (o.kind) {
          case op_kind::kContains:
            set.contains(k);
            break;
          case op_kind::kAdd:
            set.add(k);
            break;
          case op_kind::kRemove:
            set.remove(k);
            break;
        }
      }
    });
  }
  while (ready.load(std::memory_order_acquire) != threads) {
    std::this_thread::yield();
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  trial_result r;
  r.millis = std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::size_t total = 0;
  for (const auto& s : streams) total += s.size();
  r.ops_per_ms = static_cast<double>(total) / r.millis;
  return r;
}

/// Run a full scenario: `trials` independent repetitions, each against a
/// freshly constructed set (from `factory`), pre-loaded per the paper's
/// rule.  Returns the summary (mean/stddev over trials) of ops/ms.
///
/// `observe(set, trial)` is called after pre-load and before the timed
/// trial; whatever it returns stays alive for the duration of the trial and
/// is destroyed before the set -- the hook the benches use to attach a
/// structural-health ticker (or any other per-trial observer) to the live
/// set without the driver knowing the structure's type.
template <typename Factory, typename Observe>
summary run_scenario(const scenario& sc, Factory&& factory,
                     Observe&& observe) {
  std::vector<double> throughputs;
  throughputs.reserve(static_cast<std::size_t>(sc.trials));
  for (int trial = 0; trial < sc.trials; ++trial) {
    const std::uint64_t trial_seed =
        thread_seed(sc.seed, static_cast<std::uint64_t>(trial) + 1);
    std::vector<std::vector<op>> streams;
    streams.reserve(static_cast<std::size_t>(sc.threads));
    for (int tid = 0; tid < sc.threads; ++tid) {
      streams.push_back(make_op_stream(sc, trial_seed, tid));
    }
    auto set = factory();
    preload(*set, streams);
    {
      auto scope = observe(*set, trial);
      throughputs.push_back(execute_trial(*set, streams).ops_per_ms);
      (void)scope;
    }
  }
  return summary::of(std::move(throughputs));
}

template <typename Factory>
summary run_scenario(const scenario& sc, Factory&& factory) {
  return run_scenario(sc, std::forward<Factory>(factory),
                      [](auto&, int) { return 0; });
}

// --- Figure 10: iteration throughput under contention -------------------------

struct iteration_scenario {
  mix operations = kReadDominated;   ///< the paper uses 90/9/1
  std::uint64_t key_range = kRangeLarge;
  std::size_t preload_keys = 1 << 20;  ///< live set the iterator scans
  int contenders = 0;                  ///< threads running the mix
  double duration_ms = 500.0;
  std::uint64_t seed = 0xf16;
};

struct iteration_result {
  double elements_per_ms = 0.0;  ///< iterator-thread throughput (Fig. 10)
  std::size_t full_scans = 0;
};

/// One iteration trial: a single thread repeatedly performs full ascending
/// scans while `contenders` threads run the operation mix; returns the
/// iterator's throughput in elements per millisecond.  The scanner, the
/// thread being measured, runs alone on slot 0; the contenders share the
/// other slots round-robin, so when there are more contenders than CPUs
/// they double up there, never on the scanner's CPU.  The caller only
/// waits, so its own affinity is left as it was.
template <typename Set>
iteration_result run_iteration_trial(Set& set, const iteration_scenario& sc) {
  // Pre-load a live working set.
  {
    xoshiro256ss rng(sc.seed);
    for (std::size_t i = 0; i < sc.preload_keys; ++i) {
      set.add(static_cast<typename Set::key_type>(rng.below(sc.key_range)));
    }
  }
  std::atomic<bool> stop{false};
  const int contender_slots =
      std::max(static_cast<int>(allowed_cpus().size()) - 1, 1);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(sc.contenders));
  for (int tid = 0; tid < sc.contenders; ++tid) {
    pool.emplace_back([&, tid] {
      pin_to_cpu(1 + tid % contender_slots);
      xoshiro256ss rng(thread_seed(sc.seed + 1, static_cast<std::uint64_t>(tid)));
      const int total = sc.operations.total();
      while (!stop.load(std::memory_order_acquire)) {
        for (int burst = 0; burst < 256; ++burst) {
          const auto k =
              static_cast<typename Set::key_type>(rng.below(sc.key_range));
          const int dice =
              static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
          if (dice < sc.operations.contains_pct) {
            set.contains(k);
          } else if (dice < sc.operations.contains_pct + sc.operations.add_pct) {
            set.add(k);
          } else {
            set.remove(k);
          }
        }
      }
    });
  }

  std::uint64_t visited = 0;
  std::size_t scans = 0;
  double elapsed_ms = 0.0;
  std::thread scanner([&] {
    pin_to_cpu(0);
    const auto t0 = std::chrono::steady_clock::now();
    do {
      std::uint64_t n = 0;
      set.for_each([&](const auto&) { ++n; });
      visited += n;
      ++scans;
      elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    } while (elapsed_ms < sc.duration_ms);
  });
  scanner.join();

  stop.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  iteration_result r;
  r.elements_per_ms = static_cast<double>(visited) / elapsed_ms;
  r.full_scans = scans;
  return r;
}

}  // namespace lfst::workload
