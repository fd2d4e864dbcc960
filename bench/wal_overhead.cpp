// WAL overhead: what durability costs per mutation.
//
// A/B across the same insert/remove-heavy workload: the plain in-memory
// skip-tree against durable_tree under each fsync policy (none / interval
// / every_commit).  The interesting numbers are the ratios -- policy
// `none` prices the logging machinery itself (record encode + per-thread
// buffer + flusher writes), `interval` adds the background fsync cadence,
// and `every_commit` shows the group-commit floor (latency-bound by the
// device sync; throughput recovers with thread count as more acks share
// one fsync).  The WAL counters of every durable trial (appends, bytes,
// fsyncs, rotations) are summed onto the --telemetry-json sidecar's
// counters line next to the fsync/commit/batch sketches, which CI gates
// on: a run whose storage.wal.appends is zero means the facade silently
// stopped logging.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "skiptree/skip_tree.hpp"
#include "storage/durable_tree.hpp"

namespace {

using key = long;
using lfst::bench::bench_config;
using lfst::storage::durable_options;
using lfst::storage::durable_tree;
using lfst::storage::fsync_policy;

constexpr long kKeyRange = 1 << 16;

/// WAL counters summed over every durable trial, for the sidecar.
lfst::storage::wal_stats wal_totals;

/// ops/ms for `threads` workers doing a 50/50 add/remove mix through `fn`.
template <typename Fn>
double run_trial(int threads, std::uint64_t ops_total, std::uint64_t seed,
                 Fn&& op) {
  std::vector<std::thread> workers;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      lfst::bench::pin_to_cpu(t);
      lfst::xoshiro256ss rng{
          lfst::thread_seed(seed, static_cast<std::uint64_t>(t))};
      const std::uint64_t n = ops_total / static_cast<std::uint64_t>(threads);
      for (std::uint64_t i = 0; i < n; ++i) {
        const key k = static_cast<key>(rng.below(kKeyRange));
        op(k, rng.below(2) == 0);
      }
    });
  }
  for (auto& w : workers) w.join();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return static_cast<double>(ops_total) / ms;
}

template <typename MakeOp>
lfst::summary measure(const bench_config& cfg, int threads, MakeOp&& make) {
  std::vector<double> samples;
  for (int trial = 0; trial < cfg.trials; ++trial) {
    auto ctx = make();  // fresh tree (and fresh directory) per trial
    samples.push_back(
        run_trial(threads, cfg.ops,
                  0x5eedull + static_cast<std::uint64_t>(trial),
                  [&](key k, bool add) { ctx->apply(k, add); }));
  }
  return lfst::summary::of(std::move(samples));
}

struct plain_ctx {
  lfst::skiptree::skip_tree<key> tree;
  void apply(key k, bool add) { add ? (void)tree.add(k) : (void)tree.remove(k); }
};

struct durable_ctx {
  explicit durable_ctx(fsync_policy p) {
    std::filesystem::remove_all(dir);
    durable_options o;
    o.wal.sync = p;
    o.checkpoint_bytes = 256ull << 20;  // out of the way: measure the WAL
    tree.emplace(dir, o);
  }
  ~durable_ctx() {
    if (tree) {
      tree->close();
      const auto s = tree->log_stats();
      wal_totals.appends += s.appends;
      wal_totals.bytes_appended += s.bytes_appended;
      wal_totals.fsyncs += s.fsyncs;
      wal_totals.rotations += s.rotations;
    }
    tree.reset();
    std::filesystem::remove_all(dir);
  }
  void apply(key k, bool add) {
    add ? (void)tree->add(k) : (void)tree->remove(k);
  }
  std::string dir = "wal_bench_scratch";
  std::optional<durable_tree<key>> tree;
};

}  // namespace

int main(int argc, char** argv) {
  lfst::bench::bench_json_reporter json("wal_overhead", argc, argv);
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  const bench_config cfg = bench_config::from_env();
  lfst::bench::print_header("WAL overhead: plain tree vs durable_tree", cfg);

  lfst::workload::table tab({"configuration", "threads", "ops/ms", "vs plain"});
  for (int threads : cfg.threads) {
    const auto plain = measure(cfg, threads, [] {
      return std::make_unique<plain_ctx>();
    });
    json.record("plain", threads, plain);
    tab.add_row({"plain skip_tree", std::to_string(threads),
                 lfst::workload::table::fmt(plain.mean, 0), "1.00x"});
    for (const fsync_policy p :
         {fsync_policy::none, fsync_policy::interval,
          fsync_policy::every_commit}) {
      const auto s = measure(cfg, threads, [p] {
        return std::make_unique<durable_ctx>(p);
      });
      const std::string name =
          std::string("durable/") + lfst::storage::fsync_policy_name(p);
      json.record(name, threads, s);
      char ratio[32];
      std::snprintf(ratio, sizeof(ratio), "%.2fx",
                    plain.mean > 0 ? s.mean / plain.mean : 0.0);
      tab.add_row({name, std::to_string(threads),
                   lfst::workload::table::fmt(s.mean, 0), ratio});
    }
  }
  tab.print();
  telemetry.count("storage.wal.appends", wal_totals.appends);
  telemetry.count("storage.wal.bytes", wal_totals.bytes_appended);
  telemetry.count("storage.wal.fsyncs", wal_totals.fsyncs);
  telemetry.count("storage.wal.rotations", wal_totals.rotations);
  return 0;
}
