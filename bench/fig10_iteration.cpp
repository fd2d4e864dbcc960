// Figure 10 reproduction: sequential-iteration throughput of a single
// thread (elements/ms) while 0..N contending threads run the 90/9/1 mix
// over the largest working set.
//
// As in the paper, the opt-tree is replaced by the snap-tree for this
// benchmark (snapshot iteration is the snap-tree's raison d'etre); the
// skip-tree and skip-list iterate their bottom level weakly-consistently,
// and the B-link tree takes per-leaf read locks.
#include <memory>
#include <string>
#include <vector>

#include "avltree/snap_tree.hpp"
#include "bench_common.hpp"
#include "blinktree/blink_tree.hpp"
#include "skiplist/skip_list.hpp"
#include "skiptree/skip_tree.hpp"

namespace {

using lfst::bench::bench_config;
using lfst::workload::iteration_result;
using lfst::workload::iteration_scenario;

using key = long;

template <typename Set>
double run_one(const iteration_scenario& sc) {
  auto set = std::make_unique<Set>();
  return lfst::workload::run_iteration_trial(*set, sc).elements_per_ms;
}

}  // namespace

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  const bench_config cfg = bench_config::from_env();
  lfst::bench::print_header(
      "Figure 10: single-thread iteration throughput under contention", cfg);

  const std::size_t preload =
      lfst::bench::env_size("LFST_BENCH_PRELOAD", 200000);
  const double duration_ms = static_cast<double>(
      lfst::bench::env_size("LFST_BENCH_ITER_MS", 400));
  std::printf("preload=%zu keys, %0.0f ms per cell "
              "(LFST_BENCH_PRELOAD / LFST_BENCH_ITER_MS)\n\n",
              preload, duration_ms);

  std::vector<int> contenders{0};
  for (int t : cfg.threads) contenders.push_back(t);

  lfst::workload::table tab({"contenders", "skip-tree", "skip-list",
                             "snap-tree", "b-link-tree", "(elements/ms)"});
  for (const int n : contenders) {
    iteration_scenario sc;
    sc.operations = lfst::workload::kReadDominated;
    sc.key_range = lfst::workload::kRangeLarge;
    sc.preload_keys = preload;
    sc.contenders = n;
    sc.duration_ms = duration_ms;
    sc.seed = 0xf16 + static_cast<std::uint64_t>(n);

    lfst::skiptree::skip_tree_options sto;
    sto.q_log2 = 5;
    lfst::blinktree::blink_tree_options bto;
    bto.min_node_size = 128;

    std::vector<std::string> row{std::to_string(n)};
    {
      lfst::skiptree::skip_tree<key> set(sto);
      row.push_back(lfst::workload::table::fmt(
          lfst::workload::run_iteration_trial(set, sc).elements_per_ms, 0));
    }
    {
      lfst::skiplist::skip_list<key> set;
      row.push_back(lfst::workload::table::fmt(
          lfst::workload::run_iteration_trial(set, sc).elements_per_ms, 0));
    }
    {
      lfst::avltree::snap_tree<key> set;
      row.push_back(lfst::workload::table::fmt(
          lfst::workload::run_iteration_trial(set, sc).elements_per_ms, 0));
    }
    {
      lfst::blinktree::blink_tree<key> set(bto);
      row.push_back(lfst::workload::table::fmt(
          lfst::workload::run_iteration_trial(set, sc).elements_per_ms, 0));
    }
    row.emplace_back("");
    tab.add_row(row);
  }
  tab.print();
  std::printf("\npaper shape: skip-tree > b-link at zero contention (+18%%) "
              "and at high contention (+97%%);\nsnap-tree below b-link at "
              "zero contention (-29%%), above it under contention (+25%%).\n");
  return 0;
}
