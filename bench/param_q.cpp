// Supplemental-material reproduction: skip-tree parameter sweep over q, the
// failure rate of the geometric height distribution (expected node width is
// 1/q).  The paper swept q per scenario and selected q = 1/32 as the best
// average performer; this harness re-runs that sweep for both operation
// mixes at the medium working-set size and reports where the optimum lands.
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "skiptree/skip_tree.hpp"

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  using lfst::bench::bench_config;
  using lfst::workload::scenario;
  const bench_config cfg = bench_config::from_env();
  lfst::bench::print_header("Supplemental: skip-tree q parameter sweep", cfg);

  const int threads = cfg.threads.back();
  std::printf("threads=%d, max size %s\n\n", threads,
              lfst::bench::range_name(lfst::workload::kRangeMedium).c_str());

  lfst::workload::table tab({"q", "90c/9a/1r", "33c/33a/33r", "(ops/ms)"});
  double best_mean = 0.0;
  std::string best_q;
  for (int q_log2 = 1; q_log2 <= 7; ++q_log2) {
    std::vector<std::string> row{"1/" + std::to_string(1 << q_log2)};
    double combined = 0.0;
    for (const auto& m :
         {lfst::workload::kReadDominated, lfst::workload::kWriteDominated}) {
      scenario sc;
      sc.operations = m;
      sc.key_range = lfst::workload::kRangeMedium;
      sc.total_ops = cfg.ops;
      sc.threads = threads;
      sc.trials = cfg.trials;
      sc.seed = 0x9 + static_cast<std::uint64_t>(q_log2);
      const auto s = lfst::workload::run_scenario(sc, [q_log2] {
        lfst::skiptree::skip_tree_options o;
        o.q_log2 = q_log2;
        return std::make_unique<lfst::skiptree::skip_tree<long>>(o);
      });
      combined += s.mean;
      row.push_back(lfst::workload::table::fmt(s.mean, 0) + " +/- " +
                    lfst::workload::table::fmt(s.stddev, 0));
    }
    if (combined > best_mean) {
      best_mean = combined;
      best_q = row[0];
    }
    row.emplace_back("");
    tab.add_row(row);
  }
  tab.print();
  std::printf("\nbest average q this run: %s (paper: q = 1/32)\n",
              best_q.c_str());
  return 0;
}
