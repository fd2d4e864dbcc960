// Ablation B2: reclamation schemes head-to-head on the Michael-Harris list.
//
// The list is the substrate the paper builds on (Sec. II) and the canonical
// structure for comparing safe-memory-reclamation schemes: every remove
// retires a node, every traversal touches many.  This harness runs the same
// mixes over the EBR, hazard-pointer, and leaky variants.  Expected shape
// (Michael 2004; Hart et al. 2007): EBR's per-operation cost beats hazard
// pointers' per-dereference publication fence; leaky upper-bounds both.
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "list/harris_list.hpp"

namespace {

using key = long;
using lfst::bench::bench_config;
using lfst::workload::scenario;

template <typename Factory>
double throughput(const scenario& sc, Factory&& f) {
  return lfst::workload::run_scenario(sc, std::forward<Factory>(f)).mean;
}

}  // namespace

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  const bench_config cfg = bench_config::from_env();
  lfst::bench::print_header(
      "Ablation B2: Michael-Harris list, EBR vs hazard pointers vs leaky",
      cfg);

  // Lists are O(n) per op: shrink the working set so a trial stays sane.
  const std::uint64_t range = 512;
  const std::size_t ops = cfg.ops / 4;
  std::printf("key range=%llu, ops/trial=%zu\n\n",
              static_cast<unsigned long long>(range), ops);

  lfst::workload::table tab(
      {"mix", "EBR (ops/ms)", "hazard (ops/ms)", "leaky (ops/ms)"});
  for (const auto& m :
       {lfst::workload::kReadDominated, lfst::workload::kWriteDominated}) {
    scenario sc;
    sc.operations = m;
    sc.key_range = range;
    sc.total_ops = ops;
    sc.threads = cfg.threads.back();
    sc.trials = cfg.trials;
    sc.seed = 0x115;

    const double ebr = throughput(sc, [] {
      return std::make_unique<lfst::list::harris_list<key>>();
    });
    const double hp = throughput(sc, [] {
      return std::make_unique<lfst::list::harris_list_hp<key>>();
    });
    const double leaky = throughput(sc, [] {
      return std::make_unique<lfst::list::harris_list<
          key, std::less<key>, lfst::reclaim::leaky_policy>>();
    });
    tab.add_row({lfst::bench::mix_name(m), lfst::workload::table::fmt(ebr, 0),
                 lfst::workload::table::fmt(hp, 0),
                 lfst::workload::table::fmt(leaky, 0)});
  }
  tab.print();
  std::printf("\nexpected shape: leaky >= EBR > hazard pointers (per-hop "
              "publication fences).\n");
  return 0;
}
