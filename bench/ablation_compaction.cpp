// Ablation A: what does online node compaction buy?
//
// The paper's central structural claim (Sec. III-D) is that mutations may
// degrade the tree -- empty nodes, suboptimal references -- and that lazy
// compaction piggybacked on remove() restores optimal paths.  This harness
// runs a remove-heavy churn with compaction enabled vs disabled and reports
// both throughput and the structural census (nodes, empties, suboptimal
// references) afterwards, plus the read throughput over the degraded vs
// compacted structure.
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

namespace {

using key = long;
using lfst::bench::bench_config;
using lfst::workload::scenario;

struct outcome {
  double churn_ops_per_ms = 0.0;
  double read_ops_per_ms = 0.0;
  lfst::skiptree::validation_report census;
};

outcome run(bool compaction, const bench_config& cfg) {
  lfst::skiptree::skip_tree_options o;
  o.q_log2 = 3;  // narrower nodes -> more structure to degrade
  o.compaction = compaction;
  auto set = std::make_unique<lfst::skiptree::skip_tree<key>>(o);

  // Phase 1: remove-heavy churn (20% contains, 20% add, 60% remove).
  scenario churn;
  churn.operations = lfst::workload::mix{20, 20, 60};
  churn.key_range = 1 << 16;
  churn.total_ops = cfg.ops;
  churn.threads = cfg.threads.back();
  churn.seed = 0xab1a;
  std::vector<std::vector<lfst::workload::op>> streams;
  for (int tid = 0; tid < churn.threads; ++tid) {
    streams.push_back(lfst::workload::make_op_stream(churn, churn.seed, tid));
  }
  lfst::workload::preload(*set, streams);

  outcome out;
  out.churn_ops_per_ms =
      lfst::workload::execute_trial(*set, streams).ops_per_ms;

  // Phase 2: read throughput over whatever structure the churn left.
  scenario reads;
  reads.operations = lfst::workload::mix{100, 0, 0};
  reads.key_range = churn.key_range;
  reads.total_ops = cfg.ops;
  reads.threads = churn.threads;
  reads.seed = 0xab1b;
  std::vector<std::vector<lfst::workload::op>> read_streams;
  for (int tid = 0; tid < reads.threads; ++tid) {
    read_streams.push_back(
        lfst::workload::make_op_stream(reads, reads.seed, tid));
  }
  out.read_ops_per_ms =
      lfst::workload::execute_trial(*set, read_streams).ops_per_ms;

  out.census = lfst::skiptree::skip_tree_inspector<key>(*set).validate();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  const bench_config cfg = bench_config::from_env();
  lfst::bench::print_header("Ablation A: online node compaction on/off", cfg);

  const outcome with = run(/*compaction=*/true, cfg);
  const outcome without = run(/*compaction=*/false, cfg);

  lfst::workload::table tab({"metric", "compaction ON", "compaction OFF"});
  tab.add_row({"churn throughput (ops/ms)",
               lfst::workload::table::fmt(with.churn_ops_per_ms, 0),
               lfst::workload::table::fmt(without.churn_ops_per_ms, 0)});
  tab.add_row({"post-churn read throughput (ops/ms)",
               lfst::workload::table::fmt(with.read_ops_per_ms, 0),
               lfst::workload::table::fmt(without.read_ops_per_ms, 0)});
  tab.add_row({"total nodes", std::to_string(with.census.total_nodes),
               std::to_string(without.census.total_nodes)});
  tab.add_row({"empty nodes", std::to_string(with.census.empty_nodes),
               std::to_string(without.census.empty_nodes)});
  tab.add_row({"suboptimal references",
               std::to_string(with.census.suboptimal_refs),
               std::to_string(without.census.suboptimal_refs)});
  tab.add_row({"structure valid", with.census.ok ? "yes" : "NO",
               without.census.ok ? "yes" : "NO"});
  tab.print();
  std::printf("\nexpected shape: OFF leaves more empty nodes and suboptimal "
              "references;\nboth remain structurally valid (relaxed "
              "optimality never breaks reachability).\n");
  return 0;
}
