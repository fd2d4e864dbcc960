// Structural census: how q shapes the tree.
//
// The skip-tree's cache-consciousness comes from packing an expected 1/q
// elements per node (Sec. III-C: heights are geometric with failure rate
// q).  This harness builds trees of fixed size across q values and reports
// the realized average leaf width, node counts per level, tree height, and
// the resulting memory-per-key -- the structural mechanism behind the
// Figure 9 locality gap.
//
// Those widths hold for trees grown by adds alone.  The churn axis then
// takes the q = 1/32 tree through k x size random add/remove pairs, for k
// in {0, 1, 4, 16}, and reports the width the leaves keep: removes thin the
// leaves, and the leaf merge (detail/compact.hpp) is what holds them near
// the design width.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  lfst::bench::bench_json_reporter bench_json("node_width", argc, argv);
  const auto cfg = lfst::bench::bench_config::from_env();
  lfst::bench::print_header("Structural census: node width vs q", cfg);

  const std::size_t n = std::max<std::size_t>(cfg.ops, 100000);
  std::printf("tree size: %zu random keys\n\n", n);

  lfst::workload::table tab({"q", "height", "leaf nodes", "avg leaf width",
                             "routing nodes", "expected width (1/q)"});
  for (int q_log2 = 1; q_log2 <= 7; ++q_log2) {
    lfst::skiptree::skip_tree_options o;
    o.q_log2 = q_log2;
    lfst::skiptree::skip_tree<long> t(o);
    lfst::xoshiro256ss rng(0x717 + static_cast<std::uint64_t>(q_log2));
    for (std::size_t i = 0; i < n; ++i) {
      t.add(static_cast<long>(rng.below(std::uint64_t{1} << 40)));
    }
    lfst::skiptree::skip_tree_inspector<long> insp(t);
    const auto rep = insp.validate();
    if (!rep.ok) {
      std::printf("INVALID structure at q=1/%d: %s\n", 1 << q_log2,
                  rep.to_string().c_str());
      return 1;
    }
    const std::size_t leaves = rep.nodes_per_level[0];
    std::size_t routing = 0;
    for (std::size_t l = 1; l < rep.nodes_per_level.size(); ++l) {
      routing += rep.nodes_per_level[l];
    }
    const double avg_width = static_cast<double>(t.size()) /
                             static_cast<double>(leaves);
    // Structural census, not throughput: the tracked scalar is the realized
    // average leaf width, with the per-level shape riding along in "extra".
    bench_json.record("node_width/q=1-" + std::to_string(1 << q_log2), 1,
                      lfst::summary::of({avg_width}),
                      {{"height", static_cast<double>(t.height())},
                       {"leaf_nodes", static_cast<double>(leaves)},
                       {"routing_nodes", static_cast<double>(routing)}});
    tab.add_row({"1/" + std::to_string(1 << q_log2),
                 std::to_string(t.height()), std::to_string(leaves),
                 lfst::workload::table::fmt(avg_width, 1),
                 std::to_string(routing), std::to_string(1 << q_log2)});
  }
  tab.print();
  std::printf("\nexpected shape: realized average leaf width tracks 1/q; "
              "height shrinks as q falls.\n");

  // Churn axis at the default q = 1/32: n keys from [0, 2n), then pairs of
  // one add and one remove of keys drawn from the same range.
  std::printf("\nchurn at q=1/32: k x %zu add/remove pairs over [0, %zu)\n\n",
              n, 2 * n);
  lfst::workload::table churn({"k", "keys", "leaf nodes", "avg leaf width",
                               "level-1 nodes", "dead separators",
                               "bytes/key"});
  lfst::skiptree::skip_tree<long> t;
  lfst::xoshiro256ss rng(0xc4u);
  const auto draw = [&] { return static_cast<long>(rng.below(2 * n)); };
  while (t.size() < n) t.add(draw());
  std::size_t done = 0;
  for (const std::size_t k : {0u, 1u, 4u, 16u}) {
    for (; done < k * n; ++done) {
      t.add(draw());
      t.remove(draw());
    }
    lfst::skiptree::skip_tree_inspector<long> insp(t);
    const auto rep = insp.validate();
    if (!rep.ok) {
      std::printf("INVALID structure after %zu x churn: %s\n", k,
                  rep.to_string().c_str());
      return 1;
    }
    const double bytes_per_key = static_cast<double>(insp.live_bytes()) /
                                 static_cast<double>(t.size());
    const std::size_t level1 =
        rep.nodes_per_level.size() > 1 ? rep.nodes_per_level[1] : 0;
    bench_json.record("node_width/churn=" + std::to_string(k), 1,
                      lfst::summary::of({rep.leaf_keys_mean}),
                      {{"leaf_nodes",
                        static_cast<double>(rep.nodes_per_level[0])},
                       {"level1_nodes", static_cast<double>(level1)},
                       {"dead_separators",
                        static_cast<double>(rep.dead_separators)},
                       {"bytes_per_key", bytes_per_key}});
    churn.add_row({std::to_string(k), std::to_string(t.size()),
                   std::to_string(rep.nodes_per_level[0]),
                   lfst::workload::table::fmt(rep.leaf_keys_mean, 1),
                   std::to_string(level1),
                   std::to_string(rep.dead_separators),
                   lfst::workload::table::fmt(bytes_per_key, 1)});
  }
  churn.print();
  std::printf("\nexpected shape: leaves hold at least 1/(4q) = 8 keys on "
              "average after any amount of churn.\n");
  return 0;
}
