// Sidecar probe for the LFST_TRACE round-trip check (check_sidecar.py).
//
// Runs a known number of skip-tree operations from a few threads over a
// small, contended key range, hands the tree's counters to the bench
// sidecar reporter and exits, so the reporter writes a --telemetry-json
// sidecar whose span lines the checker can count.  The counters line
// carries the number of operations issued as "probe.ops".
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "skiptree/skip_tree.hpp"

int main(int argc, char** argv) {
  lfst::bench::telemetry_reporter telemetry(argc, argv);
  constexpr int kThreads = 4;
  // Three spans per round per thread, plus nested refill/advance spans and
  // events: far below the 4096-slot per-thread rings, so nothing wraps.
  constexpr int kRounds = 200;
  lfst::skiptree::skip_tree<int> tree;
  std::barrier sync(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tree, &sync, t] {
      sync.arrive_and_wait();
      for (int i = 0; i < kRounds; ++i) {
        const int k = (i + t) % 16;
        tree.add(k);
        tree.contains(k);
        tree.remove(k);
      }
    });
  }
  for (auto& w : workers) w.join();
  telemetry.count_tree(tree.stats());
  telemetry.count("probe.ops", std::uint64_t{3} * kThreads * kRounds);
  return 0;
}
