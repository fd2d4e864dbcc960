// Shared plumbing for the figure-reproduction benchmark binaries.
//
// Every harness prints the same row format and honours the same environment
// knobs, so a full run (`for b in build/bench/*; do $b; done`) produces a
// coherent report:
//
//   LFST_BENCH_OPS     total operations per trial      (default 400000)
//   LFST_BENCH_TRIALS  repetitions per configuration   (default 3; paper 64)
//   LFST_BENCH_THREADS comma-separated thread counts   (default "1,2,4,8",
//                      capped at the CPUs this process may use)
//
// Each value must be a whole number of at least 1 (thread counts at most
// reclaim::kMaxThreads); anything else throws std::invalid_argument naming
// the variable before any trial starts.
//
// Every trial thread is pinned: the workload drivers (workload.hpp) call
// `pin_to_cpu(slot)` on each thread they start, the Figure 10 scanner
// included, so thread i of a trial always runs on the i-th allowed CPU and
// never migrates mid-trial.
//
// The defaults are sized for a small CI-class machine; raising OPS/TRIALS
// toward the paper's 5M x 64 sharpens the statistics without changing the
// harness.
//
// Two sidecars ride along with any bench:
//
//   --bench-json[=PATH]      (env LFST_BENCH_JSON)  machine-readable summary
//       of every measured configuration -- the file tools/bench_gate.py
//       diffs against the checked-in BENCH_*.json baselines;
//   --telemetry-json[=PATH]  (env LFST_TELEMETRY_JSON)  the observability
//       sidecar: one JSON-lines file holding the telemetry plane's schema,
//       samples and latency sketches, any heatmaps the bench attaches, a
//       closing counters line (EBR domain, pool, and whatever structure
//       counters the bench passes in) and -- in -DLFST_TRACE=ON builds --
//       one Chrome trace_event line per recorded span.  Read it with
//       tools/telemetry_report.py (add --perfetto OUT for a trace file).
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "alloc/pool.hpp"
#include "common/stats.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "reclaim/ebr.hpp"
#include "workload/table.hpp"
#include "workload/workload.hpp"

namespace lfst::bench {

/// Parse `text`, the value of environment variable `name`, as a decimal
/// count in [1, max].  Non-numeric input, trailing characters, zero and
/// values above `max` throw std::invalid_argument naming the variable.
inline std::size_t parse_count(const char* name, std::string_view text,
                               std::size_t max) {
  unsigned long long v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size() || v < 1 ||
      v > max) {
    const std::string range =
        max == std::numeric_limits<std::size_t>::max()
            ? "at least 1"
            : "from 1 to " + std::to_string(max);
    throw std::invalid_argument(std::string(name) + "=\"" +
                                std::string(text) +
                                "\": expected a whole number " + range);
  }
  return static_cast<std::size_t>(v);
}

/// A count in [1, max] from the environment; `fallback` when unset or empty.
inline std::size_t env_size(
    const char* name, std::size_t fallback,
    std::size_t max = std::numeric_limits<std::size_t>::max()) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return parse_count(name, v, max);
}

/// A comma-separated list of thread counts, each in [1, kMaxThreads] (the
/// EBR domain's slot limit); `fallback` when unset or empty.
inline std::vector<int> env_threads(const char* name,
                                    std::vector<int> fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::vector<int> out;
  std::string_view rest = v;
  for (;;) {
    const std::size_t comma = rest.find(',');
    out.push_back(static_cast<int>(
        parse_count(name, rest.substr(0, comma), reclaim::kMaxThreads)));
    if (comma == std::string_view::npos) return out;
    rest.remove_prefix(comma + 1);
  }
}

// Worker pinning lives with the trial drivers; re-exported for the benches
// that start their own threads (wal_overhead).
using workload::allowed_cpus;
using workload::pin_to_cpu;

/// The default thread sweep 1,2,4,8 capped at `cpus`: counts above it are
/// dropped and `cpus` itself closes the sweep, so every point runs one
/// pinned thread per CPU at most.
inline std::vector<int> capped_threads(std::size_t cpus) {
  const int cap = static_cast<int>(std::max<std::size_t>(cpus, 1));
  std::vector<int> out;
  for (int t : {1, 2, 4, 8}) {
    if (t <= cap) out.push_back(t);
  }
  if (out.back() < cap && cap < 8) out.push_back(cap);
  return out;
}

struct bench_config {
  std::size_t ops = 400000;
  int trials = 3;
  std::vector<int> threads = capped_threads(allowed_cpus().size());

  static bench_config from_env() {
    bench_config c;
    c.ops = env_size("LFST_BENCH_OPS", c.ops);
    c.trials = static_cast<int>(
        env_size("LFST_BENCH_TRIALS", static_cast<std::size_t>(c.trials),
                 static_cast<std::size_t>(std::numeric_limits<int>::max())));
    c.threads = env_threads("LFST_BENCH_THREADS", c.threads);
    return c;
  }
};

inline const char* mix_name(const workload::mix& m) {
  return m.contains_pct >= 60 ? "90c/9a/1r" : "33c/33a/33r";
}

inline std::string range_name(std::uint64_t range) {
  if (range == workload::kRangeSmall) return "500";
  if (range == workload::kRangeMedium) return "200,000";
  if (range == workload::kRangeLarge) return "2^32";
  return std::to_string(range);
}

inline void print_header(const char* what, const bench_config& c) {
  std::printf("== %s ==\n", what);
  std::printf("ops/trial=%zu trials=%d (override with "
              "LFST_BENCH_OPS / LFST_BENCH_TRIALS / LFST_BENCH_THREADS)\n\n",
              c.ops, c.trials);
}

/// Consume `--flag` / `--flag=PATH` from argv, falling back to `env`.
/// Returns the chosen path ("" when the sidecar was not requested;
/// `fallback` when the flag was given valueless).
inline std::string consume_path_flag(int& argc, char** argv, const char* flag,
                                     const char* env, const char* fallback) {
  std::string path;
  if (const char* e = std::getenv(env); e != nullptr && *e != '\0') path = e;
  const std::size_t flen = std::strlen(flag);
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strcmp(argv[r], flag) == 0) {
      if (path.empty()) path = fallback;
      continue;
    }
    if (std::strncmp(argv[r], flag, flen) == 0 && argv[r][flen] == '=') {
      path = argv[r] + flen + 1;
      continue;
    }
    argv[w++] = argv[r];
  }
  argc = w;
  return path;
}

/// Machine-readable bench summary sidecar: every measured configuration is
/// record()ed as it completes; destruction writes one JSON document that
/// tools/bench_gate.py diffs against a checked-in baseline.  Entry names
/// must be stable across runs (the gate joins baseline and candidate on
/// them) and unique within a run.
class bench_json_reporter {
 public:
  bench_json_reporter(const char* bench, int& argc, char** argv)
      : bench_(bench),
        path_(consume_path_flag(argc, argv, "--bench-json", "LFST_BENCH_JSON",
                                "bench.json")) {}

  bench_json_reporter(const bench_json_reporter&) = delete;
  bench_json_reporter& operator=(const bench_json_reporter&) = delete;

  bool enabled() const noexcept { return !path_.empty(); }

  /// Record one configuration's throughput summary (ops/ms over trials)
  /// plus any extra named scalars (health occupancy, backlog, ...).
  void record(std::string name, int threads, const summary& s,
              std::vector<std::pair<std::string, double>> extra = {}) {
    entries_.push_back(
        entry{std::move(name), threads, s, std::move(extra)});
  }

  ~bench_json_reporter() {
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench json: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"entries\":[",
                 telemetry::json_escape(bench_).c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const entry& e = entries_[i];
      const summary& s = e.stats;
      std::fprintf(
          f,
          "%s\n {\"name\":\"%s\",\"threads\":%d,\"trials\":%zu,"
          "\"ops_per_ms\":{\"mean\":%.6g,\"stddev\":%.6g,\"min\":%.6g,"
          "\"max\":%.6g,\"p50\":%.6g,\"p90\":%.6g,\"p95\":%.6g,"
          "\"p99\":%.6g}",
          i == 0 ? "" : ",", telemetry::json_escape(e.name).c_str(), e.threads,
          s.count, s.mean, s.stddev, s.min, s.max, s.p50, s.p90, s.p95, s.p99);
      if (!e.extra.empty()) {
        std::fprintf(f, ",\"extra\":{");
        for (std::size_t j = 0; j < e.extra.size(); ++j) {
          std::fprintf(f, "%s\"%s\":%.6g", j == 0 ? "" : ",",
                       telemetry::json_escape(e.extra[j].first).c_str(),
                       e.extra[j].second);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::fprintf(stderr, "bench json written to %s\n", path_.c_str());
  }

 private:
  struct entry {
    std::string name;
    int threads;
    summary stats;
    std::vector<std::pair<std::string, double>> extra;
  };

  std::string bench_;
  std::string path_;
  std::vector<entry> entries_;
};

/// The observability sidecar: --telemetry-json[=PATH] (env
/// LFST_TELEMETRY_JSON) starts the telemetry plane's background aggregator
/// (every telemetry::kSnapshotInterval) for the life of the bench and, on
/// destruction, writes one JSON-lines file:
///
///   telemetry_schema / telemetry_sample / sketch   the plane's export;
///   note()d records                                e.g. CAS heatmaps;
///   {"type":"counters","values":{...}}             exact counts: the
///       default EBR domain's stats(), the pool's counters(), and every
///       count()ed bench counter (summed per name);
///   {"type":"span",...}                            one Chrome trace_event
///       per span in the ring (LFST_TRACE builds; otherwise none).
class telemetry_reporter {
 public:
  telemetry_reporter(int& argc, char** argv)
      : path_(consume_path_flag(argc, argv, "--telemetry-json",
                                "LFST_TELEMETRY_JSON", "telemetry.jsonl")) {
    if (enabled()) {
      telemetry::plane::instance().start(telemetry::kSnapshotInterval);
    }
  }

  telemetry_reporter(const telemetry_reporter&) = delete;
  telemetry_reporter& operator=(const telemetry_reporter&) = delete;

  bool enabled() const noexcept { return !path_.empty(); }

  /// Append one pre-serialized JSON object (no trailing newline needed) to
  /// the sidecar, e.g. a heatmap_snapshot::to_json() record.
  void note(std::string json_line) { notes_.push_back(std::move(json_line)); }

  /// Add `n` to counter `name` on the closing counters line.
  void count(const std::string& name, std::uint64_t n) { counters_[name] += n; }

  /// Add a skip-tree's structural counters (skip_tree::stats()) under
  /// "skiptree.*".
  template <typename Stats>
  void count_tree(const Stats& s) {
    count("skiptree.cas_failures", s.cas_failures);
    count("skiptree.splits", s.splits);
    count("skiptree.root_raises", s.root_raises);
    count("skiptree.empty_bypasses", s.empty_bypasses);
    count("skiptree.ref_repairs", s.ref_repairs);
    count("skiptree.duplicate_drops", s.duplicate_drops);
    count("skiptree.migrations", s.migrations);
    count("skiptree.leaf_merges", s.leaf_merges);
    count("skiptree.alloc_failures", s.alloc_failures);
    count("skiptree.compactions_skipped", s.compactions_skipped);
  }

  ~telemetry_reporter() {
    if (!enabled()) return;
    auto& p = telemetry::plane::instance();
    p.stop();
    p.snapshot_now();  // final sample so short runs export at least one
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "telemetry sidecar: cannot write %s\n",
                   path_.c_str());
      return;
    }
    std::string body = p.to_json_lines();
    for (const std::string& n : notes_) body += n + "\n";
    body += counters_line();
    body += trace::to_chrome_lines(trace::trace_registry::instance().drain(),
                                   metrics::ticks_per_us());
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    if (std::fclose(f) == 0 && ok) {
      std::fprintf(stderr, "telemetry sidecar written to %s\n", path_.c_str());
    } else {
      std::fprintf(stderr, "telemetry sidecar: cannot write %s\n",
                   path_.c_str());
    }
  }

 private:
  std::string counters_line() {
    const reclaim::domain_stats d = reclaim::ebr_domain::global().stats();
    count("ebr.epoch", d.epoch);
    count("ebr.limbo_blocks", d.limbo_blocks);
    count("ebr.limbo_bytes", d.limbo_bytes);
    count("ebr.limbo_bytes_hwm", d.limbo_bytes_hwm);
    const alloc::alloc_counters a = alloc::pool_policy::counters();
    count("pool.allocations", a.allocations);
    count("pool.hits", a.pool_hits);
    count("pool.slab_carves", a.slab_carves);
    count("pool.fallbacks", a.fallbacks);
    count("pool.deallocations", a.deallocations);
    std::string out = "{\"type\":\"counters\",\"values\":{";
    bool first = true;
    for (const auto& [name, value] : counters_) {
      out += (first ? "\"" : ",\"") + telemetry::json_escape(name) +
             "\":" + std::to_string(value);
      first = false;
    }
    return out + "}}\n";
  }

  std::string path_;
  std::vector<std::string> notes_;
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace lfst::bench
