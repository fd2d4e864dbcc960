// skipbench: the repository benchmark.  Drives the public API of
// skiptree::skip_tree<long> and storage::durable_tree<long> from outside,
// as a closed loop: each load thread issues its next call only when the
// previous one returned.  One process runs one workload; README.md says why
// each workload exists and which layer metric should move which end-to-end
// metric.
//
//   skipbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> [--trace-out <file>] [--inject-fault]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; a human-readable report with sample counts goes to stderr.  The
// exit code is 0 only when every correctness check passed.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/pool.hpp"
#include "common/qsketch.hpp"
#include "common/rng.hpp"
#include "reclaim/ebr.hpp"
#include "skiptree/detail/kernel.hpp"
#include "skiptree/skip_tree.hpp"
#include "skiptree/validate.hpp"
#include "storage/durable_tree.hpp"
#include "storage/wal.hpp"

namespace {

namespace fs = std::filesystem;
using tree_t = lfst::skiptree::skip_tree<long>;
using inspector_t = lfst::skiptree::skip_tree_inspector<long>;
using durable_t = lfst::storage::durable_tree<long>;
using domain_t = lfst::reclaim::ebr_domain;

// --- workloads ---------------------------------------------------------------

struct workload {
  const char* name;
  long range;        // keys are drawn from [0, range)
  int contains_pct;  // the other point ops split evenly into add and remove
  int writers;       // load threads issuing point ops
  bool scanner;      // one more load thread issuing for_range scans
  bool durable;      // durable_tree built by adds; otherwise from_sorted
};

// Every workload keeps the live set stationary: it starts from a seeded
// random half of the key range, and adds and removes have equal shares.
// durable_log leaves one CPU to the WAL flusher and the checkpointer.
constexpr workload kWorkloads[] = {
    {"read_large", 1L << 25, 90, 4, false, false},
    {"write_cached", 200000, 34, 4, false, false},
    {"scan_mixed", 1L << 21, 34, 3, true, false},
    {"durable_log", 200000, 50, 3, false, true},
};

constexpr int kMaxLoadThreads = 4;        // one per CPU; scan-phase threads
// Unmeasured point ops (over all writers) at the start of each load phase.
// The tree keeps fragmenting under churn (see README.md), so the warm-up is
// counted in ops, not seconds: measurement starts from the same state
// however fast the host runs.
constexpr std::uint64_t kWarmupOps = 2000000;
constexpr int kSlices = 8;                 // a phase reports slice medians
constexpr std::uint64_t kScanKeys = 1000;  // keys per for_range scan
constexpr double kScanPhaseSeconds = 1.0;  // scan phase of non-scan workloads
constexpr int kBatch = 64;                 // point ops between phase checks
constexpr int kProbeEvery = 4;             // traced: a probe round per 4 batches
constexpr std::size_t kProbeReps = 32;            // calls timed by one probe span
constexpr std::size_t kSpanCap = 16384;    // stored spans per thread
constexpr std::uint64_t kSpanSample = 64;  // store one op span in 64
constexpr std::size_t kKernelWindows = 64;  // 16 KiB at width 32: L1-resident

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- latency histogram -------------------------------------------------------

using histogram = lfst::telemetry::qsketch_snapshot;  // one per thread and slice

void record(histogram& h, std::uint64_t ns) noexcept {
  ++h.buckets[static_cast<std::size_t>(histogram::bucket_index(ns))];
  ++h.count;
}

// Value at quantile q, interpolated inside its bucket.  qsketch's own
// quantile() reports the bucket midpoint, which moves in steps of 1/16
// octave (about 5% at 1 us): as large as the run-to-run spread, so a
// median of such values would often read the same on every run.
double quantile(const histogram& h, double q) noexcept {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count - 1);
  std::uint64_t cum = 0;
  for (int i = 0; i < histogram::kBucketCount; ++i) {
    const std::uint64_t c = h.buckets[static_cast<std::size_t>(i)];
    if (c != 0 && static_cast<double>(cum + c) > rank) {
      return static_cast<double>(histogram::bucket_lo(i)) +
             static_cast<double>(histogram::bucket_width(i)) *
                 (rank - static_cast<double>(cum) + 0.5) / static_cast<double>(c);
    }
    cum += c;
  }
  return 0.0;
}

// --- spans -------------------------------------------------------------------

enum span_name : std::uint8_t {
  sp_setup, sp_run, sp_scan_phase, sp_storage_probe, sp_verify,
  sp_contains, sp_add, sp_remove, sp_scan,
  sp_probe_pin, sp_probe_alloc, sp_probe_kernel, sp_count
};
constexpr const char* kSpanNames[sp_count] = {
    "setup", "run", "scan_phase", "storage_probe", "verify",
    "contains", "add", "remove", "for_range",
    "probe.reclaim.pin", "probe.alloc.alloc_free", "probe.kernel.search"};

struct span {
  std::int64_t start;
  std::int64_t dur;
  std::uint64_t id;      // 0: a leaf span nothing names as parent
  std::uint64_t parent;  // 0: a root span
  std::uint32_t tid;     // 0: main thread, i + 1: load thread i
  span_name name;
};

// Per-thread span store, capped, plus exact per-name sums over every span
// recorded (stored or not), so layer means do not depend on the sampling.
struct span_log {
  std::vector<span> stored;
  std::array<double, sp_count> sum_ns{};
  std::array<std::uint64_t, sp_count> n{};

  void record(const span& s, bool keep) {
    sum_ns[s.name] += static_cast<double>(s.dur);
    ++n[s.name];
    if (keep && stored.size() < kSpanCap) stored.push_back(s);
  }
};

// --- per-thread state ----------------------------------------------------------

// A load phase: wait, warm up, measured slices 0..kSlices-1, stop.
constexpr int ph_wait = -2, ph_warm = -1, ph_stop = kSlices;

// What one thread saw during one slice of a phase.
struct slice_stats {
  std::array<histogram, 3> lat;  // contains, update, scan (ns)
  std::uint64_t point_ops = 0, scan_keys = 0;
  std::int64_t scan_ns = 0;
};

// A phase's figures: each rate and percentile is the median over its
// slices, so a burst of outside noise in one slice does not move it.
struct phase_result {
  double ops_per_s = 0, scan_keys_per_s = 0;
  std::array<double, 3> p50{}, p99{};
  std::array<std::uint64_t, 3> samples{};
  std::uint64_t scan_keys = 0;
  std::int64_t scan_ns = 0;
};

phase_result summarize(const std::vector<slice_stats>& slices,
                       const std::vector<double>& seconds) {
  phase_result r;
  std::vector<double> ops, scan;
  std::array<std::vector<double>, 3> p50, p99;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const slice_stats& s = slices[i];
    ops.push_back(static_cast<double>(s.point_ops) / seconds[i]);
    scan.push_back(static_cast<double>(s.scan_keys) / seconds[i]);
    for (std::size_t c = 0; c < 3; ++c) {
      r.samples[c] += s.lat[c].count;
      if (s.lat[c].count == 0) continue;
      p50[c].push_back(quantile(s.lat[c], 0.50));
      p99[c].push_back(quantile(s.lat[c], 0.99));
    }
    r.scan_keys += s.scan_keys;
    r.scan_ns += s.scan_ns;
  }
  r.ops_per_s = median(ops);
  r.scan_keys_per_s = median(scan);
  for (std::size_t c = 0; c < 3; ++c) {
    if (!p50[c].empty()) {
      r.p50[c] = median(p50[c]);
      r.p99[c] = median(p99[c]);
    }
  }
  return r;
}

struct worker {
  int id = 0;
  bool is_scanner = false;
  lfst::xoshiro256ss rng{1};
  std::vector<std::uint64_t> mirror;  // own key k is bit k / writers
  std::vector<slice_stats> slices;    // kSlices measured + one for warm-up
  slice_stats* cur = nullptr;         // the slice being recorded
  span_log spans;
  // Cumulative over the process (warm-up included): correctness tallies,
  // and the update counts that per-layer ratios divide counter deltas by.
  std::uint64_t attempted = 0, wrong = 0, failed = 0;
  std::uint64_t adds = 0, removes = 0, changed = 0;
  std::uint64_t probe_allocs = 0, probe_hits = 0, probe_carves = 0;
};

bool test_bit(const std::vector<std::uint64_t>& m, std::uint64_t j) {
  return (m[j >> 6] >> (j & 63)) & 1u;
}
void put_bit(std::vector<std::uint64_t>& m, std::uint64_t j, bool v) {
  const std::uint64_t bit = std::uint64_t{1} << (j & 63);
  m[j >> 6] = v ? (m[j >> 6] | bit) : (m[j >> 6] & ~bit);
}

// Pin the calling thread to the slot-th CPU the process was allowed at
// start (read once: a pinned thread's own mask would narrow the list).
void pin_to_cpu(int slot) {
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
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

double vm_hwm_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// Restart VmHWM from the current RSS, so that peak_rss_mb covers the load
// phases and not set-up's transient buffers (read_large's 134 MB key list).
void reset_vm_hwm() { std::ofstream("/proc/self/clear_refs") << "5"; }

struct counters {
  tree_t::structural_stats tree{};
  lfst::alloc::alloc_counters alloc{};
  lfst::reclaim::domain_stats reclaim{};
  lfst::storage::wal_stats wal{};
  std::uint64_t adds = 0, removes = 0, changed = 0;
  std::uint64_t probe_allocs = 0, probe_hits = 0, probe_carves = 0;
  std::int64_t at = 0;
};

struct metric {
  std::string name;
  double value;
  const char* unit;
};

// --- the benchmark -------------------------------------------------------------

struct options {
  const workload* wl = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_fault = false;
  std::string data_dir = ".";
  std::string trace_out;
};

class bench {
 public:
  explicit bench(const options& o)
      : o_(o),
        wl_(*o.wl),
        dir_(fs::path(o.data_dir) /
             (std::string(wl_.name) + "-" + std::to_string(::getpid()))) {
    dopts_.wal.sync = lfst::storage::fsync_policy::interval;  // 5 ms default
  }

  ~bench() {
    // The store goes first: it writes into dir_ until it is closed.
    dur_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  bench(const bench&) = delete;
  bench& operator=(const bench&) = delete;

  int run();

 private:
  const tree_t& view() const { return wl_.durable ? dur_->tree() : *mem_; }
  domain_t& domain() {
    return wl_.durable ? lfst::reclaim::ebr_policy::default_domain() : dom_;
  }
  std::uint64_t own_count(int id) const {
    return static_cast<std::uint64_t>((wl_.range - 1 - id) / wl_.writers + 1);
  }
  std::uint64_t new_span_id() { return ++last_span_id_; }
  void main_span(span_name n, std::uint64_t id, std::uint64_t parent,
                 std::int64_t start) {
    main_spans_.record({start, now_ns() - start, id, parent, 0, n}, true);
  }
  void fail(const std::string& why) {
    ++verify_failures_;
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }

  void setup();
  void preload(durable_t& store, const std::vector<std::uint64_t>& present);
  void prepare_probes();
  template <bool Traced>
  phase_result load_phase(std::vector<worker>& ws, int writers, double seconds,
                          span_name name);
  std::pair<std::uint64_t, std::uint64_t> tally() const;
  template <bool Traced>
  void worker_main(worker& w, std::uint64_t run_span);
  template <bool Traced>
  void point_op(worker& w, std::uint64_t run_span, std::uint64_t& n);
  template <bool Traced>
  void scan_op(worker& w, std::uint64_t run_span, std::uint64_t& n);
  void probe_round(worker& w, std::uint64_t run_span);
  void storage_probe();
  void verify_set(const tree_t& t, const char* what);
  void verify();
  counters mark(const char* name);
  std::vector<metric> end_to_end() const;
  std::vector<metric> per_layer() const;
  void write_trace() const;

  options o_;
  const workload& wl_;
  const std::int64_t t_base_ = now_ns();
  fs::path dir_;
  lfst::skiptree::skip_tree_options tree_opts_{};
  lfst::storage::durable_options dopts_{};

  domain_t dom_;  // declared before mem_: outlives the tree
  std::optional<tree_t> mem_;
  std::optional<durable_t> dur_;

  std::vector<worker> workers_;
  std::vector<worker> scanners_;  // the scan phase's threads
  std::atomic<int> phase_{ph_wait};
  std::atomic<int> warmed_{0};  // writers done with their warm-up share
  std::uint64_t last_span_id_ = 0;
  span_log main_spans_;
  std::vector<std::pair<std::string, counters>> marks_;

  // Results.
  double setup_s_ = 0, recovery_s_ = 0;
  phase_result run_{}, traced_{}, scan_phase_{};
  counters traced_delta_{};
  double peak_rss_mb_ = 0, bytes_per_key_ = 0, live_bytes_per_key_ = 0;
  double leaf_keys_mean_ = 0, checkpoint_s_ = 0, limbo_bytes_hwm_ = 0;
  int height_ = 0;
  std::uint64_t verify_failures_ = 0;

  // Probe inputs (traced runs only).
  std::size_t payload_bytes_ = 64;
  std::uint32_t kernel_width_ = 1;
  std::vector<long> kernel_keys_;  // kKernelWindows windows of kernel_width_
};

// Build the initial store, timed whole, input generation included.  Set
// up once per process: a second build in the same process reuses the first
// one's freed pool blocks, which shifts peak RSS by 10-20 MB at random.
void bench::setup() {
  const std::int64_t t0 = now_ns();
  // The live set: each key present with probability 1/2, from the seed.
  lfst::xoshiro256ss rng(lfst::thread_seed(o_.seed, 1000));
  std::vector<std::uint64_t> present(static_cast<std::size_t>(wl_.range + 63) / 64);
  for (auto& word : present) word = rng.next();
  if (wl_.range % 64) {
    present.back() &= (std::uint64_t{1} << (wl_.range % 64)) - 1;
  }

  workers_.resize(static_cast<std::size_t>(wl_.writers + (wl_.scanner ? 1 : 0)));
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    worker& w = workers_[i];
    w.id = static_cast<int>(i);
    w.is_scanner = w.id >= wl_.writers;
    w.rng = lfst::xoshiro256ss(lfst::thread_seed(o_.seed, i));
    if (w.is_scanner) continue;
    const std::uint64_t own = own_count(w.id);
    w.mirror.assign(static_cast<std::size_t>(own + 63) / 64, 0);
    for (std::uint64_t j = 0; j < own; ++j) {
      put_bit(w.mirror, j, test_bit(present, i + j * static_cast<std::uint64_t>(wl_.writers)));
    }
  }
  if (!wl_.scanner) {
    scanners_.resize(kMaxLoadThreads);
    for (std::size_t i = 0; i < scanners_.size(); ++i) {
      scanners_[i].id = static_cast<int>(i);
      scanners_[i].is_scanner = true;
      scanners_[i].rng = lfst::xoshiro256ss(lfst::thread_seed(o_.seed, 3000 + i));
    }
  }

  if (wl_.durable) {
    {
      durable_t fresh(dir_.string(), dopts_);
      preload(fresh, present);
      fresh.close();
    }
    const std::int64_t r0 = now_ns();
    dur_.emplace(dir_.string(), dopts_);  // construction is recovery
    recovery_s_ = seconds_since(r0);
  } else {
    std::vector<long> keys;
    keys.reserve(static_cast<std::size_t>(wl_.range / 2 + wl_.range / 16));
    for (long k = 0; k < wl_.range; ++k) {
      if (test_bit(present, static_cast<std::uint64_t>(k))) keys.push_back(k);
    }
    mem_.emplace(tree_t::from_sorted(keys, tree_opts_, dom_));
  }
  setup_s_ = seconds_since(t0);
  main_span(sp_setup, new_span_id(), 0, t0);
  reset_vm_hwm();
}

// Add-preload: the present keys in a seeded shuffled order, from one
// thread, so the tree's shape and memory layout follow from the seed.
void bench::preload(durable_t& store, const std::vector<std::uint64_t>& present) {
  std::vector<long> keys;
  for (long k = 0; k < wl_.range; ++k) {
    if (test_bit(present, static_cast<std::uint64_t>(k))) keys.push_back(k);
  }
  lfst::xoshiro256ss rng(lfst::thread_seed(o_.seed, 2000));
  for (std::size_t j = keys.size(); j > 1; --j) {
    std::swap(keys[j - 1], keys[rng.below(j)]);
  }
  std::uint64_t bad = 0;
  for (long k : keys) bad += store.add(k) ? 0 : 1;
  if (bad != 0) fail("preload: add of an absent key returned false");
}

// Kernel and alloc probe inputs, taken from the tree as the untraced half
// left it: windows of leaf keys at the realized mean leaf width, and the
// mean payload block size.
void bench::prepare_probes() {
  const inspector_t ins(view());
  const std::vector<long> leaf = ins.level_keys(0);
  const std::size_t leaves = std::max<std::size_t>(ins.level_width(0), 1);
  kernel_width_ = static_cast<std::uint32_t>(std::max<double>(
      1.0, std::round(static_cast<double>(leaf.size()) / static_cast<double>(leaves))));
  lfst::xoshiro256ss rng(lfst::thread_seed(o_.seed, 4000));
  const std::size_t chunks = std::max<std::size_t>(leaf.size() / kernel_width_, 1);
  kernel_keys_.clear();
  for (std::size_t i = 0; i < kKernelWindows; ++i) {
    const std::size_t c = rng.below(chunks) * kernel_width_;
    for (std::uint32_t k = 0; k < kernel_width_; ++k) {
      kernel_keys_.push_back(c + k < leaf.size() ? leaf[c + k] : static_cast<long>(k));
    }
  }
  std::size_t nodes = 0;
  for (int l = 0; l <= view().height(); ++l) nodes += ins.level_width(l);
  const std::size_t headers = sizeof(tree_t::head_t) + nodes * sizeof(tree_t::node_t);
  payload_bytes_ = (ins.live_bytes() - headers) / std::max<std::size_t>(nodes, 1);
}

// Counter snapshot at a phase boundary; load threads are joined, so the
// pool's thread-local tallies have been folded in and are exact.
counters bench::mark(const char* name) {
  counters c;
  c.tree = view().stats();
  c.alloc = lfst::alloc::pool_policy::counters();
  c.reclaim = domain().stats();
  if (wl_.durable) c.wal = dur_->log_stats();
  for (const worker& w : workers_) {
    c.adds += w.adds;
    c.removes += w.removes;
    c.changed += w.changed;
    c.probe_allocs += w.probe_allocs;
    c.probe_hits += w.probe_hits;
    c.probe_carves += w.probe_carves;
  }
  c.at = now_ns();
  marks_.emplace_back(name, c);
  return c;
}

// One closed-loop point op: draw, call, time, check against the mirror.
template <bool Traced>
void bench::point_op(worker& w, std::uint64_t run_span, std::uint64_t& n) {
  const auto r = static_cast<int>(w.rng.below(100));
  const int writers = wl_.writers;
  const auto tid = static_cast<std::uint32_t>(w.id + 1);
  bool got = false;
  ++w.attempted;
  if (r < wl_.contains_pct) {
    const long k = static_cast<long>(w.rng.below(static_cast<std::uint64_t>(wl_.range)));
    const std::int64_t t0 = now_ns();
    try {
      got = wl_.durable ? dur_->contains(k) : mem_->contains(k);
    } catch (...) {
      ++w.failed;
      return;
    }
    const std::int64_t t1 = now_ns();
    record(w.cur->lat[0], static_cast<std::uint64_t>(t1 - t0));
    if constexpr (Traced) {
      w.spans.record({t0, t1 - t0, 0, run_span, tid, sp_contains}, n % kSpanSample == 0);
    }
    // Only the owner changes k, so its mirror is exact for its own keys.
    if (k % writers == w.id &&
        got != test_bit(w.mirror, static_cast<std::uint64_t>(k / writers))) {
      ++w.wrong;
    }
  } else {
    const std::uint64_t j = w.rng.below(own_count(w.id));
    const long k = w.id + static_cast<long>(j) * writers;
    const bool is_add = r < wl_.contains_pct + (100 - wl_.contains_pct) / 2;
    const std::int64_t t0 = now_ns();
    try {
      if (wl_.durable) {
        got = is_add ? dur_->add(k) : dur_->remove(k);
      } else {
        got = is_add ? mem_->add(k) : mem_->remove(k);
      }
    } catch (...) {
      ++w.failed;
      return;
    }
    const std::int64_t t1 = now_ns();
    record(w.cur->lat[1], static_cast<std::uint64_t>(t1 - t0));
    if constexpr (Traced) {
      w.spans.record({t0, t1 - t0, 0, run_span, tid, is_add ? sp_add : sp_remove},
                     n % kSpanSample == 0);
    }
    const bool present = test_bit(w.mirror, j);
    bool expect = is_add ? !present : present;
    // --inject-fault: one wrong oracle answer, which must fail the run.
    if (o_.inject_fault && w.id == 0 && w.adds + w.removes == 1000) expect = !expect;
    if (got != expect) ++w.wrong;
    put_bit(w.mirror, j, is_add);
    ++(is_add ? w.adds : w.removes);
    if (got) ++w.changed;
  }
  ++w.cur->point_ops;
  ++n;
}

// One scan of up to kScanKeys keys from a uniform random start.  Keys must
// come strictly ascending and inside [lo, hi).
template <bool Traced>
void bench::scan_op(worker& w, std::uint64_t run_span, std::uint64_t& n) {
  const long lo = static_cast<long>(w.rng.below(static_cast<std::uint64_t>(wl_.range)));
  const long hi = wl_.range;
  std::uint64_t keys = 0;
  long last = lo - 1;
  bool ok = true;
  ++w.attempted;
  const std::int64_t t0 = now_ns();
  try {
    view().for_range(lo, hi, [&](const long& k) {
      ok = ok && k > last && k >= lo && k < hi;
      last = k;
      return ++keys < kScanKeys;
    });
  } catch (...) {
    ++w.failed;
    return;
  }
  const std::int64_t t1 = now_ns();
  if (!ok) ++w.wrong;
  record(w.cur->lat[2], static_cast<std::uint64_t>(t1 - t0));
  w.cur->scan_ns += t1 - t0;
  w.cur->scan_keys += keys;
  if constexpr (Traced) {
    w.spans.record({t0, t1 - t0, 0, run_span, static_cast<std::uint32_t>(w.id + 1), sp_scan},
                   n % 16 == 0);
  }
  ++n;
}

// Outside-in layer probes, run on the load threads between batches in the
// traced phase only.  Each probe span times kProbeReps calls under one
// clock pair and records the per-call mean.
void bench::probe_round(worker& w, std::uint64_t run_span) {
  const auto tid = static_cast<std::uint32_t>(w.id + 1);
  const bool keep = w.spans.n[sp_probe_pin] % 16 == 0;
  domain_t& d = domain();
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    domain_t::guard g(d);
  }
  std::int64_t t1 = now_ns();
  w.spans.record({t0, (t1 - t0) / static_cast<std::int64_t>(kProbeReps), 0, run_span, tid, sp_probe_pin}, keep);

  constexpr std::size_t kAlign = std::max(alignof(tree_t::contents_t), alignof(void*));
  const auto c0 = lfst::alloc::pool_policy::counters();
  t0 = now_ns();
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    void* p = lfst::alloc::pool_policy::allocate(payload_bytes_, kAlign);
    asm volatile("" : : "r"(p) : "memory");
    lfst::alloc::pool_policy::deallocate(p, payload_bytes_, kAlign);
  }
  t1 = now_ns();
  const auto c1 = lfst::alloc::pool_policy::counters();
  w.probe_allocs += c1.allocations - c0.allocations;
  w.probe_hits += c1.pool_hits - c0.pool_hits;
  w.probe_carves += c1.slab_carves - c0.slab_carves;
  w.spans.record({t0, (t1 - t0) / static_cast<std::int64_t>(kProbeReps), 0, run_span, tid, sp_probe_alloc}, keep);

  // Kernel: windows and probe keys are drawn before the clock starts.
  const std::uint32_t width = kernel_width_;
  std::array<const long*, kProbeReps> windows;
  std::array<long, kProbeReps> probes;
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    const long* keys = kernel_keys_.data() + w.rng.below(kKernelWindows) * width;
    const auto span_keys = static_cast<std::uint64_t>(keys[width - 1] - keys[0]) + 1;
    windows[i] = keys;
    probes[i] = keys[0] + static_cast<long>(w.rng.below(span_keys));
  }
  int sink = 0;
  t0 = now_ns();
  for (std::size_t i = 0; i < kProbeReps; ++i) {
    sink += lfst::skiptree::default_search_kernel::search(windows[i], width, probes[i],
                                                          std::less<long>{});
  }
  t1 = now_ns();
  asm volatile("" : : "r"(sink) : "memory");
  w.spans.record({t0, (t1 - t0) / static_cast<std::int64_t>(kProbeReps), 0, run_span, tid, sp_probe_kernel}, keep);
}

template <bool Traced>
void bench::worker_main(worker& w, std::uint64_t run_span) {
  pin_to_cpu(w.id);
  while (phase_.load(std::memory_order_acquire) == ph_wait) {}
  std::uint64_t n = 0;
  bool warm = w.is_scanner;
  for (int batch = 0;; ++batch) {
    const int ph = phase_.load(std::memory_order_acquire);
    if (ph == ph_stop) break;
    w.cur = &w.slices[static_cast<std::size_t>(ph < 0 ? kSlices : ph)];
    if (w.is_scanner) {
      scan_op<Traced>(w, run_span, n);
    } else {
      for (int i = 0; i < kBatch; ++i) point_op<Traced>(w, run_span, n);
    }
    if (!warm && n >= kWarmupOps / static_cast<std::uint64_t>(wl_.writers)) {
      warm = true;
      warmed_.fetch_add(1);
    }
    if constexpr (Traced) {
      if (batch % kProbeEvery == 0) probe_round(w, run_span);
    }
  }
}

// One load phase: a thread per worker in `ws`, a warm-up of kWarmupOps
// point ops over its `writers`, then `seconds` measured in kSlices equal
// slices.
template <bool Traced>
phase_result bench::load_phase(std::vector<worker>& ws, int writers,
                               double seconds, span_name name) {
  const std::int64_t t0 = now_ns();
  const std::uint64_t id = new_span_id();
  phase_.store(ph_wait);
  warmed_.store(0);
  std::vector<std::thread> ts;
  for (worker& w : ws) {
    w.slices.assign(kSlices + 1, slice_stats{});
    ts.emplace_back([this, &w, id] { worker_main<Traced>(w, id); });
  }
  const auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  phase_.store(ph_warm, std::memory_order_release);
  while (warmed_.load() < writers) sleep_s(0.001);
  std::vector<std::int64_t> edges;
  for (int i = 0; i < kSlices; ++i) {
    edges.push_back(now_ns());
    phase_.store(i, std::memory_order_release);
    sleep_s(seconds / kSlices);
  }
  edges.push_back(now_ns());
  phase_.store(ph_stop, std::memory_order_release);
  for (auto& t : ts) t.join();

  std::vector<slice_stats> merged(kSlices);
  std::vector<double> secs;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    for (const worker& w : ws) {
      const slice_stats& s = w.slices[i];
      for (std::size_t c = 0; c < s.lat.size(); ++c) merged[i].lat[c].merge(s.lat[c]);
      merged[i].point_ops += s.point_ops;
      merged[i].scan_keys += s.scan_keys;
      merged[i].scan_ns += s.scan_ns;
    }
    secs.push_back(static_cast<double>(edges[i + 1] - edges[i]) * 1e-9);
  }
  main_span(name, id, 0, t0);
  return summarize(merged, secs);
}

// Traced durable runs: one explicit checkpoint after the load (recovery
// was timed at set-up).
void bench::storage_probe() {
  const std::int64_t t0 = now_ns();
  dur_->checkpoint();
  checkpoint_s_ = seconds_since(t0);
  main_span(sp_storage_probe, new_span_id(), 0, t0);
}

// The final key set must equal the union of the writers' mirrors.
void bench::verify_set(const tree_t& t, const char* what) {
  const auto report = inspector_t(t).validate();
  if (!report.ok) fail(std::string(what) + ": " + report.to_string());
  std::uint64_t seen = 0, missing = 0;
  long last = -1;
  bool ordered = true;
  t.for_each([&](const long& k) {
    ordered = ordered && k > last && k < wl_.range;
    last = k;
    ++seen;
    if (k < 0 || k >= wl_.range ||
        !test_bit(workers_[static_cast<std::size_t>(k % wl_.writers)].mirror,
                  static_cast<std::uint64_t>(k / wl_.writers))) {
      ++missing;
    }
  });
  std::uint64_t expected = 0;
  for (const worker& w : workers_) {
    for (std::uint64_t word : w.mirror) expected += static_cast<std::uint64_t>(std::popcount(word));
  }
  if (!ordered) fail(std::string(what) + ": keys out of order");
  if (missing != 0 || seen != expected) {
    fail(std::string(what) + ": " + std::to_string(seen) + " keys, " +
         std::to_string(expected) + " expected, " + std::to_string(missing) +
         " not in the mirrors");
  }
}

void bench::verify() {
  const std::int64_t t0 = now_ns();
  const std::uint64_t id = new_span_id();
  verify_set(view(), "final tree");
  if (wl_.durable) {
    dur_->close();
    dur_.reset();
    durable_t reopened(dir_.string(), dopts_);
    verify_set(reopened.tree(), "recovered tree");
    reopened.close();
  }
  main_span(sp_verify, id, 0, t0);
}

int bench::run() {
  setup();
  // Workloads without a scanner thread get a scan phase on the tree as set
  // up, so every workload reports scan metrics: one scanner per CPU, which
  // averages out the noise a single core sees.  (After the load phase the
  // tree's layout depends on how the load threads interleaved.)
  if (!wl_.scanner) {
    scan_phase_ = load_phase<false>(scanners_, 0, kScanPhaseSeconds, sp_scan_phase);
  }
  counters before = mark("run_start");
  if (o_.trace) {
    // Half untraced, half traced: their ops_per_s ratio is the overhead.
    // The probes take their inputs from the tree the untraced half left.
    run_ = load_phase<false>(workers_, wl_.writers, o_.seconds / 2, sp_run);
    prepare_probes();
    before = mark("traced_start");
    traced_ = load_phase<true>(workers_, wl_.writers, o_.seconds / 2, sp_run);
  } else {
    run_ = load_phase<false>(workers_, wl_.writers, o_.seconds, sp_run);
  }
  const counters after = mark("run_end");
  traced_delta_ = after;
  auto& d = traced_delta_;
  d.tree.cas_failures -= before.tree.cas_failures;
  d.tree.splits -= before.tree.splits;
  d.tree.empty_bypasses -= before.tree.empty_bypasses;
  d.tree.ref_repairs -= before.tree.ref_repairs;
  d.tree.duplicate_drops -= before.tree.duplicate_drops;
  d.tree.migrations -= before.tree.migrations;
  d.alloc.allocations -= before.alloc.allocations;
  d.alloc.pool_hits -= before.alloc.pool_hits;
  d.alloc.slab_carves -= before.alloc.slab_carves;
  d.reclaim.epoch -= before.reclaim.epoch;
  d.wal.appends -= before.wal.appends;
  d.wal.bytes_appended -= before.wal.bytes_appended;
  d.wal.fsyncs -= before.wal.fsyncs;
  d.wal.rotations -= before.wal.rotations;
  d.adds -= before.adds;
  d.removes -= before.removes;
  d.changed -= before.changed;
  d.probe_allocs -= before.probe_allocs;
  d.probe_hits -= before.probe_hits;
  d.probe_carves -= before.probe_carves;
  d.at -= before.at;

  peak_rss_mb_ = vm_hwm_mb();
  {
    const inspector_t ins(view());
    const double keys = static_cast<double>(std::max<std::size_t>(view().size(), 1));
    const double live = static_cast<double>(ins.live_bytes());
    live_bytes_per_key_ = live / keys;
    const auto stats = view().stats();
    bytes_per_key_ = (live + static_cast<double>(stats.limbo_bytes)) / keys;
    limbo_bytes_hwm_ = static_cast<double>(stats.limbo_bytes_hwm);
    height_ = view().height();
    leaf_keys_mean_ = static_cast<double>(ins.level_keys(0).size()) /
                      static_cast<double>(std::max<std::size_t>(ins.level_width(0), 1));
  }
  if (o_.trace && wl_.durable) storage_probe();
  mark("verify_start");
  verify();  // closes durable_log's store: nothing below may read view()

  const auto [attempted, failed] = tally();
  const bool correct = failed == 0;
  const std::vector<metric> e2e = end_to_end();
  const std::vector<metric> layer = per_layer();

  std::fprintf(stderr, "workload %s seed %llu seconds %g trace %d kernel %s\n",
               wl_.name, static_cast<unsigned long long>(o_.seed), o_.seconds,
               o_.trace ? 1 : 0, lfst::skiptree::selected_kernel_name());
  std::fprintf(stderr, "  attempted %llu failed %llu error_share %.3g\n",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  const phase_result& scans = wl_.scanner ? run_ : scan_phase_;
  std::fprintf(stderr, "  samples: contains %llu, update %llu, scan %llu (%d slices)\n",
               static_cast<unsigned long long>(run_.samples[0]),
               static_cast<unsigned long long>(run_.samples[1]),
               static_cast<unsigned long long>(scans.samples[2]), kSlices);
  for (const metric& m : e2e) std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  if (o_.trace) {
    std::fprintf(stderr, "  probes: kernel width %u keys, alloc size %zu B\n",
                 kernel_width_, payload_bytes_);
    for (const metric& m : layer) std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    write_trace();
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const std::vector<metric>& out = o_.trace ? layer : e2e;
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", out[i].name.c_str(),
                  std::isfinite(out[i].value) ? out[i].value : 0.0, out[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// Operations attempted, and those that failed or gave a wrong answer
// (verification failures included).
std::pair<std::uint64_t, std::uint64_t> bench::tally() const {
  std::uint64_t attempted = 0, failed = verify_failures_;
  for (const auto* ws : {&workers_, &scanners_}) {
    for (const worker& w : *ws) {
      attempted += w.attempted;
      failed += w.wrong + w.failed;
    }
  }
  return {std::max<std::uint64_t>(attempted, 1), failed};
}

std::vector<metric> bench::end_to_end() const {
  const phase_result& scans = wl_.scanner ? run_ : scan_phase_;
  const auto [attempted, failed] = tally();
  return {
      {"setup_s", setup_s_, "s"},
      {"ops_per_s", run_.ops_per_s, "1/s"},
      {"contains_p50_us", run_.p50[0] / 1e3, "us"},
      {"contains_p99_us", run_.p99[0] / 1e3, "us"},
      {"update_p50_us", run_.p50[1] / 1e3, "us"},
      {"update_p99_us", run_.p99[1] / 1e3, "us"},
      {"scan_keys_per_s", scans.scan_keys_per_s, "1/s"},
      {"scan_p50_us", scans.p50[2] / 1e3, "us"},
      {"scan_p99_us", scans.p99[2] / 1e3, "us"},
      {"bytes_per_key", bytes_per_key_, "B"},
      {"peak_rss_mb", peak_rss_mb_, "MB"},
      {"ok_share", 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio"},
  };
}

std::vector<metric> bench::per_layer() const {
  span_log all;
  for (std::size_t i = 0; i < sp_count; ++i) {
    all.sum_ns[i] += main_spans_.sum_ns[i];
    all.n[i] += main_spans_.n[i];
  }
  for (const worker& w : workers_) {
    for (std::size_t i = 0; i < sp_count; ++i) {
      all.sum_ns[i] += w.spans.sum_ns[i];
      all.n[i] += w.spans.n[i];
    }
  }
  const auto mean = [&](span_name s) {
    return ratio(all.sum_ns[s], static_cast<double>(all.n[s]));
  };
  const counters& d = traced_delta_;
  const double updates = static_cast<double>(d.adds + d.removes);
  const double cas = static_cast<double>(d.tree.cas_failures);
  const double compactions = static_cast<double>(
      d.tree.empty_bypasses + d.tree.ref_repairs + d.tree.duplicate_drops + d.tree.migrations);
  const double allocs = static_cast<double>(d.alloc.allocations - d.probe_allocs);
  const phase_result& scans = wl_.scanner ? traced_ : scan_phase_;
  return {
      {"skiptree.contains_ns", mean(sp_contains), "ns"},
      {"skiptree.add_ns", mean(sp_add), "ns"},
      {"skiptree.remove_ns", mean(sp_remove), "ns"},
      {"skiptree.cas_failures_per_kupdate", 1e3 * ratio(cas, updates), "1/kupdate"},
      {"skiptree.cas_success_ratio", ratio(static_cast<double>(d.changed), static_cast<double>(d.changed) + cas), "ratio"},
      {"skiptree.splits_per_kadd", 1e3 * ratio(static_cast<double>(d.tree.splits), static_cast<double>(d.adds)), "1/kadd"},
      {"skiptree.compactions_per_kremove", 1e3 * ratio(compactions, static_cast<double>(d.removes)), "1/kremove"},
      {"skiptree.height", static_cast<double>(height_), "levels"},
      {"skiptree.leaf_keys_mean", leaf_keys_mean_, "keys"},
      {"skiptree.live_bytes_per_key", live_bytes_per_key_, "B"},
      {"skiptree.for_range_ns_per_key", ratio(static_cast<double>(scans.scan_ns), static_cast<double>(scans.scan_keys)), "ns"},
      {"kernel.search_ns", mean(sp_probe_kernel), "ns"},
      {"alloc.allocs_per_update", ratio(allocs, updates), "count"},
      {"alloc.hit_rate", ratio(static_cast<double>(d.alloc.pool_hits - d.probe_hits), allocs), "ratio"},
      {"alloc.slab_carves_per_kupdate", 1e3 * ratio(static_cast<double>(d.alloc.slab_carves - d.probe_carves), updates), "1/kupdate"},
      {"alloc.alloc_free_ns", mean(sp_probe_alloc), "ns"},
      {"reclaim.pin_ns", mean(sp_probe_pin), "ns"},
      {"reclaim.epoch_advances_per_kupdate", 1e3 * ratio(static_cast<double>(d.reclaim.epoch), updates), "1/kupdate"},
      {"reclaim.limbo_bytes_hwm", limbo_bytes_hwm_, "B"},
      {"storage.wal_bytes_per_update", ratio(static_cast<double>(d.wal.bytes_appended), updates), "B"},
      {"storage.appends_per_fsync", ratio(static_cast<double>(d.wal.appends), static_cast<double>(d.wal.fsyncs)), "count"},
      {"storage.rotations_per_s", ratio(static_cast<double>(d.wal.rotations), static_cast<double>(d.at) * 1e-9), "1/s"},
      {"storage.recovery_s", recovery_s_, "s"},
      {"storage.checkpoint_s", checkpoint_s_, "s"},
      {"trace.ops_ratio", ratio(traced_.ops_per_s, run_.ops_per_s), "ratio"},
  };
}

// Chrome trace-event JSON, which Perfetto loads: one "X" event per stored
// span (args carry span and parent ids) and "C" counter events at each
// phase boundary.
void bench::write_trace() const {
  if (o_.trace_out.empty()) return;
  std::FILE* f = std::fopen(o_.trace_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", o_.trace_out.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  std::uint64_t next_id = last_span_id_;
  bool first = true;
  const auto emit = [&](const span& s) {
    const std::uint64_t id = s.id ? s.id : ++next_id;
    std::fprintf(f, "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %llu, \"parent\": %llu}}",
                 first ? "" : ",\n", kSpanNames[s.name], s.tid,
                 static_cast<double>(s.start - t_base_) / 1e3,
                 static_cast<double>(s.dur) / 1e3,
                 static_cast<unsigned long long>(id),
                 static_cast<unsigned long long>(s.parent));
    first = false;
  };
  for (const span& s : main_spans_.stored) emit(s);
  for (const worker& w : workers_) {
    for (const span& s : w.spans.stored) emit(s);
  }
  for (const auto& [name, c] : marks_) {
    const double ts = static_cast<double>(c.at - t_base_) / 1e3;
    std::fprintf(f,
                 ",\n{\"name\": \"skiptree\", \"ph\": \"C\", \"pid\": 1, \"ts\": %.3f, \"args\": "
                 "{\"cas_failures\": %llu, \"splits\": %llu, \"limbo_bytes\": %llu}}",
                 ts, static_cast<unsigned long long>(c.tree.cas_failures),
                 static_cast<unsigned long long>(c.tree.splits),
                 static_cast<unsigned long long>(c.tree.limbo_bytes));
    std::fprintf(f,
                 ",\n{\"name\": \"alloc\", \"ph\": \"C\", \"pid\": 1, \"ts\": %.3f, \"args\": "
                 "{\"allocations\": %llu, \"pool_hits\": %llu, \"slab_carves\": %llu}}",
                 ts, static_cast<unsigned long long>(c.alloc.allocations),
                 static_cast<unsigned long long>(c.alloc.pool_hits),
                 static_cast<unsigned long long>(c.alloc.slab_carves));
    std::fprintf(f,
                 ",\n{\"name\": \"reclaim\", \"ph\": \"C\", \"pid\": 1, \"ts\": %.3f, \"args\": "
                 "{\"epoch\": %llu}}",
                 ts, static_cast<unsigned long long>(c.reclaim.epoch));
    std::fprintf(f,
                 ",\n{\"name\": \"storage\", \"ph\": \"C\", \"pid\": 1, \"ts\": %.3f, \"args\": "
                 "{\"appends\": %llu, \"fsyncs\": %llu, \"rotations\": %llu}}",
                 ts, static_cast<unsigned long long>(c.wal.appends),
                 static_cast<unsigned long long>(c.wal.fsyncs),
                 static_cast<unsigned long long>(c.wal.rotations));
    std::fprintf(f, ",\n{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"g\", \"pid\": 1, \"tid\": 0, \"ts\": %.3f}",
                 name.c_str(), ts);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

int usage() {
  std::fprintf(stderr,
               "usage: skipbench --workload <read_large|write_cached|scan_mixed|durable_log>\n"
               "                 --seed <n> --seconds <s> --trace <0|1> --data-dir <dir>\n"
               "                 [--trace-out <file>] [--inject-fault]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--inject-fault") {
      o.inject_fault = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      const std::string name = argv[++i];
      for (const workload& w : kWorkloads) {
        if (name == w.name) o.wl = &w;
      }
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--data-dir") {
      o.data_dir = argv[++i];
    } else if (a == "--trace-out") {
      o.trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  if (o.wl == nullptr || !(o.seconds > 0)) return usage();
  try {
    bench b(o);
    return b.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "skipbench: %s\n", e.what());
    return 1;
  }
}
