// Telemetry plane: always-on latency sketches, gauge sources and a
// snapshot ring.
//
// Exact counts live in each structure's instance counters (metrics.hpp)
// and the time-resolved view in the span ring (trace.hpp).  This plane is
// the part of the instrumentation that is ON in every build:
//
//   - a small set of always-allocated quantile sketches (qsketch.hpp, the
//     repo's only histogram type) recording per-op latency for
//     add/remove/contains and the storage paths (WAL commit = append ->
//     fsync-ack, raw fsync, commit batch size, checkpoint duration);
//   - a registry of named gauge SOURCES (WAL flusher lag, reclaim
//     watchdog stall/limbo gauges, anything a subsystem wants sampled)
//     that a background aggregator polls;
//   - a lock-free-readable time-series RING of snapshots: each tick the
//     aggregator fills one fixed-size slot (all source gauges + sketch
//     quantiles) under a per-slot seqlock, so exporters can read a
//     consistent sample while the aggregator keeps writing;
//   - a JSON-lines exporter (schema line + one line per sample + one
//     summary line per sketch), the body of the bench sidecar
//     (bench/bench_common.hpp) that tools/telemetry_report.py reads.
//
// Cost model.  Per-op timing samples one op in kSampleStride (64) per
// thread: the unsampled path is one thread-local decrement and branch, the
// sampled path two rdtsc reads and one relaxed sketch record.  Low-rate
// paths (fsync, checkpoint) record unsampled.  The hooks are unconditional.
//
// Time base: sketches store raw tsc ticks (metrics::tsc_now()); exporters
// convert to microseconds with the process-wide metrics::ticks_per_us().
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/qsketch.hpp"

namespace lfst::telemetry {

// ---------------------------------------------------------------------------
// Sketch identities
// ---------------------------------------------------------------------------

/// The always-on latency/size sketches.  Additions go at the end; the name
/// and unit tables below must stay in sync (static_asserts enforce size).
enum class skid : std::uint16_t {
  op_add = 0,       ///< skip_tree add, sampled 1-in-N
  op_remove,        ///< skip_tree remove, sampled 1-in-N
  op_contains,      ///< skip_tree contains, sampled 1-in-N
  wal_commit,       ///< durable_tree commit: append -> durable ack
  wal_fsync,        ///< one fsync(2) inside the WAL flusher
  wal_batch,        ///< records hardened per fsync (a size, not a time)
  checkpoint,       ///< one write_checkpoint() end to end
  kCount,
};

inline constexpr std::size_t kSketchCount =
    static_cast<std::size_t>(skid::kCount);

/// Unit of the recorded values: tsc ticks (exported in microseconds) or a
/// raw count (exported as-is).
enum class sk_unit : std::uint8_t { ticks, raw };

inline constexpr std::array<std::string_view, kSketchCount> kSketchNames = {
    "op.add",         "op.remove",        "op.contains",
    "storage.wal.commit", "storage.wal.fsync", "storage.wal.batch",
    "storage.checkpoint",
};

inline constexpr std::array<sk_unit, kSketchCount> kSketchUnits = {
    sk_unit::ticks, sk_unit::ticks, sk_unit::ticks, sk_unit::ticks,
    sk_unit::ticks, sk_unit::raw,   sk_unit::ticks,
};

static_assert(kSketchNames.size() == kSketchCount);
static_assert(kSketchUnits.size() == kSketchCount);

/// 1-in-N op sampling stride of the per-op latency hooks.
inline constexpr unsigned kSampleStride = 64;

/// Snapshot cadence of the background aggregator the bench sidecar runs.
inline constexpr std::chrono::milliseconds kSnapshotInterval{50};

/// Escape `s` for use inside a JSON string literal: quote, backslash, and
/// control characters per RFC 8259.  Series names come from subsystems and
/// bench labels, so the exporters must not emit broken JSON the day one
/// carries a quote.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The plane singleton
// ---------------------------------------------------------------------------

class plane {
 public:
  /// Columns in a snapshot slot.  Series allocation is append-only: a name
  /// keeps its column for the life of the process, so per-trial re-created
  /// subsystems (a fresh WAL per bench config) reuse their columns and the
  /// exported schema stays stable.
  static constexpr std::size_t kMaxSeries = 192;
  static constexpr std::size_t kRingCapacity = 256;

  /// Leaky singleton, like the trace registry: telemetry must outlive
  /// every thread that might record into it at exit.
  static plane& instance() {
    static plane* p = new plane();
    return *p;
  }

  // --- sketches -----------------------------------------------------------

  void record(skid id, std::uint64_t v) noexcept {
    sketches_[static_cast<std::size_t>(id)].record(v);
  }

  qsketch_snapshot sketch(skid id) const noexcept {
    return sketches_[static_cast<std::size_t>(id)].snapshot();
  }

  // --- gauge sources ------------------------------------------------------

  /// `fill` writes one double per series name, in order, each snapshot
  /// tick.  It runs on the aggregator thread and must not block on locks
  /// the hot path holds for long.  Returns a token for unregister_source.
  using fill_fn = std::function<void(double*)>;

  std::size_t register_source(const std::string& prefix,
                              const std::vector<std::string>& series,
                              fill_fn fill) {
    std::lock_guard<std::mutex> lk(sources_mu_);
    source src;
    src.token = next_token_++;
    for (const auto& s : series) {
      src.columns.push_back(column_for_locked(prefix + "." + s));
    }
    src.fill = std::move(fill);
    sources_.push_back(std::move(src));
    return sources_.back().token;
  }

  void unregister_source(std::size_t token) {
    std::lock_guard<std::mutex> lk(sources_mu_);
    for (auto it = sources_.begin(); it != sources_.end(); ++it) {
      if (it->token == token) {
        sources_.erase(it);
        return;
      }
    }
  }

  // --- snapshots ----------------------------------------------------------

  /// Take one snapshot now (also what the aggregator thread calls).
  void snapshot_now() {
    std::lock_guard<std::mutex> lk(snap_mu_);
    std::array<double, kMaxSeries> staging;
    staging.fill(std::numeric_limits<double>::quiet_NaN());

    // Sketch-derived columns.
    const double tpu = metrics::ticks_per_us();
    for (std::size_t i = 0; i < kSketchCount; ++i) {
      const qsketch_snapshot s = sketches_[i].snapshot();
      const double div = kSketchUnits[i] == sk_unit::ticks ? tpu : 1.0;
      const auto& cols = sketch_columns_[i];
      staging[cols[0]] = s.quantile(0.50) / div;
      staging[cols[1]] = s.quantile(0.90) / div;
      staging[cols[2]] = s.quantile(0.99) / div;
      staging[cols[3]] = s.quantile(0.999) / div;
      staging[cols[4]] = static_cast<double>(s.count);
      staging[cols[5]] = static_cast<double>(s.max) / div;
    }

    // Registered gauge sources.
    {
      std::lock_guard<std::mutex> slk(sources_mu_);
      std::array<double, kMaxSeries> tmp;
      for (const source& src : sources_) {
        if (src.columns.empty()) continue;
        // A source that declines to fill (no data yet) must publish NaN,
        // not stack garbage.
        for (std::size_t i = 0; i < src.columns.size(); ++i) {
          tmp[i] = std::numeric_limits<double>::quiet_NaN();
        }
        src.fill(tmp.data());
        for (std::size_t i = 0; i < src.columns.size(); ++i) {
          staging[src.columns[i]] = tmp[i];
        }
      }
    }

    // Publish into the ring under the slot's seqlock.
    const std::uint64_t n = samples_.fetch_add(1, std::memory_order_relaxed);
    slot& sl = ring_[n % kRingCapacity];
    sl.seq.store(2 * n + 1, std::memory_order_release);  // odd: in progress
    sl.sample_no.store(n, std::memory_order_relaxed);
    sl.tsc.store(metrics::tsc_now(), std::memory_order_relaxed);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0_)
            .count();
    sl.wall_ms_bits.store(std::bit_cast<std::uint64_t>(wall_ms),
                          std::memory_order_relaxed);
    for (std::size_t i = 0; i < kMaxSeries; ++i) {
      sl.values[i].store(std::bit_cast<std::uint64_t>(staging[i]),
                         std::memory_order_relaxed);
    }
    sl.seq.store(2 * n + 2, std::memory_order_release);  // even: stable
  }

  std::uint64_t samples_taken() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }

  // --- background aggregator ----------------------------------------------

  void start(std::chrono::milliseconds interval) {
    std::lock_guard<std::mutex> lk(thread_mu_);
    if (thread_.joinable()) return;  // already running
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this, interval] {
      std::unique_lock<std::mutex> lk2(wake_mu_);
      while (!stop_.load(std::memory_order_relaxed)) {
        lk2.unlock();
        snapshot_now();
        lk2.lock();
        wake_cv_.wait_for(lk2, interval, [this] {
          return stop_.load(std::memory_order_relaxed);
        });
      }
    });
  }

  void stop() {
    std::lock_guard<std::mutex> lk(thread_mu_);
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> wlk(wake_mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    wake_cv_.notify_all();
    thread_.join();
  }

  // --- export -------------------------------------------------------------

  struct sample_view {
    std::uint64_t sample_no = 0;
    double wall_ms = 0;
    std::array<double, kMaxSeries> values{};
  };

  /// Copy the ring's stable samples, oldest first.  Seqlock per slot: a
  /// slot overwritten mid-read is retried once, then skipped (the
  /// aggregator lapped us -- the sample is gone anyway).
  std::vector<sample_view> read_samples() const {
    std::vector<sample_view> out;
    const std::uint64_t n = samples_.load(std::memory_order_acquire);
    if (n == 0) return out;
    const std::uint64_t lo = n > kRingCapacity ? n - kRingCapacity : 0;
    for (std::uint64_t i = lo; i < n; ++i) {
      const slot& sl = ring_[i % kRingCapacity];
      sample_view v;
      bool ok = false;
      for (int attempt = 0; attempt < 4 && !ok; ++attempt) {
        const std::uint64_t s0 = sl.seq.load(std::memory_order_acquire);
        if (s0 == 0 || (s0 & 1u)) continue;  // unwritten or in progress
        v.sample_no = sl.sample_no.load(std::memory_order_relaxed);
        v.wall_ms = std::bit_cast<double>(
            sl.wall_ms_bits.load(std::memory_order_relaxed));
        for (std::size_t c = 0; c < kMaxSeries; ++c) {
          v.values[c] = std::bit_cast<double>(
              sl.values[c].load(std::memory_order_relaxed));
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        ok = sl.seq.load(std::memory_order_relaxed) == s0;
      }
      if (ok && v.sample_no == i) out.push_back(v);
    }
    return out;
  }

  /// Current schema: column index -> series name (append-only).
  std::vector<std::string> series_names() const {
    std::lock_guard<std::mutex> lk(sources_mu_);
    return names_;
  }

  /// JSON-lines export: one schema line, one line per ring sample (only
  /// non-NaN values), one summary line per sketch.
  std::string to_json_lines() const {
    std::ostringstream os;
    const double tpu = metrics::ticks_per_us();
    const std::vector<std::string> names = series_names();
    os << "{\"type\":\"telemetry_schema\",\"ticks_per_us\":" << tpu
       << ",\"sample_stride\":" << kSampleStride << ",\"series\":[";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i) os << ",";
      os << "\"" << json_escape(names[i]) << "\"";
    }
    os << "]}\n";

    for (const sample_view& v : read_samples()) {
      os << "{\"type\":\"telemetry_sample\",\"seq\":" << v.sample_no
         << ",\"t_ms\":" << v.wall_ms << ",\"values\":{";
      bool first = true;
      for (std::size_t c = 0; c < names.size() && c < kMaxSeries; ++c) {
        if (std::isnan(v.values[c])) continue;
        if (!first) os << ",";
        first = false;
        os << "\"" << json_escape(names[c])
           << "\":" << v.values[c];
      }
      os << "}}\n";
    }

    for (std::size_t i = 0; i < kSketchCount; ++i) {
      const qsketch_snapshot s = sketches_[i].snapshot();
      const bool us = kSketchUnits[i] == sk_unit::ticks;
      const double div = us ? tpu : 1.0;
      const char* sfx = us ? "_us" : "";
      os << "{\"type\":\"sketch\",\"name\":\"" << kSketchNames[i]
         << "\",\"count\":" << s.count << ",\"p50" << sfx
         << "\":" << s.quantile(0.50) / div << ",\"p90" << sfx
         << "\":" << s.quantile(0.90) / div << ",\"p99" << sfx
         << "\":" << s.quantile(0.99) / div << ",\"p999" << sfx
         << "\":" << s.quantile(0.999) / div << ",\"max" << sfx
         << "\":" << static_cast<double>(s.max) / div << ",\"mean" << sfx
         << "\":" << s.mean() / div << "}\n";
    }
    return os.str();
  }

  bool write_json_file(const std::string& path) const {
    std::ofstream f(path, std::ios::trunc);
    if (!f) return false;
    f << to_json_lines();
    return static_cast<bool>(f);
  }

  /// Test/bench hygiene: zero the sketches and forget ring samples.  The
  /// schema (name -> column map) is intentionally kept -- it is append-only
  /// by design.  Quiesce writers first.
  void reset() {
    std::lock_guard<std::mutex> lk(snap_mu_);
    for (auto& s : sketches_) s.reset();
    samples_.store(0, std::memory_order_relaxed);
    for (auto& sl : ring_) sl.seq.store(0, std::memory_order_relaxed);
  }

 private:
  plane()
      : wall0_(std::chrono::steady_clock::now()) {
    // Reserve the sketch-derived columns up front so they occupy the first
    // schema positions in every export.
    std::lock_guard<std::mutex> lk(sources_mu_);
    for (std::size_t i = 0; i < kSketchCount; ++i) {
      const bool us = kSketchUnits[i] == sk_unit::ticks;
      const std::string base(kSketchNames[i]);
      const char* sfx = us ? "_us" : "";
      sketch_columns_[i] = {
          column_for_locked(base + ".p50" + sfx),
          column_for_locked(base + ".p90" + sfx),
          column_for_locked(base + ".p99" + sfx),
          column_for_locked(base + ".p999" + sfx),
          column_for_locked(base + ".count"),
          column_for_locked(base + ".max" + sfx),
      };
    }
  }

  /// Column for `name`, allocating if new.  Requires sources_mu_ held.
  /// Past kMaxSeries the LAST column is shared (clamped) rather than
  /// overflowing -- telemetry degrades, never corrupts.
  std::size_t column_for_locked(const std::string& name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    if (names_.size() >= kMaxSeries) return kMaxSeries - 1;
    names_.push_back(name);
    return names_.size() - 1;
  }

  struct source {
    std::size_t token = 0;
    std::vector<std::size_t> columns;
    fill_fn fill;
  };

  struct slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> sample_no{0};
    std::atomic<std::uint64_t> tsc{0};
    std::atomic<std::uint64_t> wall_ms_bits{0};
    std::array<std::atomic<std::uint64_t>, kMaxSeries> values{};
  };

  std::array<qsketch, kSketchCount> sketches_{};
  std::array<std::array<std::size_t, 6>, kSketchCount> sketch_columns_{};

  mutable std::mutex sources_mu_;
  std::vector<std::string> names_;  // column index -> series name
  std::vector<source> sources_;
  std::size_t next_token_ = 1;

  std::mutex snap_mu_;  // serializes snapshot writers
  std::array<slot, kRingCapacity> ring_{};
  std::atomic<std::uint64_t> samples_{0};

  std::mutex thread_mu_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  const std::chrono::steady_clock::time_point wall0_;  // sample t_ms origin
};

// ---------------------------------------------------------------------------
// RAII helpers
// ---------------------------------------------------------------------------

/// Registers a gauge source for the lifetime of the holder.  Subsystems
/// (the WAL, the reclaim watchdog) keep one as their LAST member so it
/// unregisters before anything `fill` reads is torn down.
class scoped_source {
 public:
  scoped_source() = default;
  scoped_source(const std::string& prefix,
                const std::vector<std::string>& series, plane::fill_fn fill)
      : token_(plane::instance().register_source(prefix, series,
                                                 std::move(fill))) {}
  scoped_source(const scoped_source&) = delete;
  scoped_source& operator=(const scoped_source&) = delete;
  scoped_source(scoped_source&& o) noexcept : token_(o.token_) {
    o.token_ = 0;
  }
  scoped_source& operator=(scoped_source&& o) noexcept {
    if (this != &o) {
      release();
      token_ = o.token_;
      o.token_ = 0;
    }
    return *this;
  }
  ~scoped_source() { release(); }

 private:
  void release() noexcept {
    if (token_ != 0) {
      plane::instance().unregister_source(token_);
      token_ = 0;
    }
  }
  std::size_t token_ = 0;
};

/// Sampled RAII op timer.  One shared per-thread countdown across all op
/// kinds: the inlined footprint at the call site is a thread-local
/// decrement plus a predicted-not-taken branch (and a flag test in the
/// destructor); everything heavier -- the stride reload, the tsc reads,
/// the sketch record -- lives in noinline+cold out-of-line bodies so the
/// hook neither grows the host function's I-cache image nor adds register
/// pressure on the 1-in-N unsampled path.
class op_timer {
 public:
  explicit op_timer(skid id) noexcept {
    thread_local unsigned countdown = 1;  // sample the first op per thread
    if (--countdown == 0) [[unlikely]] {
      arm(id, countdown);
    }
  }
  op_timer(const op_timer&) = delete;
  op_timer& operator=(const op_timer&) = delete;
  ~op_timer() {
    if (t0_ != 0) [[unlikely]] {
      fire();
    }
  }

 private:
  [[gnu::noinline, gnu::cold]] void arm(skid id,
                                        unsigned& countdown) noexcept {
    countdown = kSampleStride;
    id_ = id;
    t0_ = metrics::tsc_now();
  }
  [[gnu::noinline, gnu::cold]] void fire() noexcept {
    plane::instance().record(id_, metrics::tsc_now() - t0_);
  }

  skid id_ = skid::op_add;
  std::uint64_t t0_ = 0;
};

}  // namespace lfst::telemetry

// ---------------------------------------------------------------------------
// Hot-path hook macros: the only telemetry code on operation hot paths.
// ---------------------------------------------------------------------------

#define LFST_TEL_OP(id_) \
  ::lfst::telemetry::op_timer lfst_tel_op_timer__ { (id_) }
#define LFST_TEL_RECORD(id_, value_) \
  ::lfst::telemetry::plane::instance().record((id_), (value_))
