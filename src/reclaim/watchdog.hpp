// Reclamation watchdog: the background driver of EBR stall tolerance.
//
// Mirrors the structural-health ticker (skiptree/health.hpp): a small
// dedicated thread wakes every `interval`, runs one `ebr_domain::stall_tick`
// pass -- stall detection, eviction flagging, epoch advance -- and keeps the
// last report plus running totals.  Ages are configured in wall-clock
// microseconds and converted to tsc ticks with the process-wide calibration,
// metrics::ticks_per_us().
//
// The watchdog is the only legal driver of stall_tick while it runs (the
// per-slot observation fields are single-driver state); tests that call
// tick_now() must not also start() the thread.  The report mutex serializes
// only the bookkeeping, not the tick itself.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>

#include "common/metrics.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "reclaim/ebr.hpp"

namespace lfst::reclaim {

/// Tuning for a reclaim_watchdog.  The defaults are deliberately lazy --
/// a reader must lag the epoch for tens of milliseconds before it is asked
/// to move, far above any legitimate operation on these structures.
struct watchdog_options {
  /// Wake-up period of the watchdog thread.
  std::chrono::microseconds interval{std::chrono::milliseconds(2)};
  /// How long a slot may publish the same lagging epoch before it is
  /// flagged for cooperative eviction.
  std::chrono::microseconds stall_age{std::chrono::milliseconds(20)};
};

/// Running totals over every pass since construction.
struct watchdog_totals {
  std::uint64_t ticks = 0;          ///< passes run
  std::uint64_t stalled_ticks = 0;  ///< passes that saw a stalled slot
  std::uint64_t flagged = 0;        ///< eviction requests issued
};

/// Background stall-tolerance driver for one ebr_domain.
class reclaim_watchdog {
 public:
  explicit reclaim_watchdog(ebr_domain& domain,
                            watchdog_options opts = watchdog_options{})
      : domain_(domain), opts_(opts) {
    // Publish the latest pass's stall/limbo gauges into the telemetry
    // plane.  `fill` reads the last report under mu_ (tick_now holds it
    // only to record the pass; no hot-path interaction).
    tel_source_ = telemetry::scoped_source(
        "reclaim", {"pinned", "stalled", "limbo_bytes"}, [this](double* v) {
          const stall_report r = last_report();
          v[0] = static_cast<double>(r.pinned);
          v[1] = static_cast<double>(r.stalled);
          v[2] = static_cast<double>(r.limbo_bytes);
        });
  }

  ~reclaim_watchdog() { stop(); }

  reclaim_watchdog(const reclaim_watchdog&) = delete;
  reclaim_watchdog& operator=(const reclaim_watchdog&) = delete;

  void start() {
    if (running_.exchange(true, std::memory_order_acq_rel)) return;
    thread_ = std::thread([this] { run(); });
  }

  void stop() {
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
    if (thread_.joinable()) thread_.join();
  }

  /// Run one pass synchronously on the calling thread (usable with or
  /// without the background thread; see the single-driver caveat above).
  stall_report tick_now() {
    LFST_T_SPAN(::lfst::trace::sid::reclaim_tick);
    stall_params p;
    p.now_tsc = ::lfst::metrics::tsc_now();
    p.stall_age_ticks =
        to_ticks(opts_.stall_age, ::lfst::metrics::ticks_per_us());
    const stall_report r = domain_.stall_tick(p);
    {
      std::lock_guard<std::mutex> lk(mu_);
      last_ = r;
      ++totals_.ticks;
      if (r.stalled != 0) ++totals_.stalled_ticks;
      totals_.flagged += r.flagged;
    }
    return r;
  }

  /// The most recent pass's report (all zeros before the first pass).
  stall_report last_report() const {
    std::lock_guard<std::mutex> lk(mu_);
    return last_;
  }

  watchdog_totals totals() const {
    std::lock_guard<std::mutex> lk(mu_);
    return totals_;
  }

 private:
  void run() {
    // Sleep in short slices so stop() latency stays bounded even with a
    // long tick interval.
    const auto slice = std::chrono::milliseconds(1);
    auto next = std::chrono::steady_clock::now() + opts_.interval;
    while (running_.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() >= next) {
        tick_now();
        next += opts_.interval;
      } else {
        std::this_thread::sleep_for(slice);
      }
    }
  }

  static std::uint64_t to_ticks(std::chrono::microseconds us, double tpu) {
    const double t = static_cast<double>(us.count()) * tpu;
    if (t >= 1.8e19) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(t);
  }

  ebr_domain& domain_;
  watchdog_options opts_;
  std::atomic<bool> running_{false};
  std::thread thread_;
  mutable std::mutex mu_;
  stall_report last_;
  watchdog_totals totals_;

  // Last member: destroyed first, so the aggregator stops calling into us
  // before last_/mu_ go away.
  telemetry::scoped_source tel_source_;
};

}  // namespace lfst::reclaim
