// Span tracing: scoped RAII spans and zero-length event spans over the hot
// paths, recorded into one leased per-thread ring.
//
// Exact counts live in each structure's instance counters (metrics.hpp) and
// latency distributions in the telemetry plane's sketches (telemetry.hpp).
// This layer answers "when, for how long, and in what order": every traced
// operation (add / remove / contains on the skip-tree, skip-list and b-link
// tree, pool refills, EBR epoch advances, health probes, WAL flushes,
// checkpoints, replays) records a span -- begin/end tsc timestamps plus the
// retry count and traversal depth accumulated while it ran -- and every
// structural event (a split, a root raise, one of the four Fig. 8 compaction
// transforms, a new EBR epoch, a stalled reader) records a zero-length span
// carrying one payload word.  The bench sidecar (bench/bench_common.hpp) writes
// the merged dump as one Chrome `trace_event` line per span;
// `tools/telemetry_report.py --perfetto` wraps those lines into a document
// Perfetto loads.
//
// Zero-cost contract: the machinery below is always compiled (the tier-1
// suite exercises it in every build), but the LFST_T_* macros threaded
// through the structures compile to `((void)0)` unless LFST_TRACE is
// defined -- no branch, no TLS load, no registry reference on any hot path
// of a plain build.  LFST_TRACE is the only instrumentation compile flag.
//
// Span lifecycle.  `scoped_span` publishes itself in a thread-local
// current-span slot for its lifetime, so deep retry/step sites
// (LFST_T_RETRY / LFST_T_STEP) can annotate the innermost enclosing
// operation without plumbing a handle through the static op structs; spans
// nest (the constructor saves the previous slot, the destructor restores
// it), and the record is pushed into the calling thread's ring only at
// destruction -- a span that never ends (thread killed mid-op) is simply
// absent from the dump.
//
// Span timestamps are raw tsc ticks, converted to microseconds at export
// with metrics::ticks_per_us(); cross-core tsc skew makes ordering
// best-effort.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"

namespace lfst::trace {

// --- span identifiers ----------------------------------------------------------
//
// Adding an id: append to the right block of the enum AND the name table;
// the static_assert keeps them in lockstep.  Ids from kFirstEvent on are
// events: zero-length spans whose payload replaces the retry/depth pair.

enum class sid : std::uint16_t {
  skiptree_contains = 0,
  skiptree_add,
  skiptree_remove,
  skiplist_contains,
  skiplist_add,
  skiplist_remove,
  blink_contains,
  blink_add,
  blink_remove,
  pool_refill,
  ebr_advance,
  health_probe,
  reclaim_tick,
  wal_flush,
  storage_checkpoint,
  storage_replay,
  // --- events ---
  skiptree_split,       ///< payload: split position in the old payload
  skiptree_root_raise,  ///< payload: new root height
  skiptree_compact_8a,  ///< payload: index of the repaired entry
  skiptree_compact_8b,
  skiptree_compact_8c,
  skiptree_compact_8d,
  ebr_new_epoch,        ///< payload: the epoch just published
  ebr_stall,            ///< payload: slot index of the stalled reader
  kCount
};

inline constexpr sid kFirstEvent = sid::skiptree_split;

inline constexpr std::string_view kSpanNames[] = {
    "skiptree.contains",
    "skiptree.add",
    "skiptree.remove",
    "skiplist.contains",
    "skiplist.add",
    "skiplist.remove",
    "blink.contains",
    "blink.add",
    "blink.remove",
    "pool.refill",
    "ebr.advance",
    "skiptree.health_probe",
    "reclaim.watchdog_tick",
    "storage.wal.flush",
    "storage.checkpoint",
    "storage.replay",
    "skiptree.split",
    "skiptree.root_raise",
    "skiptree.compact_8a",
    "skiptree.compact_8b",
    "skiptree.compact_8c",
    "skiptree.compact_8d",
    "ebr.new_epoch",
    "ebr.stall",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<std::size_t>(sid::kCount));

constexpr std::string_view span_name(sid id) noexcept {
  return kSpanNames[static_cast<std::size_t>(id)];
}

constexpr bool is_event(sid id) noexcept { return id >= kFirstEvent; }

/// One completed span, annotated with its source thread (the ring-pool index
/// of the recording thread's leased ring).  Operation spans fill retries and
/// depth; events (t0 == t1) fill payload.
struct span_record {
  sid id{};
  std::uint64_t t0 = 0;       ///< tsc at span begin
  std::uint64_t t1 = 0;       ///< tsc at span end
  std::uint32_t retries = 0;  ///< CAS retries charged to this operation
  std::uint32_t depth = 0;    ///< traversal steps charged to this operation
  std::uint64_t thread = 0;
  std::uint64_t payload = 0;  ///< event argument
};

// --- per-thread span ring --------------------------------------------------------

/// Fixed-capacity ring of completed spans, written by exactly one thread at
/// a time (rings are recycled across threads, never shared concurrently).
/// All fields are relaxed atomics so a concurrent drain reads torn records
/// at worst, never undefined behavior; exact dumps require quiescence.  The
/// 64-bit `arg` word packs retries:depth for operation spans and holds the
/// payload for events, keeping a push at four relaxed stores plus the head
/// bump.
class span_ring {
 public:
  static constexpr std::size_t kCapacity = 4096;

  void push(sid id, std::uint64_t t0, std::uint64_t t1,
            std::uint64_t arg) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slot& s = slots_[h % kCapacity];
    s.id.store(static_cast<std::uint16_t>(id), std::memory_order_relaxed);
    s.t0.store(t0, std::memory_order_relaxed);
    s.t1.store(t1, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Append the ring's surviving spans (oldest first) to `out`.
  void drain_into(std::vector<span_record>& out, std::uint64_t thread) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n = h < kCapacity ? h : kCapacity;
    for (std::uint64_t i = h - n; i < h; ++i) {
      const slot& s = slots_[i % kCapacity];
      span_record r;
      r.id = static_cast<sid>(s.id.load(std::memory_order_relaxed));
      r.t0 = s.t0.load(std::memory_order_relaxed);
      r.t1 = s.t1.load(std::memory_order_relaxed);
      r.thread = thread;
      const std::uint64_t arg = s.arg.load(std::memory_order_relaxed);
      if (is_event(r.id)) {
        r.payload = arg;
      } else {
        r.retries = static_cast<std::uint32_t>(arg >> 32);
        r.depth = static_cast<std::uint32_t>(arg & 0xffffffffu);
      }
      out.push_back(r);
    }
  }

  /// Monotone number of spans ever pushed (wraparound does not reset it).
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { head_.store(0, std::memory_order_relaxed); }

 private:
  struct slot {
    std::atomic<std::uint16_t> id{0};
    std::atomic<std::uint64_t> t0{0};
    std::atomic<std::uint64_t> t1{0};
    std::atomic<std::uint64_t> arg{0};
  };
  std::atomic<std::uint64_t> head_{0};
  std::array<slot, kCapacity> slots_{};
};

// --- registry -----------------------------------------------------------------

/// Process-wide span registry: a leaky singleton (so spans stay recordable
/// from static-destruction-time code) owning a growable set of per-thread
/// rings, leased on a thread's first push and returned (contents intact,
/// hence still drainable) when the thread exits.  A returned ring is
/// recycled by the next fresh lease with its contents preserved: the
/// records already in it were really pushed, and wiping them would lose a
/// short-lived thread's entire output whenever its ring is re-leased
/// before anyone drains.  The newcomer appends after the old owner's tail;
/// only an explicit reset() clears rings.
class trace_registry {
 public:
  static trace_registry& instance() {
    static trace_registry* r = new trace_registry;
    return *r;
  }

  void push(sid id, std::uint64_t t0, std::uint64_t t1,
            std::uint64_t arg) noexcept {
    my_ring().push(id, t0, t1, arg);
  }

  /// Record an event: a zero-length span at the current tsc.
  void event(sid id, std::uint64_t payload) noexcept {
    const std::uint64_t now = metrics::tsc_now();
    push(id, now, now, payload);
  }

  /// Merge every ring ever leased, alive or not, into one dump ordered by
  /// span begin; a ring's pool index is the "thread" of its records.
  std::vector<span_record> drain() const {
    std::vector<span_record> out;
    {
      std::lock_guard<std::mutex> g(mu_);
      for (std::size_t i = 0; i < rings_.size(); ++i) {
        rings_[i]->ring.drain_into(out, i);
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const span_record& a, const span_record& b) {
                       return a.t0 < b.t0;
                     });
    return out;
  }

  /// Wipe every ring (caller must quiesce the writers first).
  void reset() {
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& r : rings_) r->ring.reset();
  }

 private:
  struct owned_ring {
    span_ring ring;
    std::atomic<bool> leased{false};
  };

  struct ring_lease {
    owned_ring* ring = nullptr;
    ~ring_lease() {
      if (ring != nullptr)
        ring->leased.store(false, std::memory_order_release);
    }
  };

  trace_registry() = default;

  /// The calling thread's leased ring (acquired on first call).  The lease
  /// is one thread_local per process, which is why the registry must stay
  /// a singleton.
  span_ring& my_ring() {
    thread_local ring_lease lease;
    if (lease.ring == nullptr) lease.ring = &acquire_ring();
    return lease.ring->ring;
  }

  owned_ring& acquire_ring() {
    std::lock_guard<std::mutex> g(mu_);
    for (const auto& r : rings_) {
      bool expected = false;
      if (r->leased.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
        return *r;  // contents preserved: see class comment
      }
    }
    rings_.push_back(std::make_unique<owned_ring>());
    rings_.back()->leased.store(true, std::memory_order_relaxed);
    return *rings_.back();
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<owned_ring>> rings_;
};

// --- scoped span ----------------------------------------------------------------

/// RAII span: stamps t0 at construction, t1 at destruction, and pushes the
/// record into the calling thread's leased ring.  While alive it is the
/// thread's "current span" (a TLS slot), so note_retry()/note_step() below
/// can charge retries and traversal steps to the innermost operation from
/// arbitrarily deep call sites.  Spans nest; the previous current span is
/// restored on destruction.
class scoped_span {
 public:
  explicit scoped_span(sid id) noexcept
      : id_(id), prev_(current()), t0_(metrics::tsc_now()) {
    current() = this;
  }

  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  ~scoped_span() {
    current() = prev_;
    trace_registry::instance().push(
        id_, t0_, metrics::tsc_now(),
        (static_cast<std::uint64_t>(retries_) << 32) | depth_);
  }

  void add_retry() noexcept { ++retries_; }
  void add_step() noexcept { ++depth_; }

  /// The calling thread's innermost live span, or null.
  static scoped_span*& current() noexcept {
    thread_local scoped_span* cur = nullptr;
    return cur;
  }

 private:
  sid id_;
  scoped_span* prev_;
  std::uint64_t t0_;
  std::uint32_t retries_ = 0;
  std::uint32_t depth_ = 0;
};

/// Charge one retry / one traversal step to the innermost live span, if any
/// (sites fire outside any span too, e.g. preload loops -- that is fine).
inline void note_retry() noexcept {
  if (scoped_span* s = scoped_span::current()) s->add_retry();
}
inline void note_step() noexcept {
  if (scoped_span* s = scoped_span::current()) s->add_step();
}

// --- Chrome trace_event export -----------------------------------------------------

/// One Chrome `trace_event` object per span, one per line: a complete event
/// (ph "X") on pid 0 / tid = its ring index, timestamps in microseconds
/// relative to the earliest span in `spans`.  Events export with dur 0 and
/// their payload in `args`; operation spans carry retries and depth, which
/// Perfetto shows in its detail pane.  Every object also carries
/// "type":"span" so the lines can share a JSON-lines sidecar with other
/// record types.  Durations are clamped non-negative (cross-core tsc skew
/// can invert a short span).
inline std::string to_chrome_lines(const std::vector<span_record>& spans,
                                   double ticks_per_us) {
  if (ticks_per_us <= 0.0) ticks_per_us = 1.0;
  std::uint64_t base = spans.empty() ? 0 : spans.front().t0;
  for (const span_record& s : spans) base = std::min(base, s.t0);
  std::ostringstream os;
  for (const span_record& s : spans) {
    const double ts = static_cast<double>(s.t0 - base) / ticks_per_us;
    const double dur = s.t1 >= s.t0
                           ? static_cast<double>(s.t1 - s.t0) / ticks_per_us
                           : 0.0;
    os << "{\"type\":\"span\",\"name\":\"" << span_name(s.id)
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.thread << ",\"ts\":" << ts
       << ",\"dur\":" << dur << ",\"args\":{";
    if (is_event(s.id)) {
      os << "\"payload\":" << s.payload;
    } else {
      os << "\"retries\":" << s.retries << ",\"depth\":" << s.depth;
    }
    os << "}}\n";
  }
  return os.str();
}

}  // namespace lfst::trace

// --- instrumentation macros ------------------------------------------------------
//
// All span instrumentation goes through these; they compile to nothing
// without LFST_TRACE (arguments are discarded textually, so payload
// expressions cost nothing in a plain build).

#if defined(LFST_TRACE)

#define LFST_T_CAT2_(a_, b_) a_##b_
#define LFST_T_CAT_(a_, b_) LFST_T_CAT2_(a_, b_)

/// Open a span covering the rest of the enclosing scope.
#define LFST_T_SPAN(id_) \
  ::lfst::trace::scoped_span LFST_T_CAT_(lfst_t_span_, __LINE__)(id_)

/// Charge one CAS retry / one traversal step to the innermost live span.
#define LFST_T_RETRY() (::lfst::trace::note_retry())
#define LFST_T_STEP() (::lfst::trace::note_step())

/// Record an event (a zero-length span) with one payload word.
#define LFST_T_EVENT(id_, payload_)                  \
  (::lfst::trace::trace_registry::instance().event( \
      (id_), static_cast<std::uint64_t>(payload_)))

#else  // !LFST_TRACE: every macro compiles to nothing.

#define LFST_T_SPAN(id_) ((void)0)
#define LFST_T_RETRY() ((void)0)
#define LFST_T_STEP() ((void)0)
#define LFST_T_EVENT(id_, payload_) ((void)0)

#endif  // LFST_TRACE
