// Epoch-based reclamation (EBR) with stall tolerance.
//
// The paper's skip-tree runs on a JVM and leans on the garbage collector for
// two guarantees (Sec. III-A): retired objects are not freed while a reader
// may still hold them, and addresses are not recycled in a way that causes
// ABA on compare-and-swap.  This module supplies both guarantees natively.
//
// Scheme (Fraser-style, three limbo generations):
//  * A global epoch counter advances 0, 1, 2, ... .
//  * Every operation on a protected structure runs under an RAII `guard`
//    that publishes ("pins") the thread's view of the global epoch.
//  * `retire(p)` adds `p` to the pinning thread's limbo list tagged with the
//    current global epoch `e`.  `p` must already be unreachable from the structure.
//  * The global epoch may advance from `g` to `g+1` only when every pinned
//    thread has published `g`.  Hence once the global epoch reaches `e + 2`,
//    no thread that could have observed `p` is still pinned, and the limbo
//    list for epoch `e` is reclaimed.  Three limbo buckets per thread
//    (indexed by epoch mod 3) suffice because a bucket is reused only when
//    its previous generation is at least three epochs old.
//
// ABA freedom follows: an address is handed back to the allocator only after
// the grace period, so a pinned compare-and-swap can never observe a
// recycled address.
//
// Stall tolerance (DESIGN.md Sec. 8).  Classic EBR's failure mode is a single
// preempted, stalled, or dead reader pinning the epoch forever, growing
// garbage without bound.  This domain adds two cooperating mechanisms, neither
// of which ever frees a block a pinned reader might still hold:
//  * Watchdog-side stall detection (`stall_tick`): a slot that publishes the
//    same lagging epoch across ticks for longer than a tsc-measured age is
//    flagged for eviction.
//  * Cooperative reader eviction: `guard::check()` -- one relaxed load on
//    the slot's own cache line -- lets a flagged-but-alive reader republish
//    a fresh epoch at a traversal safe point and restart its operation.
// Limbo is accounted byte-exactly (`stats()`), so the cost of a stall is
// visible, but nothing caps it: eviction is the only thing that bounds it.
//
// Fast path.  A pin or a retire touches the thread's own slot plus one read
// of the line holding the global epoch, which changes once per epoch.  The
// outermost pin collects the slot's expired buckets only when the epoch it
// published differs from the one the slot last collected at (nothing can
// have expired in between), and limbo is counted per slot under the slot's
// own limbo lock.  `stats()` sums the slots; the byte high-water mark is the
// largest such sum seen at an advance attempt or a `stats()` read.
//
// The contract: a reader that never reaches a safe point (wedged, or inside
// a walk without one) blocks every grace period, and limbo grows without
// bound for as long as it stays pinned -- but nothing it might still hold is
// ever freed.  Neutralising such a reader safely would need recovery
// code inside every data structure (DEBRA+, arXiv 1712.05406); this repo has
// none, so a wedged reader costs memory, never safety.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "common/align.hpp"
#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "reclaim/retired.hpp"

namespace lfst::reclaim {

/// Maximum number of threads that may simultaneously hold slots in one
/// domain.  Slots are recycled on thread exit, so this bounds concurrency,
/// not total thread count over a process lifetime.
inline constexpr std::size_t kMaxThreads = 256;

class ebr_domain;

/// Inputs to one watchdog detection pass (ages in tsc ticks; the caller --
/// normally `reclaim_watchdog` -- owns the tsc-to-wall-clock calibration).
struct stall_params {
  std::uint64_t now_tsc = 0;
  std::uint64_t stall_age_ticks = 0;  ///< same-epoch age before flagging
};

/// What one detection pass saw and did.
struct stall_report {
  std::size_t pinned = 0;       ///< slots pinned at scan time
  std::size_t stalled = 0;      ///< lagging slots past the stall age
  std::size_t flagged = 0;      ///< eviction requests made this pass
  std::size_t limbo_bytes = 0;  ///< in-limbo bytes after the pass
  bool advanced = false;        ///< try_advance() succeeded
};

/// Result of a flush pass.  `skipped_slots` non-zero means the domain was
/// not quiescent and some limbo stayed put -- `flush()` asserts on that in
/// debug builds, `try_flush()` leaves the judgment to the caller.
struct flush_result {
  std::size_t flushed_blocks = 0;
  std::size_t flushed_bytes = 0;
  std::size_t skipped_slots = 0;

  bool clean() const noexcept { return skipped_slots == 0; }
};

/// Point-in-time footprint of a domain (exposed through structural_stats).
/// The limbo counts are a sum of per-slot relaxed reads: exact once the
/// domain is quiesced.  `limbo_bytes_hwm` is the largest `limbo_bytes` sum
/// seen at an epoch-advance attempt or a `stats()` read, so a peak that
/// rises and falls between two of those is not seen.
struct domain_stats {
  std::size_t limbo_blocks = 0;
  std::size_t limbo_bytes = 0;
  std::size_t limbo_bytes_hwm = 0;
  std::uint64_t epoch = 0;
};

namespace detail {
/// Per-thread epoch record.  `epoch` is written by the owner and read by
/// advancers/the watchdog; `flags` is set by the watchdog and cleared by the
/// owner; the observation fields belong to the (single) stall driver; limbo
/// state is owner-only except under `limbo_lock`, which arbitrates
/// try_flush()'s foreign-slot collection against the owner's stash/collect.
/// `limbo_blocks`/`limbo_bytes` mirror the three lists' totals: written only
/// under `limbo_lock`, read without it by stats() and the advancer.
/// Aligned to the false-sharing range because each slot is written by
/// exactly one thread on the hot path.
struct alignas(kFalseSharingRange) ebr_slot {
  static constexpr std::uint64_t kQuiescent = ~std::uint64_t{0};
  static constexpr std::uint32_t kEvictRequested = 1u << 0;

  std::atomic<std::uint64_t> epoch{kQuiescent};
  std::atomic<std::uint32_t> flags{0};
  std::atomic<bool> in_use{false};
  std::atomic<bool> limbo_lock{false};
  std::atomic<std::size_t> limbo_blocks{0};
  std::atomic<std::size_t> limbo_bytes{0};

  // Stall-driver-only observation state (see ebr_domain::stall_tick).
  std::uint64_t observed_epoch = kQuiescent;
  std::uint64_t observed_tsc = 0;

  // Owner-only state (limbo additionally guarded by limbo_lock).
  unsigned depth = 0;             // guard nesting level
  std::uint64_t pinned = 0;       // epoch published while depth > 0
  std::uint64_t retire_ticks = 0; // retires since last advance attempt
  std::uint64_t collected_epoch = 0;  // global epoch of the last collect
  retired_list limbo[3];
  std::uint64_t limbo_epoch[3] = {0, 0, 0};  // generation tag per bucket

  // The counters have one writer at a time (the lock holder), so a plain
  // load+store suffices; they are atomic only for the lock-free readers.
  void count_retired(std::size_t bytes) noexcept {
    limbo_blocks.store(limbo_blocks.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    limbo_bytes.store(limbo_bytes.load(std::memory_order_relaxed) + bytes,
                      std::memory_order_relaxed);
  }

  /// Free every block of bucket `b` and uncount it.  Caller holds
  /// limbo_lock.
  void reclaim_bucket(int b) {
    limbo_blocks.store(
        limbo_blocks.load(std::memory_order_relaxed) - limbo[b].size(),
        std::memory_order_relaxed);
    limbo_bytes.store(
        limbo_bytes.load(std::memory_order_relaxed) - limbo[b].bytes(),
        std::memory_order_relaxed);
    limbo[b].reclaim_all();
  }

  void lock_limbo() noexcept {
    while (limbo_lock.exchange(true, std::memory_order_acquire)) {
    }
  }
  bool try_lock_limbo() noexcept {
    return !limbo_lock.exchange(true, std::memory_order_acquire);
  }
  void unlock_limbo() noexcept {
    limbo_lock.store(false, std::memory_order_release);
  }
};
}  // namespace detail

/// An epoch-reclamation domain.  Structures sharing a domain share grace
/// periods; the default `ebr_domain::global()` is what the data structures
/// use unless a test passes its own.
class ebr_domain {
 public:
  ebr_domain() : id_(next_domain_id()) {
    std::lock_guard<std::mutex> g(live_registry().mu);
    live_registry().ids.insert(id_);
  }
  ebr_domain(const ebr_domain&) = delete;
  ebr_domain& operator=(const ebr_domain&) = delete;

  /// Destructor reclaims everything still in limbo.  Callers must
  /// guarantee quiescence (no guards held, no further retires).  Exiting
  /// threads that still hold slot references consult the live-domain
  /// registry so they never touch a destroyed domain.
  ~ebr_domain() {
    {
      std::lock_guard<std::mutex> g(live_registry().mu);
      live_registry().ids.erase(id_);
    }
    const std::size_t n = high_water_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      detail::ebr_slot& s = slots_[i];
      for (retired_list& l : s.limbo) l.reclaim_all();
    }
  }

  /// The process-wide default domain.
  static ebr_domain& global() {
    static ebr_domain d;
    return d;
  }

  class guard;

  // --- retire ----------------------------------------------------------------

  /// Retire `p`; its deleter runs after a full grace period.  Must be called
  /// with a guard held on this domain by the calling thread.
  template <typename T>
  void retire(T* p) {
    retire(retired_block{p, &delete_of<T>, sizeof(T)});
  }

  void retire(retired_block b) {
    LFST_FP_POINT("ebr.retire");
    detail::ebr_slot& s = my_slot();
    assert(s.depth > 0 && "retire() requires an active ebr_domain::guard");
    // Tag the garbage with the CURRENT global epoch, not the pinned one.
    // The unlink that made `b` unreachable happened no later than this
    // load; any reader that can still hold the block is therefore pinned
    // at an epoch <= g, and the free rule (global >= tag + 2) cannot fire
    // until every such reader has unpinned.  Tagging with the pinned epoch
    // would be off by one: the global may already be pinned+1 at unlink
    // time, and a reader pinned there could outlive the grace period.
    const std::uint64_t g = global_epoch_.load(std::memory_order_seq_cst);
    s.lock_limbo();
    stash(s, g, b);
    s.unlock_limbo();
    if (++s.retire_ticks >= kAdvanceEvery) {
      s.retire_ticks = 0;
      try_advance();
      const std::uint64_t now = global_epoch_.load(std::memory_order_acquire);
      if (now != s.collected_epoch) collect(s, now);
    }
  }

  // --- flush -----------------------------------------------------------------

  /// Drive epochs forward and reclaim as much as possible.  Quiescent-only
  /// (no guard held anywhere in the domain): asserts in debug builds if any
  /// slot is still pinned, and reports what it skipped either way.  Callers
  /// that deliberately flush a partially pinned domain (tests exercising
  /// the grace period) should use try_flush().
  flush_result flush() {
    const flush_result r = try_flush();
    assert(r.skipped_slots == 0 &&
           "flush() on a non-quiescent domain skips pinned slots; "
           "use try_flush() if that is intended");
    return r;
  }

  /// Like flush(), but silently tolerates pinned slots (their limbo stays
  /// put and is counted in `skipped_slots`).
  flush_result try_flush() {
    flush_result r;
    for (int round = 0; round < 4; ++round) try_advance();
    const std::size_t n = high_water_.load(std::memory_order_acquire);
    const std::uint64_t g = global_epoch_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      detail::ebr_slot& s = slots_[i];
      // Safe to touch foreign slots only when they cannot race: skip slots
      // that are pinned right now, and take the limbo lock against an owner
      // that pins (and collects) mid-flush.
      if (s.epoch.load(std::memory_order_acquire) !=
          detail::ebr_slot::kQuiescent) {
        ++r.skipped_slots;
        continue;
      }
      if (!s.try_lock_limbo()) {
        ++r.skipped_slots;
        continue;
      }
      for (int b = 0; b < 3; ++b) {
        if (!s.limbo[b].empty() && s.limbo_epoch[b] + 2 <= g) {
          r.flushed_blocks += s.limbo[b].size();
          r.flushed_bytes += s.limbo[b].bytes();
          s.reclaim_bucket(b);
        }
      }
      s.unlock_limbo();
    }
    return r;
  }

  // --- introspection ---------------------------------------------------------

  std::uint64_t epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Number of blocks waiting in this thread's limbo lists (test hook).
  std::size_t my_limbo_size() {
    detail::ebr_slot& s = my_slot();
    s.lock_limbo();
    const std::size_t n =
        s.limbo[0].size() + s.limbo[1].size() + s.limbo[2].size();
    s.unlock_limbo();
    return n;
  }

  /// Bytes waiting in this thread's limbo lists (test hook).
  std::size_t my_limbo_bytes() {
    detail::ebr_slot& s = my_slot();
    s.lock_limbo();
    const std::size_t b =
        s.limbo[0].bytes() + s.limbo[1].bytes() + s.limbo[2].bytes();
    s.unlock_limbo();
    return b;
  }

  /// Domain-wide footprint snapshot: the sum of every slot's counts
  /// (relaxed reads; exact once quiesced).  Raises the high-water mark to
  /// the byte sum it read.
  domain_stats stats() const noexcept {
    domain_stats d;
    const std::size_t n = high_water_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      d.limbo_blocks += slots_[i].limbo_blocks.load(std::memory_order_relaxed);
      d.limbo_bytes += slots_[i].limbo_bytes.load(std::memory_order_relaxed);
    }
    d.limbo_bytes_hwm = raise_hwm(d.limbo_bytes);
    d.epoch = global_epoch_.load(std::memory_order_acquire);
    return d;
  }

  // --- stall detection (watchdog entry point) --------------------------------

  /// One detection/advance pass.  Must be driven by at most one
  /// thread at a time (normally a `reclaim_watchdog`); the per-slot
  /// observation fields are unsynchronized stall-driver state.  A stalled
  /// slot is only ever flagged: it keeps blocking the epoch until it
  /// answers at a safe point or unpins.
  stall_report stall_tick(const stall_params& p) {
    LFST_FP_POINT("ebr.stall_tick");
    stall_report r;
    const std::uint64_t g = global_epoch_.load(std::memory_order_seq_cst);
    const std::size_t n = high_water_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      detail::ebr_slot& s = slots_[i];
      const std::uint64_t e = s.epoch.load(std::memory_order_seq_cst);
      if (e == detail::ebr_slot::kQuiescent) {
        s.observed_epoch = detail::ebr_slot::kQuiescent;
        continue;
      }
      ++r.pinned;
      if (e != s.observed_epoch) {
        // The reader made progress since the last pass: restart its clock.
        s.observed_epoch = e;
        s.observed_tsc = p.now_tsc;
        continue;
      }
      if (e >= g) continue;  // pinned at the current epoch: not lagging
      if (p.now_tsc - s.observed_tsc < p.stall_age_ticks) continue;
      ++r.stalled;
      if ((s.flags.load(std::memory_order_acquire) &
           detail::ebr_slot::kEvictRequested) == 0) {
        s.flags.fetch_or(detail::ebr_slot::kEvictRequested,
                         std::memory_order_acq_rel);
        ++r.flagged;
        LFST_T_EVENT(::lfst::trace::sid::ebr_stall, i);
      }
    }
    r.advanced = try_advance();
    r.limbo_bytes = stats().limbo_bytes;
    return r;
  }

 private:
  static constexpr std::uint64_t kAdvanceEvery = 64;

  // --- slot management -----------------------------------------------------

  detail::ebr_slot& my_slot() {
    // One thread may interleave operations on several domains (e.g. the
    // process-global domain plus a test-local one), so the thread-local
    // registry keeps a slot per domain rather than a single cached slot --
    // releasing another domain's slot mid-guard would unpin it.  Entries are
    // matched by (pointer, unique id) so a recycled domain address cannot
    // alias a stale entry.
    thread_local tls_registry reg;
    for (std::size_t i = 0; i < reg.count; ++i) {
      if (reg.entries[i].domain == this && reg.entries[i].domain_id == id_)
        return *reg.entries[i].slot;
    }
    std::size_t at = reg.count;
    if (at == tls_registry::kCapacity) {
      // Full: entries for since-destroyed domains are dead weight -- their
      // slots died with the domain.  Reuse the first such entry; only if
      // every tracked domain is still alive is the thread genuinely over
      // the limit, and that must be a hard error in every build mode (an
      // NDEBUG-stripped assert here would be an out-of-bounds write).
      std::lock_guard<std::mutex> g(live_registry().mu);
      for (std::size_t i = 0; i < reg.count; ++i) {
        if (live_registry().ids.count(reg.entries[i].domain_id) == 0) {
          at = i;
          break;
        }
      }
      if (at == tls_registry::kCapacity) {
        throw std::length_error(
            "ebr_domain: thread holds slots in more than 8 live domains");
      }
    }
    detail::ebr_slot& s = acquire_slot();
    reg.entries[at] = {this, id_, &s};
    if (at == reg.count) ++reg.count;
    return s;
  }

  // --- live-domain registry --------------------------------------------------

  static std::uint64_t next_domain_id() {
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  struct domain_registry {
    std::mutex mu;
    std::unordered_set<std::uint64_t> ids;
  };

  static domain_registry& live_registry() {
    static domain_registry r;
    return r;
  }

  detail::ebr_slot& acquire_slot() {
    for (std::size_t i = 0; i < kMaxThreads; ++i) {
      bool expected = false;
      if (!slots_[i].in_use.load(std::memory_order_relaxed) &&
          slots_[i].in_use.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel)) {
        // Grow the scan window to cover this slot.
        std::size_t hw = high_water_.load(std::memory_order_relaxed);
        while (hw < i + 1 && !high_water_.compare_exchange_weak(
                                 hw, i + 1, std::memory_order_acq_rel)) {
        }
        return slots_[i];
      }
    }
    throw std::length_error(
        "ebr_domain: more than kMaxThreads concurrent threads");
  }

  /// Thread-exit hook: unpin and return every held slot.  Limbo blocks stay
  /// in their slots; the next owner (or the domain destructor) reclaims them
  /// once the grace period allows.
  struct tls_registry {
    static constexpr std::size_t kCapacity = 8;
    struct entry {
      ebr_domain* domain = nullptr;
      std::uint64_t domain_id = 0;
      detail::ebr_slot* slot = nullptr;
    };
    entry entries[kCapacity];
    std::size_t count = 0;

    ~tls_registry() {
      // Release slots only for domains that are still alive; holding the
      // registry mutex across the slot writes keeps the release ordered
      // before any subsequent domain destruction.
      std::lock_guard<std::mutex> g(live_registry().mu);
      for (std::size_t i = 0; i < count; ++i) {
        if (live_registry().ids.count(entries[i].domain_id) == 0) continue;
        detail::ebr_slot* s = entries[i].slot;
        s->depth = 0;
        s->epoch.store(detail::ebr_slot::kQuiescent,
                       std::memory_order_release);
        // A pending eviction request stays behind; the next owner's first
        // pin() clears it.
        s->in_use.store(false, std::memory_order_release);
      }
    }
  };

  // --- epoch machinery -------------------------------------------------------

  void pin(detail::ebr_slot& s) {
    if (s.depth++ > 0) return;  // re-entrant guard
    // A previous owner (or a stale eviction request against us while
    // quiescent) may have left flags behind; clear them before publishing
    // so a fresh pin never starts life evicted.
    if (s.flags.load(std::memory_order_relaxed) != 0) {
      s.flags.exchange(0, std::memory_order_acq_rel);
    }
    std::uint64_t g = global_epoch_.load(std::memory_order_relaxed);
    for (;;) {
      LFST_FP_POINT("ebr.pin");
      s.epoch.store(g, std::memory_order_relaxed);
      // The fence orders the epoch publication before any structure read,
      // and pairs with the advancer's seq_cst accesses: an advancer that
      // misses our publication must itself have advanced before we started
      // reading, which keeps our pinned epoch within one of the global.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::uint64_t g2 = global_epoch_.load(std::memory_order_seq_cst);
      if (g2 == g) break;
      g = g2;
    }
    s.pinned = g;
    // Nothing expires while the epoch stands still, so a slot that already
    // collected at `g` has nothing to free.
    if (g != s.collected_epoch) collect(s, g);
  }

  void unpin(detail::ebr_slot& s) {
    assert(s.depth > 0);
    if (--s.depth == 0) {
      s.epoch.store(detail::ebr_slot::kQuiescent, std::memory_order_release);
    }
  }

  /// Cooperative-eviction safe point (called via guard::check()).  Fast
  /// path is one relaxed load of the slot's own cache line.  On a pending
  /// request with no nested guards, republish a fresh epoch and tell the
  /// caller to restart: every pointer it read under the old pin is invalid.
  bool maybe_self_evict(detail::ebr_slot& s) {
    if (s.flags.load(std::memory_order_relaxed) == 0) return false;
    if (s.depth != 1) return false;  // outermost guard owns the restart
    s.flags.exchange(0, std::memory_order_acq_rel);
    std::uint64_t g = global_epoch_.load(std::memory_order_relaxed);
    for (;;) {
      s.epoch.store(g, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::uint64_t g2 = global_epoch_.load(std::memory_order_seq_cst);
      if (g2 == g) break;
      g = g2;
    }
    s.pinned = g;
    return true;
  }

  /// Advance the global epoch if every pinned thread has observed it.  A
  /// lagging slot always blocks: only its owner can move it forward.  The
  /// same scan sums the slots' limbo bytes into the high-water mark.
  bool try_advance() {
    LFST_T_SPAN(::lfst::trace::sid::ebr_advance);
    LFST_FP_POINT("ebr.advance");
    const std::uint64_t g = global_epoch_.load(std::memory_order_seq_cst);
    const std::size_t n = high_water_.load(std::memory_order_acquire);
    bool lagging = false;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t e =
          slots_[i].epoch.load(std::memory_order_seq_cst);
      if (e != detail::ebr_slot::kQuiescent && e != g) lagging = true;
      bytes += slots_[i].limbo_bytes.load(std::memory_order_relaxed);
    }
    raise_hwm(bytes);
    if (lagging) return false;
    std::uint64_t expected = g;
    if (global_epoch_.compare_exchange_strong(expected, g + 1,
                                              std::memory_order_seq_cst)) {
      LFST_T_EVENT(::lfst::trace::sid::ebr_new_epoch, g + 1);
    }
    return true;  // advanced, or somebody else did
  }

  /// Put `b` in the bucket for epoch `e`, first reclaiming any stale
  /// generation occupying that bucket (it is at least three epochs old, so
  /// its grace period has long expired).  Caller holds s.limbo_lock.
  void stash(detail::ebr_slot& s, std::uint64_t e, retired_block b) {
    const int bucket = static_cast<int>(e % 3);
    if (s.limbo_epoch[bucket] != e) {
      if (!s.limbo[bucket].empty()) s.reclaim_bucket(bucket);
      s.limbo_epoch[bucket] = e;
    }
    s.limbo[bucket].push(b);
    s.count_retired(b.bytes);
  }

  /// Reclaim this thread's buckets whose grace period has elapsed by global
  /// epoch `g`, and remember `g` as the slot's last collection.
  void collect(detail::ebr_slot& s, std::uint64_t g) {
    s.collected_epoch = g;
    s.lock_limbo();
    for (int b = 0; b < 3; ++b) {
      if (!s.limbo[b].empty() && s.limbo_epoch[b] + 2 <= g) {
        s.reclaim_bucket(b);
      }
    }
    s.unlock_limbo();
  }

  /// Raise the byte high-water mark to `bytes`; returns the new mark.
  std::size_t raise_hwm(std::size_t bytes) const noexcept {
    std::size_t hwm = limbo_bytes_hwm_.load(std::memory_order_relaxed);
    while (hwm < bytes && !limbo_bytes_hwm_.compare_exchange_weak(
                              hwm, bytes, std::memory_order_relaxed)) {
    }
    return hwm < bytes ? bytes : hwm;
  }

  // Every pin reads the global epoch and every guard reads `id_`; the line
  // holding them changes once per epoch, and nothing the hot path writes
  // shares it.  The high-water mark, raised at advance attempts, gets a
  // line of its own.
  alignas(kFalseSharingRange) std::atomic<std::uint64_t> global_epoch_{1};
  std::atomic<std::size_t> high_water_{0};
  const std::uint64_t id_;
  alignas(kFalseSharingRange) mutable std::atomic<std::size_t>
      limbo_bytes_hwm_{0};

  detail::ebr_slot slots_[kMaxThreads];

  friend class guard;

 public:
  /// RAII epoch pin.  All reads of a protected structure, and all retire()
  /// calls, must happen inside a guard's lifetime.
  class guard {
   public:
    explicit guard(ebr_domain& d) : domain_(d), slot_(d.my_slot()) {
      domain_.pin(slot_);
    }
    ~guard() { domain_.unpin(slot_); }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    /// Cooperative-eviction safe point.  Returns true when the watchdog
    /// asked this reader to move: the pin has been republished at the
    /// current epoch and EVERY pointer read before the call is invalid --
    /// the caller must restart its traversal from a root.  One relaxed
    /// load on the slot's own cache line when no request is pending.
    bool check() noexcept { return domain_.maybe_self_evict(slot_); }

   private:
    ebr_domain& domain_;
    detail::ebr_slot& slot_;
  };
};

/// Reclamation policy adapter used by the data structures: EBR flavour.
struct ebr_policy {
  using domain_type = ebr_domain;
  using guard_type = ebr_domain::guard;

  static domain_type& default_domain() { return ebr_domain::global(); }

  template <typename T>
  static void retire(domain_type& d, T* p) {
    d.retire(p);
  }
  static void retire(domain_type& d, retired_block b) { d.retire(b); }
  static void quiescent_flush(domain_type& d) { d.flush(); }
};

}  // namespace lfst::reclaim
