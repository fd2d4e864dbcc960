// Crash recovery: newest valid checkpoint + WAL tail replay.
//
// The durable directory after a crash contains, in the general case:
//
//   ckpt-A.ckpt  ckpt-B.ckpt      (A < B; B possibly torn/bit-flipped)
//   ckpt-*.ckpt.tmp               (a checkpoint that never renamed)
//   wal-1.log ... wal-K.log       (the last possibly with a torn tail)
//
// recover() walks backwards through the checkpoints until one passes its
// CRC (serialize::load_keys validates the whole image), loads its key set,
// then replays every WAL record with lsn > cp_lsn in segment order,
// applying add/remove/put onto a std::map keyed by Compare (last write in
// LSN order wins -- the WAL linearization).  Replay stops cleanly at the
// first torn record (short read, CRC mismatch, LSN gap, oversize length);
// since the WAL writes records in contiguous LSN order and acks only after
// fsync, everything acknowledged durable is before that stop point.
//
// With repair=true (the default for real opens; the crash harness's
// read-only validation pass uses false) recovery also makes the directory
// safe to append to again:
//   - the torn tail of the last replayable segment is truncated away, so
//     the next recovery does not stop earlier than this one did;
//   - segments AFTER a mid-chain tear are unreachable (their records are
//     beyond an LSN gap) and are deleted;
//   - invalid checkpoints (torn newest, orphan .tmp) are deleted.
//
// Failure tolerance is asymmetric by design: a torn WAL TAIL or torn
// NEWEST checkpoint is expected crash damage and handled silently; a
// checkpoint older than the newest failing validation, or a mid-chain
// segment tear, means something other than a clean crash happened, and is
// still handled (fall back further / stop replay there) but reported in
// the result so callers can alert.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "skiptree/serialize.hpp"
#include "storage/checkpoint.hpp"
#include "storage/wal.hpp"

namespace lfst::storage {

template <typename T>
struct recovery_result {
  std::vector<T> keys;   ///< recovered state, sorted ascending, unique
  int q_log2 = 0;        ///< branching parameter from the checkpoint (0 = none)
  lsn_t cp_lsn = 0;      ///< stamp of the checkpoint used (0 = none)
  lsn_t last_lsn = 0;    ///< highest LSN recovered; reopen the WAL at +1
  std::uint64_t replayed = 0;             ///< WAL records applied
  std::uint64_t segments_scanned = 0;
  std::uint64_t checkpoints_skipped = 0;  ///< invalid checkpoints passed over
  bool torn_tail = false;  ///< last segment ended in a torn/corrupt record
  bool empty_dir = false;  ///< nothing recovered; directory was fresh
  // Phase timings (wall clock).  Recovery runs cold, before the telemetry
  // plane has anything to sample, so the result carries them directly;
  // durable_tree surfaces them in its recovery stats.
  double us_checkpoint_load = 0.0;  ///< choose + validate + load the image
  double us_replay = 0.0;           ///< scan segments, apply the tail
  double us_repair = 0.0;           ///< truncate/delete damaged files
  double us_total = 0.0;            ///< whole recover() call
};

/// Recover the durable key set from `dir`.  `Compare` must match the
/// comparator the tree will be built with (replay resolves equivalent keys
/// through it).  With `repair`, the directory is additionally scrubbed so a
/// WAL can be reopened at last_lsn + 1 (see header comment).
template <typename T, typename Compare = std::less<T>>
recovery_result<T> recover(const std::string& dir, bool repair = true) {
  static_assert(std::is_trivially_copyable_v<T>,
                "durable storage requires trivially copyable keys");
  LFST_T_SPAN(::lfst::trace::sid::storage_replay);
  recovery_result<T> out;
  std::filesystem::create_directories(dir);
  using clock = std::chrono::steady_clock;
  const auto phase_us = [](clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  const auto t_start = clock::now();

  // --- choose the newest checkpoint that validates ------------------------
  auto cps = detail::list_checkpoints(dir);
  skiptree::loaded_keys<T> base;
  std::vector<std::filesystem::path> bad_cps;
  for (auto it = cps.rbegin(); it != cps.rend(); ++it) {
    std::ifstream f(it->second, std::ios::binary);
    try {
      base = skiptree::load_keys<T>(f);
      out.cp_lsn = it->first;
      break;
    } catch (const std::exception&) {
      ++out.checkpoints_skipped;
      bad_cps.push_back(it->second);
      base = skiptree::loaded_keys<T>{};
    }
  }
  out.q_log2 = base.q_log2;
  const auto t_loaded = clock::now();
  out.us_checkpoint_load = phase_us(t_start, t_loaded);

  // --- replay the WAL tail ------------------------------------------------
  // std::map under Compare: replay must merge equivalent keys exactly the
  // way the tree's comparator does, and keep the last-logged value.
  std::map<T, bool, Compare> state;  // true = present
  auto apply = [&](lsn_t, wal_op op, const void* payload, std::size_t len) {
    if (len != sizeof(T)) return;  // CRC passed but shape is wrong: skip
    T key;
    std::memcpy(&key, payload, sizeof(T));
    // erase-then-insert, NOT insert_or_assign: the map key itself carries
    // the logged representation (for struct keys compared by one field,
    // the other fields are the value), and insert_or_assign would keep the
    // FIRST equivalent key forever instead of the last-logged one.
    state.erase(key);
    switch (op) {
      case wal_op::add:
      case wal_op::put:
        state.emplace(std::move(key), true);
        break;
      case wal_op::remove:
        state.emplace(std::move(key), false);
        break;
    }
  };

  auto segs = detail::list_segments(dir);
  out.last_lsn = out.cp_lsn;
  bool stopped = false;  // a tear ends replay; later segments are unreachable
  std::filesystem::path torn_seg;
  std::uint64_t torn_valid_bytes = 0;
  std::vector<std::filesystem::path> dead_segs;
  for (const auto& [first, path] : segs) {
    if (stopped) {
      dead_segs.push_back(path);
      continue;
    }
    // A fully-pruned-away range: segment entirely <= checkpoint still
    // scans cheaply (records are skipped by LSN), so no special case.
    const segment_scan scan = scan_segment(
        path.string(), out.cp_lsn,
        [&](lsn_t lsn, wal_op op, const void* p, std::size_t n) {
          apply(lsn, op, p, n);
          out.last_lsn = lsn;
          ++out.replayed;
        });
    ++out.segments_scanned;
    if (!scan.header_ok) {
      // Unreadable header: treat like a tear at offset zero.
      stopped = true;
      out.torn_tail = true;
      dead_segs.push_back(path);
      continue;
    }
    if (scan.last_lsn > out.last_lsn && scan.last_lsn > out.cp_lsn) {
      out.last_lsn = scan.last_lsn;
    }
    if (scan.torn) {
      stopped = true;
      out.torn_tail = true;
      torn_seg = path;
      torn_valid_bytes = scan.valid_bytes;
    }
  }

  for (const auto& [key, present] : state) {
    if (present) {
      auto it = std::lower_bound(base.keys.begin(), base.keys.end(), key,
                                 Compare{});
      if (it == base.keys.end() || Compare{}(key, *it)) {
        base.keys.insert(it, key);
      } else {
        *it = key;  // equivalent key: last-logged representation wins
      }
    } else {
      auto it = std::lower_bound(base.keys.begin(), base.keys.end(), key,
                                 Compare{});
      if (it != base.keys.end() && !Compare{}(key, *it)) {
        base.keys.erase(it);
      }
    }
  }
  out.keys = std::move(base.keys);
  out.empty_dir = out.cp_lsn == 0 && out.replayed == 0 && segs.empty();
  const auto t_replayed = clock::now();
  out.us_replay = phase_us(t_loaded, t_replayed);

  // --- repair -------------------------------------------------------------
  if (repair) {
    LFST_FP_POINT("storage.recovery.repair");
    for (const auto& p : bad_cps) std::filesystem::remove(p);
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().extension() == ".tmp") std::filesystem::remove(e.path());
    }
    if (!torn_seg.empty()) {
      // Truncate the torn tail so the segment ends on a record boundary.
      std::filesystem::resize_file(torn_seg, torn_valid_bytes);
    }
    for (const auto& p : dead_segs) std::filesystem::remove(p);
    if (!bad_cps.empty() || !dead_segs.empty() || !torn_seg.empty()) {
      fsync_directory(dir);
    }
  }
  const auto t_end = clock::now();
  out.us_repair = phase_us(t_replayed, t_end);
  out.us_total = phase_us(t_start, t_end);
  return out;
}

}  // namespace lfst::storage
