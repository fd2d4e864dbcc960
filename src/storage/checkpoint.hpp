// Fuzzy checkpoints over a live skip-tree + WAL pair.
//
// A checkpoint bounds recovery time: instead of replaying the log from LSN
// 1, recovery loads the newest valid checkpoint image and replays only the
// WAL tail past its stamp.  The protocol here is the classic fuzzy
// checkpoint, adapted to the tree's weakly-consistent iteration:
//
//   1. rotate() the WAL.  This seals the active segment after some LSN L
//      (everything <= L is in closed segments, everything > L in the new
//      one) and fsyncs it.  L is the checkpoint stamp.
//   2. iterate the tree (weakly consistent -- concurrent mutators keep
//      running) into a sorted key vector.
//   3. write the image with serialize::save_keys into ckpt-<L>.ckpt.tmp,
//      fsync the file, rename over ckpt-<L>.ckpt, fsync the directory.
//   4. prune: keep the newest `keep` checkpoints, then delete every closed
//      WAL segment whose records are all <= the OLDEST retained stamp.
//
// Why stamping with L is safe given a fuzzy snapshot: the durable facade
// applies to the tree FIRST and appends to the WAL second.  An operation
// the iteration missed must have applied after the scan passed its key,
// hence appended after the rotate, hence has LSN > L -- replay supplies
// it.  An operation the iteration caught but whose LSN is also > L gets
// re-applied by replay; add/remove/put are idempotent set updates, so
// re-application converges to the same state.  (Per key, replay in LSN
// order makes the last logged write win, matching the WAL linearization.)
//
// Why prune keeps >= 2 checkpoints: recovery falls back to the previous
// checkpoint when the newest is torn or bit-flipped (the crash window is
// step 3), and the segment-pruning rule above guarantees the fallback's
// replay tail still exists.  The active segment is never deleted.
//
// Failpoint sites: storage.checkpoint.begin / .write / .fsync / .rename /
// .prune -- one kill point per distinct crash window.
#pragma once

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/telemetry.hpp"
#include "common/trace.hpp"
#include "skiptree/serialize.hpp"
#include "storage/wal.hpp"

namespace lfst::storage {

struct checkpoint_result {
  lsn_t cp_lsn = 0;            ///< stamp L of the checkpoint written
  std::uint64_t keys = 0;      ///< keys in the image
  std::uint64_t pruned_checkpoints = 0;
  std::uint64_t pruned_segments = 0;
  double duration_us = 0.0;    ///< rotate -> prune, wall clock
};

namespace detail {

/// All checkpoint files in `dir`, stamp-ascending.
inline std::vector<std::pair<lsn_t, std::filesystem::path>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<lsn_t, std::filesystem::path>> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    lsn_t stamp = 0;
    if (e.is_regular_file() &&
        parse_checkpoint_filename(e.path().filename().string(), stamp)) {
      out.emplace_back(stamp, e.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// All WAL segments in `dir`, first-LSN-ascending.
inline std::vector<std::pair<lsn_t, std::filesystem::path>> list_segments(
    const std::string& dir) {
  std::vector<std::pair<lsn_t, std::filesystem::path>> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    lsn_t first = 0;
    if (e.is_regular_file() &&
        parse_segment_filename(e.path().filename().string(), first)) {
      out.emplace_back(first, e.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// fsync an already-written file by path (stdio streams were closed first).
inline void fsync_path(const std::filesystem::path& p) {
  if (std::FILE* f = std::fopen(p.string().c_str(), "rb")) {
    ::fsync(::fileno(f));
    std::fclose(f);
  }
}

}  // namespace detail

/// Delete all but the newest `keep` checkpoints, then every WAL segment
/// fully covered by the oldest retained checkpoint.  Returns {checkpoints,
/// segments} deleted.  Shared by the checkpoint writer and recovery repair.
inline std::pair<std::uint64_t, std::uint64_t> prune_storage_dir(
    const std::string& dir, std::size_t keep) {
  LFST_FP_POINT("storage.checkpoint.prune");
  std::uint64_t cp_gone = 0;
  std::uint64_t seg_gone = 0;
  auto cps = detail::list_checkpoints(dir);
  while (cps.size() > keep) {
    std::filesystem::remove(cps.front().second);
    cps.erase(cps.begin());
    ++cp_gone;
  }
  if (cps.empty()) return {cp_gone, seg_gone};
  const lsn_t oldest_stamp = cps.front().first;
  // Segment i holds LSNs [first_i, first_{i+1} - 1]; it is dead iff
  // first_{i+1} - 1 <= oldest_stamp.  The last segment (active) stays.
  auto segs = detail::list_segments(dir);
  for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
    if (segs[i + 1].first - 1 <= oldest_stamp) {
      std::filesystem::remove(segs[i].second);
      ++seg_gone;
    }
  }
  if (cp_gone > 0 || seg_gone > 0) fsync_directory(dir);
  return {cp_gone, seg_gone};
}

/// Take a checkpoint of `tree` (any container exposing for_each(fn) over
/// ascending keys) against `log`.  `q_log2` is stamped into the image so a
/// recovered tree is rebuilt with the same branching parameter.
///
/// Keys STREAM from for_each straight into the serializer
/// (skiptree::key_stream_writer), so peak memory stays flat in the tree
/// size -- a billion-key checkpoint buffers 64 KiB, not the whole vector.
/// The tmp file is open across the iteration; a crash mid-stream leaves a
/// torn .tmp, which recovery already deletes.
template <typename T, typename Tree>
checkpoint_result write_checkpoint(const Tree& tree, int q_log2, wal& log,
                                   std::size_t keep = 2) {
  LFST_T_SPAN(::lfst::trace::sid::storage_checkpoint);
  LFST_FP_POINT("storage.checkpoint.begin");
  const std::uint64_t t0 = metrics::tsc_now();
  const auto wall0 = std::chrono::steady_clock::now();
  checkpoint_result out;
  out.cp_lsn = log.rotate();

  const std::string& dir = log.directory();
  const std::filesystem::path final_path =
      std::filesystem::path(dir) / checkpoint_filename(out.cp_lsn);
  const std::filesystem::path tmp_path = final_path.string() + ".tmp";

  {
    std::ofstream f(tmp_path, std::ios::binary | std::ios::trunc);
    if (!f) {
      throw std::runtime_error("checkpoint: cannot create " +
                               tmp_path.string());
    }
    LFST_FP_POINT("storage.checkpoint.write");
    skiptree::key_stream_writer<T> writer(q_log2, f);
    tree.for_each([&](const T& k) { writer.push(k); });
    writer.finish();
    out.keys = writer.count();
  }
  LFST_FP_POINT("storage.checkpoint.fsync");
  detail::fsync_path(tmp_path);
  LFST_FP_POINT("storage.checkpoint.rename");
  std::filesystem::rename(tmp_path, final_path);
  fsync_directory(dir);

  const auto [cps, segs] = prune_storage_dir(dir, keep);
  out.pruned_checkpoints = cps;
  out.pruned_segments = segs;
  out.duration_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - wall0)
                        .count();
  LFST_TEL_RECORD(::lfst::telemetry::skid::checkpoint,
                  metrics::tsc_now() - t0);
  return out;
}

}  // namespace lfst::storage
