// Binary serialization for skip-trees with trivially-copyable keys.
//
// The format is deliberately structure-free: a header plus the sorted key
// stream.  Loading bulk-builds an OPTIMAL tree (see skip_tree::from_sorted),
// so a save/load round trip doubles as offline compaction -- whatever
// empty nodes and suboptimal references the source tree had accumulated are
// gone in the loaded copy.
//
// Version 2 (current) appends a CRC32C over everything before it, so load()
// rejects truncated and bit-flipped files with a precise error instead of
// constructing a garbage tree -- the property the storage layer's
// checkpoint validation (src/storage/checkpoint.hpp) leans on:
//
//   [magic u64][version u32][q_log2 u32][count u64][keys...][crc32c u32]
//
// Version 1 files (no trailing CRC) are still readable; new files are
// always written as v2.  The key stream is additionally required to be
// strictly ascending on load, because from_sorted's contract is sorted,
// duplicate-free input -- a file that passes its CRC but is unsorted is a
// writer bug, and rejecting it here turns silent structural corruption into
// a clear error.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/crc32c.hpp"
#include "skiptree/skip_tree.hpp"

namespace lfst::skiptree {

inline constexpr std::uint64_t kSerializeMagic = 0x4c46535454524545ull;  // "LFSTTREE"
inline constexpr std::uint32_t kSerializeVersion = 2;
inline constexpr std::uint32_t kSerializeVersionLegacy = 1;

namespace serialize_detail {

/// Read exactly `len` bytes or throw with `what` naming the short field.
inline void read_exact(std::istream& in, void* dst, std::size_t len,
                       const char* what) {
  in.read(static_cast<char*>(dst), static_cast<std::streamsize>(len));
  if (static_cast<std::size_t>(in.gcount()) != len) {
    throw std::runtime_error(std::string("skiptree::load: truncated ") + what);
  }
}

}  // namespace serialize_detail

/// Keys + the tree parameter the stream carried; what `load_keys` returns
/// and the checkpoint reader consumes directly (recovery replays a WAL tail
/// onto the key set before any tree is built).
template <typename T>
struct loaded_keys {
  std::vector<T> keys;  ///< strictly ascending
  int q_log2 = 0;
};

/// Write `keys` (must be sorted ascending, duplicate-free) as a v2 stream.
template <typename T>
void save_keys(std::span<const T> keys, int q_log2, std::ostream& out) {
  static_assert(std::is_trivially_copyable_v<T>,
                "binary serialization requires trivially copyable keys");
  const std::uint64_t magic = kSerializeMagic;
  const std::uint32_t version = kSerializeVersion;
  const std::uint32_t q = static_cast<std::uint32_t>(q_log2);
  const std::uint64_t count = keys.size();

  crc::crc32c crc;
  auto put = [&](const void* p, std::size_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    crc.update(p, n);
  };
  put(&magic, sizeof(magic));
  put(&version, sizeof(version));
  put(&q, sizeof(q));
  put(&count, sizeof(count));
  if (!keys.empty()) put(keys.data(), keys.size() * sizeof(T));
  const std::uint32_t sum = crc.value();
  out.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
  if (!out) throw std::runtime_error("skiptree::save: stream write failed");
}

/// Streaming v2 writer: byte-identical output to save_keys without ever
/// materializing the key set.  The count field sits BEFORE the key stream
/// and is only known at the end, so the writer (a) leaves a placeholder
/// and seeks back to patch it -- `out` must therefore be seekable (a file
/// stream; checkpoint.hpp's use) -- and (b) CRCs the prefix (header +
/// count) and the key stream separately, joining them at finish() with
/// crc::crc32c_combine.  Usage:
///
///   key_stream_writer<T> w(q_log2, out);
///   tree.for_each([&](const T& k) { w.push(k); });
///   w.finish();
///
/// Keys buffer in 64 KiB batches, so peak memory is flat in the tree size
/// (the checkpoint satellite's whole point).
template <typename T>
class key_stream_writer {
  static_assert(std::is_trivially_copyable_v<T>,
                "binary serialization requires trivially copyable keys");

 public:
  key_stream_writer(int q_log2, std::ostream& out) : out_(out) {
    const std::uint64_t magic = kSerializeMagic;
    const std::uint32_t version = kSerializeVersion;
    const std::uint32_t q = static_cast<std::uint32_t>(q_log2);
    auto put = [&](const void* p, std::size_t n) {
      out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
      prefix_crc_.update(p, n);
    };
    put(&magic, sizeof(magic));
    put(&version, sizeof(version));
    put(&q, sizeof(q));
    count_pos_ = out_.tellp();
    const std::uint64_t placeholder = 0;  // patched by finish()
    out_.write(reinterpret_cast<const char*>(&placeholder),
               sizeof(placeholder));
    buf_.reserve(kBufKeys);
  }

  key_stream_writer(const key_stream_writer&) = delete;
  key_stream_writer& operator=(const key_stream_writer&) = delete;

  void push(const T& k) {
    buf_.push_back(k);
    ++count_;
    if (buf_.size() >= kBufKeys) flush_buf();
  }

  std::uint64_t count() const noexcept { return count_; }

  /// Patch the count, write the combined CRC.  Call exactly once.
  void finish() {
    flush_buf();
    out_.seekp(count_pos_);
    out_.write(reinterpret_cast<const char*>(&count_), sizeof(count_));
    out_.seekp(0, std::ios::end);
    prefix_crc_.update(&count_, sizeof(count_));
    const std::uint32_t sum = crc::crc32c_combine(
        prefix_crc_.value(), keys_crc_.value(), key_bytes_);
    out_.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
    if (!out_) throw std::runtime_error("skiptree::save: stream write failed");
  }

 private:
  static constexpr std::size_t kBufKeys =
      (std::size_t{64} << 10) / sizeof(T) + 1;

  void flush_buf() {
    if (buf_.empty()) return;
    const std::size_t n = buf_.size() * sizeof(T);
    out_.write(reinterpret_cast<const char*>(buf_.data()),
               static_cast<std::streamsize>(n));
    keys_crc_.update(buf_.data(), n);
    key_bytes_ += n;
    buf_.clear();
  }

  std::ostream& out_;
  std::ostream::pos_type count_pos_;
  std::vector<T> buf_;
  std::uint64_t count_ = 0;
  std::uint64_t key_bytes_ = 0;
  crc::crc32c prefix_crc_;  // magic + version + q_log2 (+ count at finish)
  crc::crc32c keys_crc_;    // the key stream
};

/// Parse a stream written by save_keys (v2) or the legacy v1 writer.
/// Throws with a field-precise message on truncation, on checksum mismatch,
/// and on an unsorted key stream.  The key payload is read in bounded
/// chunks so a bit-flipped count cannot provoke a huge up-front allocation:
/// the vector grows only as far as bytes actually arrive.
template <typename T>
loaded_keys<T> load_keys(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>,
                "binary serialization requires trivially copyable keys");
  using serialize_detail::read_exact;

  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t q_log2 = 0;
  std::uint64_t count = 0;
  crc::crc32c crc;
  auto get = [&](void* p, std::size_t n, const char* what) {
    read_exact(in, p, n, what);
    crc.update(p, n);
  };
  get(&magic, sizeof(magic), "magic");
  if (magic != kSerializeMagic) {
    throw std::runtime_error("skiptree::load: bad magic");
  }
  get(&version, sizeof(version), "version");
  if (version != kSerializeVersion && version != kSerializeVersionLegacy) {
    throw std::runtime_error("skiptree::load: unsupported version");
  }
  get(&q_log2, sizeof(q_log2), "q_log2");
  get(&count, sizeof(count), "count");

  loaded_keys<T> out;
  out.q_log2 = static_cast<int>(q_log2);
  // Chunked key read: at most 64 KiB of keys at a time.
  constexpr std::uint64_t kChunkKeys =
      (std::uint64_t{64} << 10) / sizeof(T) + 1;
  std::uint64_t remaining = count;
  while (remaining > 0) {
    const std::uint64_t batch = std::min(remaining, kChunkKeys);
    const std::size_t old = out.keys.size();
    out.keys.resize(old + static_cast<std::size_t>(batch));
    get(out.keys.data() + old, static_cast<std::size_t>(batch) * sizeof(T),
        "key stream");
    remaining -= batch;
  }
  if (version == kSerializeVersion) {
    const std::uint32_t expect = crc.value();
    std::uint32_t stored = 0;
    read_exact(in, &stored, sizeof(stored), "checksum");
    if (stored != expect) {
      throw std::runtime_error(
          "skiptree::load: checksum mismatch (corrupt file)");
    }
  }
  return out;
}

/// Write the tree's keys (ascending) to `out`.  Quiescent callers get an
/// exact image; concurrent callers get a weakly-consistent one.
template <typename T, typename Compare, typename Reclaim, typename Alloc>
void save(const skip_tree<T, Compare, Reclaim, Alloc>& tree,
          std::ostream& out) {
  std::vector<T> keys;
  keys.reserve(tree.size());
  tree.for_each([&](const T& k) { keys.push_back(k); });
  save_keys(std::span<const T>(keys), tree.options().q_log2, out);
}

/// Load a tree previously written by save().  The stored q is used unless
/// `opts_override` is provided.  The result is bulk-built optimal.
template <typename T, typename Compare = std::less<T>,
          typename Reclaim = reclaim::ebr_policy,
          typename Alloc = lfst::alloc::pool_policy>
skip_tree<T, Compare, Reclaim, Alloc> load(
    std::istream& in, const skip_tree_options* opts_override = nullptr,
    typename Reclaim::domain_type& domain = Reclaim::default_domain()) {
  loaded_keys<T> lk = load_keys<T>(in);
  // from_sorted requires strictly ascending input; enforce under the
  // caller's comparator so an equivalence-class violation is caught too.
  Compare cmp{};
  for (std::size_t i = 1; i < lk.keys.size(); ++i) {
    if (!cmp(lk.keys[i - 1], lk.keys[i])) {
      throw std::runtime_error(
          "skiptree::load: key stream not strictly ascending");
    }
  }
  skip_tree_options opts;
  if (opts_override != nullptr) {
    opts = *opts_override;
  } else {
    opts.q_log2 = lk.q_log2;
  }
  return skip_tree<T, Compare, Reclaim, Alloc>::from_sorted(
      std::span<const T>(lk.keys), opts, domain);
}

}  // namespace lfst::skiptree
