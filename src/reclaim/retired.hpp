// Type-erased retired-object records shared by the reclamation schemes.
#pragma once

#include <cstddef>
#include <vector>

namespace lfst::reclaim {

/// One object awaiting reclamation: a pointer, its type-erased deleter, and
/// the block's heap footprint.  `bytes` feeds the limbo accounting that the
/// footprint gauges are built on; a zero means
/// "unknown" and simply contributes nothing to the byte totals (the block
/// itself is still counted and reclaimed normally).
struct retired_block {
  void* ptr = nullptr;
  void (*deleter)(void*) = nullptr;
  std::size_t bytes = 0;

  void reclaim() const { deleter(ptr); }
};

/// Deleter for objects allocated with plain `new`.
template <typename T>
void delete_of(void* p) {
  delete static_cast<T*>(p);
}

/// A batch of retired blocks; owner-thread-only, so plain vector.  Tracks
/// the exact byte footprint alongside the block count so callers can keep
/// domain-wide accounting without walking the list.
class retired_list {
 public:
  void push(retired_block b) {
    blocks_.push_back(b);
    bytes_ += b.bytes;
  }

  std::size_t size() const noexcept { return blocks_.size(); }
  bool empty() const noexcept { return blocks_.empty(); }

  /// Sum of the `bytes` fields of every pending block.
  std::size_t bytes() const noexcept { return bytes_; }

  /// Reclaim every block and clear the list.
  void reclaim_all() {
    for (const retired_block& b : blocks_) b.reclaim();
    blocks_.clear();
    bytes_ = 0;
  }

 private:
  std::vector<retired_block> blocks_;
  std::size_t bytes_ = 0;
};

}  // namespace lfst::reclaim
