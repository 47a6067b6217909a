// Cold tier of the two-level KV page store: a slot file of serialized
// pages, mmap-backed, the CPU analog of GPU→host KV offload.
//
// The hot tier is the PageAllocator's RAM pool; when the pool runs over
// its hot budget, cold pages are serialized into a fixed-size slot here
// and their in-RAM storage is dropped. Slots live in an *unlinked* temp
// file grown in extents and mapped on demand (so spilled pages cost file
// pages the OS can write back, not anonymous RSS); when no writable temp
// directory exists (sandboxed CI), the store falls back to anonymous
// mappings and still honors the same byte cap.
//
// Thread safety: every operation takes the store's mutex. Slot payload
// copies also happen under it — a slot is only ever touched by the single
// tier transition (demote/promote) that owns it, and payloads are tens of
// kilobytes, so a short critical section beats a per-slot ownership
// protocol.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/thread_annotations.hpp"

namespace lserve::kv {

/// Identifies a slot inside a ColdStore.
using ColdSlotId = std::uint32_t;
inline constexpr ColdSlotId kInvalidColdSlot = static_cast<ColdSlotId>(-1);

/// Fixed-slot spill file with O(1) store/load/release.
class ColdStore {
 public:
  /// `slot_bytes` is the serialized page footprint (Page::
  /// serialized_bytes_for); `max_bytes` caps the tier (0 = unbounded).
  ColdStore(std::size_t slot_bytes, std::size_t max_bytes);
  ~ColdStore();

  ColdStore(const ColdStore&) = delete;
  ColdStore& operator=(const ColdStore&) = delete;

  /// Copies slot_bytes() from `data` into a fresh slot. Returns
  /// kInvalidColdSlot when the byte cap would be exceeded.
  ColdSlotId store(const std::uint8_t* data) noexcept;

  /// Copies slot `id` into `out` (the slot stays valid until release()).
  void load(ColdSlotId id, std::uint8_t* out) const noexcept;

  /// Returns slot `id` to the free list.
  void release(ColdSlotId id) noexcept;

  std::size_t slot_bytes() const noexcept { return slot_bytes_; }
  std::size_t max_bytes() const noexcept { return max_bytes_; }
  std::size_t slots_in_use() const noexcept;
  std::size_t bytes_in_use() const noexcept;

 private:
  /// One mapped run of kExtentSlots slots.
  struct Extent {
    std::uint8_t* base = nullptr;
    std::size_t bytes = 0;
  };
  static constexpr std::size_t kExtentSlots = 64;

  /// Grows the file (or maps anonymous memory) by one extent and pushes
  /// its slots onto the free list. Returns false if mapping failed.
  bool add_extent_locked() REQUIRES(mu_);
  std::uint8_t* slot_ptr(ColdSlotId id) const REQUIRES(mu_);

  std::size_t slot_bytes_;
  std::size_t max_bytes_;
  int fd_ = -1;  ///< unlinked spill file; -1 = anonymous fallback.

  mutable Mutex mu_;
  std::vector<Extent> extents_ GUARDED_BY(mu_);
  std::vector<ColdSlotId> free_slots_ GUARDED_BY(mu_);  ///< LIFO.
  std::size_t total_slots_ GUARDED_BY(mu_) = 0;
  std::size_t in_use_ GUARDED_BY(mu_) = 0;
};

}  // namespace lserve::kv
