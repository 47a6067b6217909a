// Pool allocator for physical KV pages, with an optional two-tier store.
//
// Mirrors vLLM's block manager: a fixed-capacity pool of uniform pages plus
// a LIFO free list. Sequences hold PageIds, never pointers, so page tables
// stay trivially copyable — the property that makes selector output ("a
// shorter page table") cheap to build every decode step.
//
// Two-tier mode (TierConfig::hot_pages > 0) adds a bounded hot pool and a
// cold tier: when more than hot_pages live pages are resident, the
// coldest unpinned pages — lowest sparse-selector score, then least
// recently pinned — are serialized into an mmap-backed ColdStore (the CPU
// analog of GPU→host KV offload) and their RAM storage is dropped. Pages
// come back either asynchronously (a background prefetch thread promotes
// the pages a selector just chose, ahead of the attention walk) or
// synchronously when a pin misses. Demote→promote round trips are
// bit-exact: quantized codes, per-row quant params, and K_stats are
// copied verbatim, so tiering on ≡ tiering off for every output.
//
// Page access is pin-based: callers never hold a raw Page& across
// statements they don't control. They hold PageIds; PagePin /
// PageWritePin are RAII resolutions that keep the page hot (and
// demotion-protected) for exactly the scope of the access:
//
//   kv::PagePin pin = alloc.pin(id);        // promotes if cold
//   pin.page().load_key(slot, out);         // Page& valid inside the scope
//   // ~PagePin() unpins; the page is demotable again
//
// In the single-tier default (hot_pages == 0) pin() is a branch and a
// pointer copy — no locking — so the untiered hot path is byte-identical
// to the pre-tier design.
//
// Thread safety (machine-checked: every guarded field carries GUARDED_BY
// and builds clean under clang -Wthread-safety, see docs/CONCURRENCY.md):
// allocate()/release() may be called concurrently from the batched decode
// path, so both are mutex-guarded. Slot lookup is lock-free — pages live
// in fixed-size chunks behind a preallocated directory of atomic pointers,
// so growing the pool never moves existing Page objects and a pinned
// Page& stays valid across concurrent allocations. Tier state lives under
// its own tier_mu_ (never held together with mu_ except the one-way
// mu_ → tier_mu_ nesting in add_chunk_locked); storage handoffs between
// the demoter, the prefetch thread, and pinning readers are ordered by
// tier_mu_ critical sections around every kHot/kCold transition.
// Concurrent access to the *same* page is the caller's problem: a page
// belongs to one sequence unless it has been shared via add_ref()
// (prefix-cache reuse), in which case every holder must treat it as
// immutable and release() drops one reference. In LSERVE_AUDIT builds the
// PageAuditor enforces exactly that ownership contract at release() time,
// checks that no page is ever demoted or freed while pinned, and
// attributes leaks (pages *and* pins) at drain.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "kv/cold_store.hpp"
#include "kv/page.hpp"
#include "kv/page_auditor.hpp"
#include "kv/page_table.hpp"
#include "serve/thread_annotations.hpp"

namespace lserve::kv {

class PageAllocator;

/// Two-tier store knobs. Default (hot_pages = 0) is the single-tier pool.
struct TierConfig {
  /// Hot-pool bound in pages; past it, cold pages spill. 0 = tiering off.
  std::size_t hot_pages = 0;
  /// Cold-store byte cap (0 = unbounded). At the cap, spilling stops and
  /// the hot pool runs over budget (a soft bound).
  std::size_t cold_bytes = 0;
  /// Run the background promote thread. Off = prefetch() promotes
  /// synchronously (deterministic; used by tests).
  bool async_prefetch = true;

  bool enabled() const noexcept { return hot_pages > 0; }
};

/// Tier telemetry snapshot (all zeros when tiering is off).
struct TierStats {
  std::size_t hot_in_use = 0;   ///< live pages with resident storage.
  std::size_t cold_in_use = 0;  ///< live pages spilled to the cold store.
  std::size_t cold_bytes_in_use = 0;
  std::uint64_t demotions = 0;
  std::uint64_t promotions = 0;  ///< prefetch_promotions + pin_promotions.
  std::uint64_t prefetch_requests = 0;   ///< cold pages queued for promote.
  std::uint64_t prefetch_promotions = 0; ///< promoted ahead of use.
  std::uint64_t pin_promotions = 0;      ///< synchronous pin-miss fallback.
};

/// RAII read pin: resolves a PageId to a Page that stays hot (and
/// demotion-protected) until the pin is destroyed. Move-only.
class PagePin {
 public:
  PagePin() = default;
  PagePin(PagePin&& o) noexcept
      : alloc_(o.alloc_), page_(o.page_), id_(o.id_) {
    o.alloc_ = nullptr;
    o.page_ = nullptr;
  }
  PagePin& operator=(PagePin&& o) noexcept {
    if (this != &o) {
      reset();
      alloc_ = o.alloc_;
      page_ = o.page_;
      id_ = o.id_;
      o.alloc_ = nullptr;
      o.page_ = nullptr;
    }
    return *this;
  }
  PagePin(const PagePin&) = delete;
  PagePin& operator=(const PagePin&) = delete;
  ~PagePin() { reset(); }

  const Page& page() const noexcept { return *page_; }
  const Page* operator->() const noexcept { return page_; }
  PageId id() const noexcept { return id_; }
  bool valid() const noexcept { return page_ != nullptr; }
  /// Unpins early (the destructor is then a no-op).
  inline void reset() noexcept;

 private:
  friend class PageAllocator;
  PagePin(const PageAllocator* alloc, const Page* page, PageId id) noexcept
      : alloc_(alloc), page_(page), id_(id) {}

  const PageAllocator* alloc_ = nullptr;
  const Page* page_ = nullptr;
  PageId id_ = kInvalidPage;
};

/// RAII write pin: like PagePin but resolves to a mutable Page (append /
/// copy-on-write paths). The holder must own the page exclusively.
class PageWritePin {
 public:
  PageWritePin() = default;
  PageWritePin(PageWritePin&& o) noexcept
      : alloc_(o.alloc_), page_(o.page_), id_(o.id_) {
    o.alloc_ = nullptr;
    o.page_ = nullptr;
  }
  PageWritePin& operator=(PageWritePin&& o) noexcept {
    if (this != &o) {
      reset();
      alloc_ = o.alloc_;
      page_ = o.page_;
      id_ = o.id_;
      o.alloc_ = nullptr;
      o.page_ = nullptr;
    }
    return *this;
  }
  PageWritePin(const PageWritePin&) = delete;
  PageWritePin& operator=(const PageWritePin&) = delete;
  ~PageWritePin() { reset(); }

  Page& page() const noexcept { return *page_; }
  Page* operator->() const noexcept { return page_; }
  PageId id() const noexcept { return id_; }
  bool valid() const noexcept { return page_ != nullptr; }
  inline void reset() noexcept;

 private:
  friend class PageAllocator;
  PageWritePin(const PageAllocator* alloc, Page* page, PageId id) noexcept
      : alloc_(alloc), page_(page), id_(id) {}

  const PageAllocator* alloc_ = nullptr;
  Page* page_ = nullptr;
  PageId id_ = kInvalidPage;
};

/// Fixed-config page pool with O(1) allocate/release and an optional
/// spill tier.
class PageAllocator {
 public:
  /// At least `capacity` page slots are reserved up front (rounded up to a
  /// whole chunk); storage inside each page is initialized lazily on first
  /// allocation. The default TierConfig keeps the pool single-tier.
  explicit PageAllocator(PageConfig cfg, std::size_t capacity,
                         TierConfig tier = {});
  ~PageAllocator();

  PageAllocator(const PageAllocator&) = delete;
  PageAllocator& operator=(const PageAllocator&) = delete;

  /// Allocates a page; grows the pool if the free list is exhausted. In
  /// tiered mode this may spill the coldest unpinned pages to keep the
  /// hot pool within budget. Thread-safe.
  PageId allocate();

  /// Releases one reference to the page; returns it to the free list when
  /// the last reference drops (reclaiming its cold slot if the page was
  /// spilled). Freshly allocated pages have refcount 1, so unshared pages
  /// release once. Over-release is a programming error (checked in debug
  /// builds; checked with owner/site attribution in LSERVE_AUDIT builds).
  /// Thread-safe.
  void release(PageId id) noexcept;

  /// Adds a reference to a live page (prefix-cache sharing). Shared pages
  /// must be treated as immutable by all holders. Thread-safe.
  void add_ref(PageId id) noexcept;

  /// Current reference count of a live page (0 for a free slot).
  std::size_t ref_count(PageId id) const noexcept;

  /// Read pin: promotes the page if it is cold (synchronous fallback when
  /// prefetch has not run) and protects it from demotion for the pin's
  /// lifetime. Lock-free in single-tier mode. Thread-safe.
  PagePin pin(PageId id) const {
    // The audit records the pin once the tier holds it, so a spill that
    // picked the page first never sees an audit pin it must not demote.
    if (tier_.enabled()) pin_slot(id);
    auditor_.on_pin(id);
    return PagePin(this, &get(id), id);
  }

  /// Write pin (append / COW paths). Same tier semantics as pin(); the
  /// caller must own the page exclusively. Thread-safe.
  PageWritePin pin_mut(PageId id) {
    if (tier_.enabled()) pin_slot(id);
    auditor_.on_pin(id);
    return PageWritePin(this, &get(id), id);
  }

  /// Records the sparse selector's per-page scores: lower score = colder
  /// = demoted first. Pages without a score fall back to least-recently-
  /// pinned order. No-op (and lock-free) in single-tier mode.
  void note_scores(std::span<const PageId> pages,
                   std::span<const float> scores) const noexcept;

  /// Queues cold pages for promotion by the background tier thread (the
  /// selector just chose them; promote before the attention walk pins
  /// them). Synchronous when TierConfig::async_prefetch is off. No-op for
  /// hot pages and in single-tier mode.
  void prefetch(std::span<const PageId> ids) const;
  void prefetch(std::span<const SelectedPage> table) const;

  bool tiered() const noexcept { return tier_.enabled(); }
  /// Tier telemetry snapshot (zeros when tiering is off). Thread-safe.
  TierStats tier_stats() const noexcept;

  const PageConfig& config() const noexcept { return cfg_; }
  std::size_t capacity() const noexcept;
  std::size_t pages_in_use() const noexcept;
  std::size_t peak_pages_in_use() const noexcept;
  /// Live pages with resident (hot) storage — what admission control
  /// charges in tiered mode. Equals pages_in_use() when tiering is off.
  std::size_t hot_pages_in_use() const noexcept;
  /// Pages currently on the free list (capacity() - pages_in_use()).
  /// Occupancy query for scheduler-level admission control; note the pool
  /// still grows on demand, so 0 free pages does not make allocate() fail.
  std::size_t free_pages() const noexcept;
  /// Pages needed to hold `tokens` tokens for one head (ceil division).
  std::size_t pages_for_tokens(std::size_t tokens) const noexcept {
    return (tokens + cfg_.page_size - 1) / cfg_.page_size;
  }

  /// Coherent occupancy snapshot under one lock acquisition — the per-step
  /// telemetry read (obs gauges). The individual queries above each take
  /// the lock, so reading them separately can tear across a concurrent
  /// allocate/release: in_use could exceed a just-grown capacity, or free
  /// could go negative when computed by subtraction. (The hot/cold split
  /// is read under the tier lock right after — it can tear against the
  /// pool totals by at most an in-flight transition.)
  struct Occupancy {
    std::size_t capacity = 0;
    std::size_t in_use = 0;
    std::size_t free = 0;  ///< capacity - in_use at snapshot time.
    std::size_t peak_in_use = 0;
    std::size_t hot_in_use = 0;   ///< == in_use when tiering is off.
    std::size_t cold_in_use = 0;  ///< 0 when tiering is off.
  };
  Occupancy occupancy() const noexcept;

  /// Total device bytes of hot-resident pages (cold pages dropped their
  /// storage — that saving is the point of the tier). Every live page
  /// shares one config, so this is a per-page constant times residency.
  double device_bytes_in_use() const noexcept;

  /// LSERVE_AUDIT builds: one attribution line per live page (who leaked
  /// what, allocated where, on which thread, holding how many pins).
  /// Empty when the pool is clean — or when auditing is compiled out.
  std::string audit_report() const { return auditor_.report_live(); }
  /// LSERVE_AUDIT builds: pages with outstanding pins (pin-leak check at
  /// quiescence points). 0 when auditing is compiled out.
  std::size_t audit_pinned_pages() const { return auditor_.pinned_pages(); }

 private:
  friend class PagePin;
  friend class PageWritePin;

  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  /// Directory slots preallocated up front; bounds the pool at
  /// kMaxChunks * kChunkSize pages (8M with the defaults).
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 15;

  /// Residency of one tier-tracked slot. kDemoting/kPromoting are the
  /// in-flight states a transition holds while doing IO outside tier_mu_;
  /// pins (and release) wait them out.
  enum class TierState : std::uint8_t {
    kHot = 0,
    kCold,
    kDemoting,
    kPromoting,
  };

  /// Raw slot lookup (no tier handling). Internal: external access goes
  /// through pin()/pin_mut() so it can never outlive residency.
  Page& get(PageId id) noexcept {
    return chunks_[id >> kChunkShift].load(std::memory_order_acquire)
        [id & kChunkMask];
  }
  const Page& get(PageId id) const noexcept {
    return chunks_[id >> kChunkShift].load(std::memory_order_acquire)
        [id & kChunkMask];
  }
  /// Slot storage mutation from const tier paths (promotion re-inits the
  /// page in place; residency is not logical state).
  Page& mut_page(PageId id) const noexcept {
    return const_cast<Page&>(get(id));
  }

  /// Appends one chunk of default-constructed pages.
  void add_chunk_locked() REQUIRES(mu_);

  // -- tier machinery (all no-ops when tier_.enabled() is false) --------
  /// Drops one pin; called by the pin destructors.
  void unpin(PageId id) const noexcept;
  /// Ensures `id` is hot and pinned: counts a hot hit, or waits out an
  /// in-flight transition, or promotes synchronously (pin-miss fallback).
  void pin_slot(PageId id) const;
  /// Finishes a kCold→kHot transition whose kPromoting mark the caller
  /// set; runs the cold-store IO outside tier_mu_. Increments the pin
  /// inside the same critical section that publishes kHot when
  /// `pin_after` (so the page cannot be demoted in between).
  void promote_slot(PageId id, ColdSlotId slot, bool pin_after) const;
  /// Demotes coldest unpinned pages until the hot pool is within budget
  /// (or the cold store is full). `protect` is never picked.
  void enforce_hot_budget(PageId protect) const;
  PageId pick_victim_locked(PageId protect) const REQUIRES(tier_mu_);
  /// Reclaims tier state on final release: waits out in-flight
  /// transitions and frees the cold slot of a spilled page.
  void tier_on_release(PageId id) noexcept;
  /// Background promote loop (runs when tiered + async_prefetch).
  void prefetch_loop();

  PageConfig cfg_;
  TierConfig tier_;
  double page_device_bytes_ = 0.0;  ///< per-page footprint for accounting.
  std::unique_ptr<std::atomic<Page*>[]> chunks_;

  mutable Mutex mu_;
  /// Owns the pages. Only mutated under mu_ (add_chunk_locked); get()
  /// never touches it — it goes through the atomic chunk directory.
  std::vector<std::unique_ptr<Page[]>> chunk_storage_ GUARDED_BY(mu_);
  std::size_t total_slots_ GUARDED_BY(mu_) = 0;  ///< created page slots.
  std::vector<PageId> free_list_ GUARDED_BY(mu_);  ///< LIFO.
  std::vector<std::uint8_t> live_ GUARDED_BY(mu_);  ///< per-slot liveness.
  std::vector<std::uint32_t> refs_ GUARDED_BY(mu_);  ///< per-slot refcount.
  std::size_t in_use_ GUARDED_BY(mu_) = 0;
  std::size_t peak_in_use_ GUARDED_BY(mu_) = 0;

  /// Tier state. Separate lock so pin/unpin never contends with
  /// allocate/release bookkeeping; the only nesting is mu_ → tier_mu_
  /// inside add_chunk_locked (array growth), never the reverse. Mutable
  /// because residency changes under const reads (pin promotes).
  mutable Mutex tier_mu_ ACQUIRED_AFTER(mu_);
  mutable CondVar tier_cv_;  ///< transition-complete + prefetch wakeups.
  mutable std::vector<TierState> tier_state_ GUARDED_BY(tier_mu_);
  mutable std::vector<std::uint32_t> pins_ GUARDED_BY(tier_mu_);
  mutable std::vector<float> score_ GUARDED_BY(tier_mu_);
  mutable std::vector<std::uint64_t> stamp_ GUARDED_BY(tier_mu_);
  mutable std::vector<ColdSlotId> cold_slot_ GUARDED_BY(tier_mu_);
  mutable std::vector<std::uint8_t> tier_live_ GUARDED_BY(tier_mu_);
  mutable std::vector<std::uint8_t> queued_ GUARDED_BY(tier_mu_);
  mutable std::deque<PageId> prefetch_queue_ GUARDED_BY(tier_mu_);
  mutable std::uint64_t tier_clock_ GUARDED_BY(tier_mu_) = 0;
  mutable std::size_t hot_in_use_ GUARDED_BY(tier_mu_) = 0;
  mutable std::size_t cold_in_use_ GUARDED_BY(tier_mu_) = 0;
  /// Relaxed mirror of cold_in_use_, written at every mutation under
  /// tier_mu_: lets prefetch() skip the lock entirely when nothing is
  /// cold, keeping the fully-hot decode path off tier_mu_. A stale zero
  /// only costs a missed hint — the pin miss still promotes.
  mutable std::atomic<std::size_t> cold_count_{0};
  /// Cold store hit its byte cap; spilling pauses until a slot frees.
  mutable bool cold_full_ GUARDED_BY(tier_mu_) = false;
  mutable bool tier_stop_ GUARDED_BY(tier_mu_) = false;
  mutable std::uint64_t demotions_ GUARDED_BY(tier_mu_) = 0;
  mutable std::uint64_t prefetch_requests_ GUARDED_BY(tier_mu_) = 0;
  mutable std::uint64_t prefetch_promotions_ GUARDED_BY(tier_mu_) = 0;
  mutable std::uint64_t pin_promotions_ GUARDED_BY(tier_mu_) = 0;
  mutable std::unique_ptr<ColdStore> cold_store_;  ///< null when untiered.
  std::thread prefetch_thread_;  ///< joined in the destructor.

  /// Empty (and storage-free) unless LSERVE_AUDIT is on; has its own
  /// internal lock, so it is deliberately called outside mu_. Mutable:
  /// pin tracking records through const read pins.
  [[no_unique_address]] mutable PageAuditor auditor_;
};

inline void PagePin::reset() noexcept {
  if (alloc_ != nullptr) alloc_->unpin(id_);
  alloc_ = nullptr;
  page_ = nullptr;
}

inline void PageWritePin::reset() noexcept {
  if (alloc_ != nullptr) alloc_->unpin(id_);
  alloc_ = nullptr;
  page_ = nullptr;
}

}  // namespace lserve::kv
