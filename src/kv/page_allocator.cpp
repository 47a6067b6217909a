#include "kv/page_allocator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace lserve::kv {

PageAllocator::PageAllocator(PageConfig cfg, std::size_t capacity,
                             TierConfig tier)
    : cfg_(cfg), tier_(tier), chunks_(new std::atomic<Page*>[kMaxChunks]) {
  assert(cfg.valid());
  page_device_bytes_ = [&] {
    Page tmp;
    tmp.init(cfg_);
    return tmp.device_bytes();
  }();
  for (std::size_t i = 0; i < kMaxChunks; ++i) {
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
  if (tier_.enabled()) {
    cold_store_ = std::make_unique<ColdStore>(Page::serialized_bytes_for(cfg_),
                                              tier_.cold_bytes);
  }
  const std::size_t chunks =
      capacity == 0 ? 1 : (capacity + kChunkSize - 1) / kChunkSize;
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < chunks; ++i) add_chunk_locked();
  }
  if (tier_.enabled() && tier_.async_prefetch) {
    prefetch_thread_ = std::thread([this] { prefetch_loop(); });
  }
}

PageAllocator::~PageAllocator() {
  if (prefetch_thread_.joinable()) {
    {
      MutexLock lock(tier_mu_);
      tier_stop_ = true;
    }
    tier_cv_.notify_all();
    prefetch_thread_.join();
  }
}

void PageAllocator::add_chunk_locked() {
  const std::size_t index = chunk_storage_.size();
  if (index >= kMaxChunks) {
    throw std::length_error("PageAllocator: page pool exhausted");
  }
  chunk_storage_.push_back(std::make_unique<Page[]>(kChunkSize));
  // Publish the chunk before any PageId pointing into it can be handed out.
  chunks_[index].store(chunk_storage_.back().get(),
                       std::memory_order_release);
  live_.resize(total_slots_ + kChunkSize, 0);
  refs_.resize(total_slots_ + kChunkSize, 0);
  if (tier_.enabled()) {
    // The one sanctioned mu_ → tier_mu_ nesting: tier arrays grow in
    // lockstep with the pool (tier paths never take mu_).
    MutexLock t(tier_mu_);
    const std::size_t n = total_slots_ + kChunkSize;
    tier_state_.resize(n, TierState::kHot);
    pins_.resize(n, 0);
    score_.resize(n, 0.0f);
    stamp_.resize(n, 0);
    cold_slot_.resize(n, kInvalidColdSlot);
    tier_live_.resize(n, 0);
    queued_.resize(n, 0);
  }
  // LIFO order within the chunk: its lowest id is handed out first.
  for (std::size_t i = kChunkSize; i > 0; --i) {
    free_list_.push_back(static_cast<PageId>(total_slots_ + i - 1));
  }
  total_slots_ += kChunkSize;
}

PageId PageAllocator::allocate() {
  PageId id;
  {
    MutexLock lock(mu_);
    if (free_list_.empty()) add_chunk_locked();
    id = free_list_.back();
    free_list_.pop_back();
    assert(!live_[id] && "allocating a live page");
    ++in_use_;
    peak_in_use_ = std::max(peak_in_use_, in_use_);
  }
  // The popped id is exclusively ours, so the heavy storage work runs
  // outside the lock; the page is marked live only once it is coherent,
  // so device_bytes_in_use() never reads a page mid-init.
  Page& page = get(id);
  try {
    if (!page.initialized()) {
      page.init(cfg_);
    } else {
      page.reset();
    }
  } catch (...) {
    MutexLock lock(mu_);
    --in_use_;
    free_list_.push_back(id);
    throw;
  }
  {
    MutexLock lock(mu_);
    live_[id] = 1;
    refs_[id] = 1;
  }
  // The auditor learns of the page before the tier does: from here on a
  // concurrent spill may pick it, and the audit must already see it live.
  auditor_.on_alloc(id);
  if (tier_.enabled()) {
    {
      MutexLock t(tier_mu_);
      tier_state_[id] = TierState::kHot;
      pins_[id] = 0;
      score_[id] = 0.0f;  // unscored until a selector run ranks it.
      stamp_[id] = ++tier_clock_;
      tier_live_[id] = 1;
      ++hot_in_use_;
    }
    enforce_hot_budget(id);
  }
  return id;
}

void PageAllocator::release(PageId id) noexcept {
  bool final_free = false;
  {
    MutexLock lock(mu_);
    // Invalid releases (out-of-range / dead page) fall through to the
    // auditor, whose never-allocated/double-free report carries owner and
    // site attribution the plain asserts below lack.
    if (id >= total_slots_ || !live_[id] || refs_[id] <= 1) {
      final_free = true;
    } else {
      --refs_[id];
    }
  }
  if (!final_free) {
    auditor_.on_unref(id);
    return;
  }
  // Reclaim tier state before the slot can be reallocated: wait out any
  // in-flight demote/promote and give back the cold slot of a spilled
  // page. (The id is not on the free list yet, so no one can race us.)
  // Then audit (own lock): a spill that picked the page first has ended
  // while the audit still saw it live, and a bad free aborts here.
  tier_on_release(id);
  auditor_.on_free(id);
  MutexLock lock(mu_);
  assert(id < total_slots_);
  assert(live_[id] && "release of a dead KV page");
  refs_[id] = 0;
  live_[id] = 0;
  --in_use_;
  free_list_.push_back(id);
}

void PageAllocator::tier_on_release(PageId id) noexcept {
  if (!tier_.enabled()) return;
  MutexLock lock(tier_mu_);
  if (id >= tier_state_.size() || !tier_live_[id]) return;
  while (tier_state_[id] == TierState::kDemoting ||
         tier_state_[id] == TierState::kPromoting) {
    tier_cv_.wait(tier_mu_);
  }
  assert(pins_[id] == 0 && "released page still pinned");
  if (tier_state_[id] == TierState::kCold) {
    cold_store_->release(cold_slot_[id]);
    cold_slot_[id] = kInvalidColdSlot;
    tier_state_[id] = TierState::kHot;
    --cold_in_use_;
    cold_count_.store(cold_in_use_, std::memory_order_relaxed);
    cold_full_ = false;  // a slot freed up; spilling may resume.
  } else {
    --hot_in_use_;
  }
  tier_live_[id] = 0;
}

void PageAllocator::add_ref(PageId id) noexcept {
  {
    MutexLock lock(mu_);
    assert(id < total_slots_);
    assert(live_[id] && "add_ref on a dead KV page");
    ++refs_[id];
  }
  auditor_.on_add_ref(id);
}

std::size_t PageAllocator::ref_count(PageId id) const noexcept {
  MutexLock lock(mu_);
  assert(id < total_slots_);
  return refs_[id];
}

// ---------------------------------------------------------------------------
// Tier machinery.
// ---------------------------------------------------------------------------

void PageAllocator::unpin(PageId id) const noexcept {
  auditor_.on_unpin(id);
  if (!tier_.enabled()) return;
  MutexLock lock(tier_mu_);
  assert(id < pins_.size() && pins_[id] > 0 && "unpin without a pin");
  --pins_[id];
}

void PageAllocator::pin_slot(PageId id) const {
  for (;;) {
    ColdSlotId slot = kInvalidColdSlot;
    {
      MutexLock lock(tier_mu_);
      assert(id < tier_state_.size());
      switch (tier_state_[id]) {
        case TierState::kHot:
          ++pins_[id];
          stamp_[id] = ++tier_clock_;
          return;
        case TierState::kCold:
          // Pin miss: promote synchronously on this thread.
          tier_state_[id] = TierState::kPromoting;
          slot = cold_slot_[id];
          break;
        case TierState::kDemoting:
        case TierState::kPromoting:
          // Another thread owns the transition; wait for it to settle.
          tier_cv_.wait(tier_mu_);
          continue;
      }
    }
    promote_slot(id, slot, /*pin_after=*/true);
    enforce_hot_budget(id);
    return;
  }
}

void PageAllocator::promote_slot(PageId id, ColdSlotId slot,
                                 bool pin_after) const {
  std::vector<std::uint8_t> buf(cold_store_->slot_bytes());
  cold_store_->load(slot, buf.data());
  Page& page = mut_page(id);
  page.init(cfg_);
  page.deserialize(buf.data());
  cold_store_->release(slot);
  MutexLock lock(tier_mu_);
  cold_slot_[id] = kInvalidColdSlot;
  tier_state_[id] = TierState::kHot;
  stamp_[id] = ++tier_clock_;
  --cold_in_use_;
  cold_count_.store(cold_in_use_, std::memory_order_relaxed);
  ++hot_in_use_;
  cold_full_ = false;
  if (pin_after) {
    // Publish hot + pinned atomically so a concurrent spill can never
    // pick this page between promotion and the pin.
    ++pins_[id];
    ++pin_promotions_;
  } else {
    ++prefetch_promotions_;
  }
  tier_cv_.notify_all();
}

PageId PageAllocator::pick_victim_locked(PageId protect) const {
  // Coldest first: lowest selector score, then least recently pinned.
  // Unscored pages (score 0 — never ranked by a selector run) demote
  // before positively-scored ones, which is the intended order: the
  // selector scores every page of the sequences it is actively decoding,
  // so unscored pages belong to idle sequences.
  PageId best = kInvalidPage;
  for (std::size_t i = 0; i < tier_state_.size(); ++i) {
    const PageId id = static_cast<PageId>(i);
    if (id == protect || !tier_live_[i]) continue;
    if (tier_state_[i] != TierState::kHot || pins_[i] != 0) continue;
    if (best == kInvalidPage || score_[i] < score_[best] ||
        (score_[i] == score_[best] && stamp_[i] < stamp_[best])) {
      best = id;
    }
  }
  return best;
}

void PageAllocator::enforce_hot_budget(PageId protect) const {
  std::vector<std::uint8_t> buf;
  for (;;) {
    PageId victim = kInvalidPage;
    {
      MutexLock lock(tier_mu_);
      if (hot_in_use_ <= tier_.hot_pages || cold_full_) return;
      victim = pick_victim_locked(protect);
      if (victim == kInvalidPage) return;  // everything hot is pinned.
      tier_state_[victim] = TierState::kDemoting;
    }
    // The kDemoting mark blocks new pins, so the serialize below reads a
    // quiescent page. The audit hook double-checks the pin bookkeeping.
    auditor_.on_demote(victim);
    Page& page = mut_page(victim);
    buf.resize(cold_store_->slot_bytes());
    page.serialize(buf.data());
    const ColdSlotId slot = cold_store_->store(buf.data());
    MutexLock lock(tier_mu_);
    if (slot == kInvalidColdSlot) {
      // Cold tier at its byte cap: abandon the demotion and pause
      // spilling; the hot pool runs over budget until a slot frees.
      tier_state_[victim] = TierState::kHot;
      cold_full_ = true;
      tier_cv_.notify_all();
      return;
    }
    page.drop_storage();
    cold_slot_[victim] = slot;
    tier_state_[victim] = TierState::kCold;
    --hot_in_use_;
    ++cold_in_use_;
    cold_count_.store(cold_in_use_, std::memory_order_relaxed);
    ++demotions_;
    tier_cv_.notify_all();
  }
}

void PageAllocator::note_scores(std::span<const PageId> pages,
                                std::span<const float> scores) const noexcept {
  if (!tier_.enabled()) return;
  assert(pages.size() == scores.size());
  MutexLock lock(tier_mu_);
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const PageId id = pages[i];
    if (id < score_.size() && tier_live_[id]) score_[id] = scores[i];
  }
}

void PageAllocator::prefetch(std::span<const PageId> ids) const {
  if (!tier_.enabled()) return;
  // Fast-out without the lock when nothing is cold: a fully-hot working
  // set pays a relaxed load, not a tier_mu_ round-trip per decode step.
  if (cold_count_.load(std::memory_order_relaxed) == 0) return;
  if (!tier_.async_prefetch) {
    // Synchronous mode (tests): promote the cold ids inline.
    for (const PageId id : ids) {
      ColdSlotId slot = kInvalidColdSlot;
      {
        MutexLock lock(tier_mu_);
        if (id >= tier_state_.size() || !tier_live_[id]) continue;
        if (tier_state_[id] != TierState::kCold) continue;
        tier_state_[id] = TierState::kPromoting;
        slot = cold_slot_[id];
        ++prefetch_requests_;
      }
      promote_slot(id, slot, /*pin_after=*/false);
      enforce_hot_budget(id);
    }
    return;
  }
  bool notify = false;
  {
    MutexLock lock(tier_mu_);
    for (const PageId id : ids) {
      if (id >= tier_state_.size() || !tier_live_[id]) continue;
      if (tier_state_[id] != TierState::kCold || queued_[id]) continue;
      queued_[id] = 1;
      prefetch_queue_.push_back(id);
      ++prefetch_requests_;
      notify = true;
    }
  }
  if (notify) tier_cv_.notify_all();
}

void PageAllocator::prefetch(std::span<const SelectedPage> table) const {
  if (!tier_.enabled()) return;
  if (cold_count_.load(std::memory_order_relaxed) == 0) return;
  std::vector<PageId> ids;
  ids.reserve(table.size());
  for (const SelectedPage& e : table) ids.push_back(e.page);
  prefetch(std::span<const PageId>(ids));
}

void PageAllocator::prefetch_loop() {
  for (;;) {
    PageId id = kInvalidPage;
    ColdSlotId slot = kInvalidColdSlot;
    {
      MutexLock lock(tier_mu_);
      while (!tier_stop_ && prefetch_queue_.empty()) tier_cv_.wait(tier_mu_);
      if (tier_stop_) return;
      id = prefetch_queue_.front();
      prefetch_queue_.pop_front();
      queued_[id] = 0;
      // The page may have been promoted by a pin miss, released, or
      // reallocated since it was queued; only a still-cold page is ours.
      if (!tier_live_[id] || tier_state_[id] != TierState::kCold) continue;
      tier_state_[id] = TierState::kPromoting;
      slot = cold_slot_[id];
    }
    promote_slot(id, slot, /*pin_after=*/false);
    enforce_hot_budget(id);
  }
}

TierStats PageAllocator::tier_stats() const noexcept {
  TierStats s;
  if (!tier_.enabled()) return s;
  MutexLock lock(tier_mu_);
  s.hot_in_use = hot_in_use_;
  s.cold_in_use = cold_in_use_;
  s.cold_bytes_in_use = cold_in_use_ * cold_store_->slot_bytes();
  s.demotions = demotions_;
  s.prefetch_requests = prefetch_requests_;
  s.prefetch_promotions = prefetch_promotions_;
  s.pin_promotions = pin_promotions_;
  s.promotions = prefetch_promotions_ + pin_promotions_;
  return s;
}

// ---------------------------------------------------------------------------
// Occupancy queries.
// ---------------------------------------------------------------------------

std::size_t PageAllocator::capacity() const noexcept {
  MutexLock lock(mu_);
  return total_slots_;
}

std::size_t PageAllocator::pages_in_use() const noexcept {
  MutexLock lock(mu_);
  return in_use_;
}

std::size_t PageAllocator::peak_pages_in_use() const noexcept {
  MutexLock lock(mu_);
  return peak_in_use_;
}

std::size_t PageAllocator::hot_pages_in_use() const noexcept {
  if (!tier_.enabled()) return pages_in_use();
  MutexLock lock(tier_mu_);
  return hot_in_use_;
}

std::size_t PageAllocator::free_pages() const noexcept {
  MutexLock lock(mu_);
  return total_slots_ - in_use_;
}

PageAllocator::Occupancy PageAllocator::occupancy() const noexcept {
  Occupancy snap;
  {
    MutexLock lock(mu_);
    snap.capacity = total_slots_;
    snap.in_use = in_use_;
    snap.free = total_slots_ - in_use_;
    snap.peak_in_use = peak_in_use_;
  }
  if (tier_.enabled()) {
    MutexLock lock(tier_mu_);
    snap.hot_in_use = hot_in_use_;
    snap.cold_in_use = cold_in_use_;
  } else {
    snap.hot_in_use = snap.in_use;
  }
  return snap;
}

double PageAllocator::device_bytes_in_use() const noexcept {
  // Every live page shares one config, so resident bytes are the per-page
  // footprint times hot residency; cold pages dropped their storage.
  std::size_t resident;
  {
    MutexLock lock(mu_);
    resident = in_use_;
  }
  if (tier_.enabled()) {
    MutexLock lock(tier_mu_);
    resident -= std::min(resident, cold_in_use_);
  }
  return page_device_bytes_ * static_cast<double>(resident);
}

}  // namespace lserve::kv
