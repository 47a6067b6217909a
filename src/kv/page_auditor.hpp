// Debug-build page-ownership auditor (the runtime cross-check the static
// analysis layers cannot express).
//
// Compiled in only when the LSERVE_AUDIT CMake option defines
// LSERVE_AUDIT=1. The auditor tags every allocated page with
//
//   - the owning sequence id (from the innermost PageAuditScope on the
//     allocating thread — engine entry points scope every prefill /
//     decode / release region),
//   - the allocation site (a static string, e.g. "Engine::decode"),
//   - the allocating thread,
//
// and checks, at PageAllocator::free():
//
//   - double-free: freeing a page that is not live;
//   - foreign free: freeing a page whose recorded owner differs from the
//     current scope's owner. Ownership is per *sequence*, not per thread:
//     a page legally migrates threads (allocated on a pool worker mid
//     decode, freed on the scheduler thread at release), but it must
//     never be released on behalf of a different sequence. The report
//     still prints both thread ids for forensics.
//
// Violations print an attribution report to stderr and abort() — precise
// enough for EXPECT_DEATH tests and loud enough for CI.
//
// Leaks are checked at quiescence points (Scheduler::drain): any page
// still live is reported with owner/site/thread attribution via
// report_live(), turning "the pool grew" into "sequence 7 leaked 3 pages
// allocated at Engine::prefill on thread 140213...".
//
// Zero-overhead guarantee when OFF: PageAuditor and PageAuditScope are
// empty types with inline no-op methods, and PageAllocator holds its
// auditor as a [[no_unique_address]] member — the struct layout and the
// allocate()/free() hot paths are exactly the pre-auditor ones
// (tests/audit_test.cpp pins this with static_asserts).
#pragma once

#include <cstdint>
#include <string>

#include "kv/page.hpp"

#if defined(LSERVE_AUDIT) && LSERVE_AUDIT
#define LSERVE_AUDIT_ENABLED 1
#else
#define LSERVE_AUDIT_ENABLED 0
#endif

#if LSERVE_AUDIT_ENABLED
#include <unordered_map>

#include "serve/thread_annotations.hpp"
#endif

namespace lserve::kv {

/// True when the auditor is compiled in (the LSERVE_AUDIT build option).
inline constexpr bool kAuditEnabled = LSERVE_AUDIT_ENABLED == 1;

/// Owner value recorded when no PageAuditScope is active (direct
/// allocator use in tests/benches).
inline constexpr std::uint64_t kAuditNoOwner = ~std::uint64_t{0};

#if LSERVE_AUDIT_ENABLED

/// RAII: tags every page allocated/freed by this thread inside the scope
/// with an owner (sequence) id and a site string. Nests; the innermost
/// scope wins.
class PageAuditScope {
 public:
  PageAuditScope(std::uint64_t owner, const char* site) noexcept;
  ~PageAuditScope() noexcept;

  PageAuditScope(const PageAuditScope&) = delete;
  PageAuditScope& operator=(const PageAuditScope&) = delete;

  /// The calling thread's innermost scope (owner = kAuditNoOwner, site =
  /// "(unscoped)" when none is active).
  static std::uint64_t current_owner() noexcept;
  static const char* current_site() noexcept;

 private:
  std::uint64_t prev_owner_;
  const char* prev_site_;
};

/// Per-allocator audit state. Thread-safe (called from the same threads
/// as allocate()/free()); keeps its own records so it never depends on
/// the allocator's internals being coherent at check time.
class PageAuditor {
 public:
  /// Records the allocation under the calling thread's audit scope.
  void on_alloc(PageId id);
  /// Verifies live + same-owner, then records the free. Prints an
  /// attribution report and abort()s on double-free or foreign free.
  /// Once a page has been shared (on_add_ref), the owner check is waived:
  /// shared-ownership pages are legally released by any of their holders
  /// (prefix-cache refcounted pages). Exclusively-owned pages keep the
  /// strict check.
  void on_free(PageId id) noexcept;

  /// Records a refcount increment on a live page (prefix-cache sharing).
  /// Marks the page shared — from here until its final free, any sequence
  /// (or the cache itself) may legally release a reference. Aborts if the
  /// page is not live.
  void on_add_ref(PageId id) noexcept;
  /// Records a non-final refcount decrement. Aborts if the page is not
  /// live (a decref after the final free is a use-after-free).
  void on_unref(PageId id) noexcept;

  /// Records a pin (PagePin/PageWritePin construction) with site/thread
  /// attribution. Aborts on a pin of a dead page.
  void on_pin(PageId id) noexcept;
  /// Records the matching unpin. Aborts on an unpin without a pin.
  void on_unpin(PageId id) noexcept;
  /// Called as a page enters the demotion path. Aborts if the page holds
  /// outstanding pins — demoting a pinned page would invalidate a live
  /// Page& (use-after-demote), the exact bug the pin API exists to
  /// prevent.
  void on_demote(PageId id) noexcept;

  /// Pages with outstanding pins (pin-leak check at quiescence points:
  /// a drained scheduler must hold zero pins).
  std::size_t pinned_pages() const;

  /// One "page <id>: owner seq <o>, allocated at <site> on thread <t>"
  /// line per live page (empty string when nothing is live). The
  /// who-leaked-what report for quiescence points that expect an empty
  /// pool.
  std::string report_live() const;

 private:
  struct Record {
    std::uint64_t owner = kAuditNoOwner;
    const char* site = "(unscoped)";
    std::uint64_t thread_id = 0;
    bool live = false;
    /// Set by on_add_ref, cleared on the next on_alloc: this page has (or
    /// had) multiple holders, so frees need not come from the alloc owner.
    bool shared = false;
    /// Outstanding pins + last-pin attribution (use-after-demote and
    /// pin-leak forensics).
    std::size_t pin_count = 0;
    const char* pin_site = "(never pinned)";
    std::uint64_t pin_thread_id = 0;
    /// Last-free attribution, kept for double-free reports.
    std::uint64_t free_owner = kAuditNoOwner;
    const char* free_site = "(never freed)";
    std::uint64_t free_thread_id = 0;
  };

  [[noreturn]] void die_locked(const char* what, PageId id) const
      REQUIRES(mu_);

  mutable Mutex mu_;
  std::unordered_map<PageId, Record> records_ GUARDED_BY(mu_);
  std::size_t pinned_ GUARDED_BY(mu_) = 0;  ///< pages with pins > 0.
};

#else  // !LSERVE_AUDIT_ENABLED

/// No-op stand-ins: empty types, inline empty bodies. The compiler erases
/// every trace of them (tests/audit_test.cpp static_asserts emptiness).
class PageAuditScope {
 public:
  PageAuditScope(std::uint64_t /*owner*/, const char* /*site*/) noexcept {}
  PageAuditScope(const PageAuditScope&) = delete;
  PageAuditScope& operator=(const PageAuditScope&) = delete;

  static std::uint64_t current_owner() noexcept { return kAuditNoOwner; }
  static const char* current_site() noexcept { return "(audit off)"; }
};

class PageAuditor {
 public:
  void on_alloc(PageId /*id*/) noexcept {}
  void on_free(PageId /*id*/) noexcept {}
  void on_add_ref(PageId /*id*/) noexcept {}
  void on_unref(PageId /*id*/) noexcept {}
  void on_pin(PageId /*id*/) noexcept {}
  void on_unpin(PageId /*id*/) noexcept {}
  void on_demote(PageId /*id*/) noexcept {}
  std::string report_live() const { return std::string(); }
  std::size_t pinned_pages() const { return 0; }
};

#endif  // LSERVE_AUDIT_ENABLED

}  // namespace lserve::kv
