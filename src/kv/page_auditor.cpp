#include "kv/page_auditor.hpp"

#if LSERVE_AUDIT_ENABLED

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

namespace lserve::kv {

namespace {

struct ScopeState {
  std::uint64_t owner = kAuditNoOwner;
  const char* site = "(unscoped)";
};

thread_local ScopeState g_scope;

std::uint64_t this_thread_id() noexcept {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

PageAuditScope::PageAuditScope(std::uint64_t owner, const char* site) noexcept
    : prev_owner_(g_scope.owner), prev_site_(g_scope.site) {
  g_scope.owner = owner;
  g_scope.site = site;
}

PageAuditScope::~PageAuditScope() noexcept {
  g_scope.owner = prev_owner_;
  g_scope.site = prev_site_;
}

std::uint64_t PageAuditScope::current_owner() noexcept {
  return g_scope.owner;
}

const char* PageAuditScope::current_site() noexcept { return g_scope.site; }

void PageAuditor::die_locked(const char* what, PageId id) const {
  const Record& rec = records_.at(id);
  std::fprintf(
      stderr,
      "[lserve page audit] %s: page %u\n"
      "  allocated by owner seq %llu at %s on thread %llx\n"
      "  last freed  by owner seq %llu at %s on thread %llx\n"
      "  this free   by owner seq %llu at %s on thread %llx\n",
      what, static_cast<unsigned>(id),
      static_cast<unsigned long long>(rec.owner), rec.site,
      static_cast<unsigned long long>(rec.thread_id),
      static_cast<unsigned long long>(rec.free_owner), rec.free_site,
      static_cast<unsigned long long>(rec.free_thread_id),
      static_cast<unsigned long long>(PageAuditScope::current_owner()),
      PageAuditScope::current_site(),
      static_cast<unsigned long long>(this_thread_id()));
  std::abort();
}

void PageAuditor::on_alloc(PageId id) {
  MutexLock lock(mu_);
  Record& rec = records_[id];
  if (rec.live) die_locked("allocator handed out a live page", id);
  rec.owner = PageAuditScope::current_owner();
  rec.site = PageAuditScope::current_site();
  rec.thread_id = this_thread_id();
  rec.live = true;
  rec.shared = false;
}

void PageAuditor::on_add_ref(PageId id) noexcept {
  MutexLock lock(mu_);
  const auto it = records_.find(id);
  if (it == records_.end() || !it->second.live) {
    std::fprintf(stderr,
                 "[lserve page audit] add_ref on dead page %u by "
                 "owner seq %llu at %s\n",
                 static_cast<unsigned>(id),
                 static_cast<unsigned long long>(
                     PageAuditScope::current_owner()),
                 PageAuditScope::current_site());
    std::abort();
  }
  it->second.shared = true;
}

void PageAuditor::on_unref(PageId id) noexcept {
  MutexLock lock(mu_);
  const auto it = records_.find(id);
  if (it == records_.end() || !it->second.live) {
    std::fprintf(stderr,
                 "[lserve page audit] unref of dead page %u by "
                 "owner seq %llu at %s\n",
                 static_cast<unsigned>(id),
                 static_cast<unsigned long long>(
                     PageAuditScope::current_owner()),
                 PageAuditScope::current_site());
    std::abort();
  }
}

void PageAuditor::on_pin(PageId id) noexcept {
  MutexLock lock(mu_);
  const auto it = records_.find(id);
  if (it == records_.end() || !it->second.live) {
    std::fprintf(stderr,
                 "[lserve page audit] pin of dead page %u by "
                 "owner seq %llu at %s\n",
                 static_cast<unsigned>(id),
                 static_cast<unsigned long long>(
                     PageAuditScope::current_owner()),
                 PageAuditScope::current_site());
    std::abort();
  }
  Record& rec = it->second;
  if (rec.pin_count++ == 0) ++pinned_;
  rec.pin_site = PageAuditScope::current_site();
  rec.pin_thread_id = this_thread_id();
}

void PageAuditor::on_unpin(PageId id) noexcept {
  MutexLock lock(mu_);
  const auto it = records_.find(id);
  if (it == records_.end() || it->second.pin_count == 0) {
    std::fprintf(stderr,
                 "[lserve page audit] unpin without a pin on page %u by "
                 "owner seq %llu at %s\n",
                 static_cast<unsigned>(id),
                 static_cast<unsigned long long>(
                     PageAuditScope::current_owner()),
                 PageAuditScope::current_site());
    std::abort();
  }
  if (--it->second.pin_count == 0) --pinned_;
}

void PageAuditor::on_demote(PageId id) noexcept {
  MutexLock lock(mu_);
  const auto it = records_.find(id);
  if (it == records_.end() || !it->second.live) {
    std::fprintf(stderr,
                 "[lserve page audit] demote of dead page %u\n",
                 static_cast<unsigned>(id));
    std::abort();
  }
  const Record& rec = it->second;
  if (rec.pin_count != 0) {
    std::fprintf(stderr,
                 "[lserve page audit] demote of pinned page %u "
                 "(%zu pins, last pinned at %s on thread %llx) — a live "
                 "Page& would dangle (use-after-demote)\n",
                 static_cast<unsigned>(id), rec.pin_count, rec.pin_site,
                 static_cast<unsigned long long>(rec.pin_thread_id));
    std::abort();
  }
}

void PageAuditor::on_free(PageId id) noexcept {
  MutexLock lock(mu_);
  const auto it = records_.find(id);
  if (it == records_.end()) {
    std::fprintf(stderr,
                 "[lserve page audit] free of never-allocated page %u by "
                 "owner seq %llu at %s\n",
                 static_cast<unsigned>(id),
                 static_cast<unsigned long long>(
                     PageAuditScope::current_owner()),
                 PageAuditScope::current_site());
    std::abort();
  }
  Record& rec = it->second;
  if (!rec.live) die_locked("double free", id);
  if (rec.pin_count != 0) {
    std::fprintf(stderr,
                 "[lserve page audit] freed while pinned: page %u holds "
                 "%zu pins (last pinned at %s on thread %llx)\n",
                 static_cast<unsigned>(id), rec.pin_count, rec.pin_site,
                 static_cast<unsigned long long>(rec.pin_thread_id));
    std::abort();
  }
  if (!rec.shared && rec.owner != PageAuditScope::current_owner()) {
    die_locked("foreign free (owner mismatch)", id);
  }
  rec.live = false;
  rec.free_owner = PageAuditScope::current_owner();
  rec.free_site = PageAuditScope::current_site();
  rec.free_thread_id = this_thread_id();
}

std::string PageAuditor::report_live() const {
  MutexLock lock(mu_);
  std::string out;
  for (const auto& [id, rec] : records_) {
    if (!rec.live) continue;
    out += "page " + std::to_string(id) + ": owner seq ";
    out += rec.owner == kAuditNoOwner ? std::string("(none)")
                                      : std::to_string(rec.owner);
    out += ", allocated at ";
    out += rec.site;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(rec.thread_id));
    out += " on thread ";
    out += buf;
    if (rec.pin_count != 0) {
      out += ", holding " + std::to_string(rec.pin_count) +
             " pin(s) from ";
      out += rec.pin_site;
    }
    out += "\n";
  }
  return out;
}

std::size_t PageAuditor::pinned_pages() const {
  MutexLock lock(mu_);
  return pinned_;
}

}  // namespace lserve::kv

#endif  // LSERVE_AUDIT_ENABLED
