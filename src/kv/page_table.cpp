#include "kv/page_table.hpp"

namespace lserve::kv {

SelectedPageTable full_page_table(const PageTableView& view) {
  SelectedPageTable table;
  table.reserve(view.pages.size());
  for (std::size_t b = 0; b < view.pages.size(); ++b) {
    table.push_back({view.pages[b], static_cast<std::uint32_t>(b)});
  }
  return table;
}

}  // namespace lserve::kv
