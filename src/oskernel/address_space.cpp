#include "oskernel/address_space.h"

#include <algorithm>

#include "common/check.h"

namespace hpcos::os {

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kMinor:
      return "minor";
    case FaultKind::kMajor:
      return "major";
    case FaultKind::kHugeTlb:
      return "hugetlb";
  }
  return "?";
}

FaultKind classify_fault(hw::PageSize page, hw::PageSize base_page,
                         bool bulk_populate) {
  if (page != base_page) return FaultKind::kHugeTlb;
  return bulk_populate ? FaultKind::kMajor : FaultKind::kMinor;
}

AddressSpace::AddressSpace(std::uint64_t base) : next_addr_(base) {}

std::uint64_t AddressSpace::map(std::uint64_t length, hw::PageSize page_size,
                                PagingPolicy policy) {
  HPCOS_CHECK(length > 0);
  const std::uint64_t page = hw::bytes(page_size);
  // Align the start to the page size (required for large-page backing).
  next_addr_ = (next_addr_ + page - 1) / page * page;
  const std::uint64_t start = next_addr_;
  VmArea area{.start = start, .length = length, .page_size = page_size};
  if (policy == PagingPolicy::kPrePopulate) {
    area.populated_pages = area.total_pages();
  }
  next_addr_ += area.total_pages() * page;
  areas_.push_back(area);
  return start;
}

namespace {

// The area of the sorted `areas` that starts at `start`, or areas.end().
template <typename Areas>
auto area_starting_at(Areas& areas, std::uint64_t start) {
  const auto it = std::lower_bound(
      areas.begin(), areas.end(), start,
      [](const VmArea& a, std::uint64_t s) { return a.start < s; });
  return it != areas.end() && it->start == start ? it : areas.end();
}

}  // namespace

const VmArea* AddressSpace::find(std::uint64_t start) const {
  const auto it = area_starting_at(areas_, start);
  return it == areas_.end() ? nullptr : &*it;
}

AddressSpace::UnmapResult AddressSpace::unmap(std::uint64_t start,
                                              std::uint64_t length) {
  const auto it = area_starting_at(areas_, start);
  HPCOS_CHECK_MSG(it != areas_.end(), "unmap: not an area start");
  VmArea& area = *it;
  HPCOS_CHECK_MSG(length <= area.length, "unmap: length exceeds area");

  const std::uint64_t page = hw::bytes(area.page_size);
  const std::uint64_t pages_removed =
      std::min((length + page - 1) / page, area.total_pages());
  // Pages populate from the low end, so the unmapped prefix holds
  // min(populated, removed) resident pages.
  const std::uint64_t resident_removed =
      std::min(area.populated_pages, pages_removed);

  UnmapResult r{.pages_released = pages_removed,
                .tlb_flushes = resident_removed};

  if (pages_removed >= area.total_pages()) {
    areas_.erase(it);
  } else {
    // The remainder keeps its place in the order: it still starts below
    // the next area.
    area.start += pages_removed * page;
    area.length -= pages_removed * page;
    area.populated_pages -= resident_removed;
  }
  return r;
}

std::uint64_t AddressSpace::touch(std::uint64_t addr, std::uint64_t length) {
  return touch_batch(addr, length).faults;
}

FaultBatch AddressSpace::touch_batch(std::uint64_t addr,
                                     std::uint64_t length) {
  // Find the area containing addr: last area with start <= addr.
  auto it = std::upper_bound(
      areas_.begin(), areas_.end(), addr,
      [](std::uint64_t a, const VmArea& area) { return a < area.start; });
  HPCOS_CHECK_MSG(it != areas_.begin(), "touch: unmapped address");
  --it;
  VmArea& area = *it;
  HPCOS_CHECK_MSG(addr >= area.start && addr < area.start + area.length,
                  "touch: unmapped address");
  FaultBatch batch{.faults = 0, .page_size = area.page_size};
  const std::uint64_t page = hw::bytes(area.page_size);
  const std::uint64_t end =
      std::min(addr + length, area.start + area.length);
  const std::uint64_t last_page_needed =
      (end - area.start + page - 1) / page;
  if (last_page_needed <= area.populated_pages) return batch;
  batch.faults = last_page_needed - area.populated_pages;
  area.populated_pages = last_page_needed;
  return batch;
}

std::uint64_t AddressSpace::mapped_bytes() const {
  std::uint64_t total = 0;
  for (const VmArea& a : areas_) total += a.length;
  return total;
}

std::uint64_t AddressSpace::resident_bytes() const {
  std::uint64_t total = 0;
  for (const VmArea& a : areas_) total += a.resident_bytes();
  return total;
}

}  // namespace hpcos::os
