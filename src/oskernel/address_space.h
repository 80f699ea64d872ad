// Virtual address space model.
//
// Carries the quantities the study turns on: how many pages back a mapping
// (page-fault counts under demand paging), which page size backs it (TLB
// reach), and how many TLB invalidations an unmap generates (the A64FX
// broadcast-TLBI noise source of §4.2.2 — "operations that release large
// amounts of memory ... can cause hundreds to thousands [of] consecutive
// TLB flushes").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/tlb.h"

namespace hpcos::os {

enum class PagingPolicy : std::uint8_t {
  kDemand,       // populate on first touch
  kPrePopulate,  // populate at map time (MAP_POPULATE / hugeTLBfs prealloc)
};

// Fault taxonomy for span tracing (the Figure 5-7 attribution): a demand
// first-touch of a base page is a minor fault; a bulk populate at map time
// (MAP_POPULATE prepaging — the closest thing to a major-fault storm in a
// diskless model) is major; any fault on a large-page-backed area is the
// hugeTLB path with its own allocator and cost.
enum class FaultKind : std::uint8_t {
  kMinor,
  kMajor,
  kHugeTlb,
};
std::string to_string(FaultKind k);

// One contiguous batch of page faults taken on a single VM area.
struct FaultBatch {
  std::uint64_t faults = 0;
  hw::PageSize page_size = hw::PageSize::k4K;
};

// Classify a fault batch: large pages take the hugeTLB path regardless of
// how they were triggered; base pages split on demand vs. bulk populate.
FaultKind classify_fault(hw::PageSize page, hw::PageSize base_page,
                         bool bulk_populate);

struct VmArea {
  std::uint64_t start = 0;
  std::uint64_t length = 0;
  hw::PageSize page_size = hw::PageSize::k4K;
  // Pages populated so far (demand paging fills from the low end, matching
  // the sequential first-touch of the workload models).
  std::uint64_t populated_pages = 0;

  std::uint64_t total_pages() const {
    return (length + hw::bytes(page_size) - 1) / hw::bytes(page_size);
  }
  std::uint64_t resident_bytes() const {
    return populated_pages * hw::bytes(page_size);
  }
};

class AddressSpace {
 public:
  explicit AddressSpace(std::uint64_t base = 0x0000'7000'0000'0000ull);

  // Create a mapping; returns its start address. Never fails (the model
  // does not emulate address-space exhaustion).
  std::uint64_t map(std::uint64_t length, hw::PageSize page_size,
                    PagingPolicy policy);

  struct UnmapResult {
    std::uint64_t pages_released = 0;
    // TLB invalidations the kernel must issue: one per released page that
    // was actually populated.
    std::uint64_t tlb_flushes = 0;
  };
  // Unmap from the start of an existing area; length may be shorter than
  // the area (the remainder stays mapped). `start` must be an area start.
  UnmapResult unmap(std::uint64_t start, std::uint64_t length);

  // First-touch of [addr, addr+length): returns the number of page faults
  // (pages newly populated). Zero for already-resident ranges.
  std::uint64_t touch(std::uint64_t addr, std::uint64_t length);

  // Like touch(), but also reports the backing page size so callers can
  // price and classify the batch without a second area lookup.
  FaultBatch touch_batch(std::uint64_t addr, std::uint64_t length);

  std::uint64_t mapped_bytes() const;
  std::uint64_t resident_bytes() const;
  std::size_t area_count() const { return areas_.size(); }
  // Every area, by ascending start address.
  const std::vector<VmArea>& areas() const { return areas_; }
  // The area that starts at `start`, or nullptr.
  const VmArea* find(std::uint64_t start) const;

 private:
  // Sorted by start. map() hands out ascending addresses, so it appends;
  // a warm map/unmap loop reuses the vector's storage and never allocates.
  std::vector<VmArea> areas_;
  std::uint64_t next_addr_;
};

}  // namespace hpcos::os
