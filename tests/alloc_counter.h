// Heap-allocation counter for hpcos_alloc_tests (alloc_counter.cpp
// replaces the global operator new/delete of that binary).
#pragma once

#include <cstdint>

namespace hpcos::test {

// Allocations made through operator new since the program started.
std::uint64_t allocation_count();

}  // namespace hpcos::test
