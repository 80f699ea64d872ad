// Head-indexed FIFO over a std::vector.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace hpcos {

// Pops the oldest element of a head-indexed FIFO: `fifo[head..]` holds the
// waiting elements, oldest first. The vector's storage is reused: it is
// cleared when the last element leaves and compacted once the consumed
// prefix is at least half of it, so a FIFO in steady state allocates
// nothing (unlike std::deque, which allocates a block every few elements).
template <typename T>
T take_front(std::vector<T>& fifo, std::size_t& head) {
  HPCOS_CHECK_MSG(head < fifo.size(), "take_front on an empty FIFO");
  T front = std::move(fifo[head]);
  if (++head == fifo.size()) {
    fifo.clear();
    head = 0;
  } else if (head >= 64 && 2 * head >= fifo.size()) {
    fifo.erase(fifo.begin(),
               fifo.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  return front;
}

}  // namespace hpcos
