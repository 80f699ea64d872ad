// Last-level cache parameters, including A64FX-style sector partitioning.
//
// Fugaku partitions L2 cache blocks into a system sector and an application
// sector ("sector cache", §4.2) so that OS activity on the assistant cores
// cannot evict application working sets. The platform configs record the
// capacity, the sector count and the hit/miss latencies.
#pragma once

#include <cstdint>

#include "common/sim_time.h"

namespace hpcos::hw {

struct CacheParams {
  std::uint64_t capacity_bytes = 0;
  int num_sectors = 1;        // A64FX supports sector partitioning; 1 = none
  SimTime hit_latency = SimTime::ns(10);
  SimTime miss_latency = SimTime::ns(90);
};

}  // namespace hpcos::hw
