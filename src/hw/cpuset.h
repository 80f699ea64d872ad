// CPU mask, modeled after the Linux kernel's cpumask_t.
//
// Used wherever the real systems use affinity masks: cgroup cpusets, IRQ
// smp_affinity, kworker binding, blk_mq_hw_ctx.cpumask, and IHK's core
// reservation.
//
// Stored as 64-bit words, bit i of word i / 64 standing for core i, with
// the bits past capacity() kept zero: count() is a popcount per word,
// next() a count-trailing-zeros, and the set operations go word by word.
// Two sets are equal when both capacity and members match.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/ids.h"

namespace hpcos::hw {

class CpuSet {
 public:
  CpuSet() = default;
  explicit CpuSet(std::size_t num_cores);

  // Construct from an explicit list of core ids ("taskset -c 2,3,7" style).
  static CpuSet of(std::size_t num_cores, std::initializer_list<CoreId> ids);
  // All cores set.
  static CpuSet all(std::size_t num_cores);
  // Contiguous range [first, last] inclusive, like "0-47".
  static CpuSet range(std::size_t num_cores, CoreId first, CoreId last);

  std::size_t capacity() const { return size_; }
  bool test(CoreId id) const;
  void set(CoreId id, bool value = true);
  void clear();

  std::size_t count() const;
  bool empty() const;
  bool any() const { return !empty(); }

  // First set core, or kInvalidCore when empty.
  CoreId first() const;
  // Next set core strictly after `id`, or kInvalidCore.
  CoreId next(CoreId id) const;
  std::vector<CoreId> to_vector() const;

  CpuSet operator&(const CpuSet& o) const;
  CpuSet operator|(const CpuSet& o) const;
  // Cores in *this but not in o.
  CpuSet minus(const CpuSet& o) const;
  bool intersects(const CpuSet& o) const;
  bool contains(const CpuSet& o) const;
  bool operator==(const CpuSet& o) const = default;

  // "0-47" / "48,49" style rendering, mirroring /sys cpulist files.
  std::string to_string() const;

 private:
  std::size_t size_ = 0;             // capacity in cores
  std::vector<std::uint64_t> words_; // (size_ + 63) / 64 words
};

}  // namespace hpcos::hw
