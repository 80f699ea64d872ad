// Fixed Work Quanta (FWQ) benchmark (LLNL; §6.2 of the paper).
//
// FWQ performs a fixed amount of pure computation per loop iteration and
// records each iteration's wall time; any excess over the minimum is OS
// noise. The paper configures ~6.5 ms quanta (the largest value below the
// 10 ms Linux tick) and runs one FWQ thread per application core.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "oskernel/kernel.h"

namespace hpcos::noise {

struct FwqConfig {
  // Work per iteration (pure compute, no memory / file I/O).
  SimTime work_quantum = SimTime::from_ms(6.5);
  std::uint64_t iterations = 1000;
};

// One thread's iteration timings, in the order measured, stored sparsely.
// Almost every FWQ iteration takes exactly the work quantum, so the trace
// keeps that base time, the sample count and only the iterations whose
// time differs from it: O(disturbed iterations) memory instead of
// O(iterations). The form is lossless; times() expands it back to the
// dense series.
class FwqTrace {
 public:
  // A disturbed iteration: its position in the series and its time.
  struct Sample {
    std::uint64_t index = 0;
    SimTime time;
    bool operator==(const Sample&) const = default;
  };

  FwqTrace() = default;
  FwqTrace(hw::CoreId core, SimTime base) : core_(core), base_(base) {}

  // Append the next iteration's time.
  void record(SimTime t) {
    if (t != base_) disturbed_.push_back(Sample{samples_, t});
    ++samples_;
  }

  hw::CoreId core() const { return core_; }
  SimTime base() const { return base_; }
  std::uint64_t size() const { return samples_; }
  // Iterations that took exactly base(): size() - disturbed().size().
  std::uint64_t quiet() const { return samples_ - disturbed_.size(); }
  // Iterations whose time differs from base(), by ascending index.
  const std::vector<Sample>& disturbed() const { return disturbed_; }

  // The dense series: size() times, base() except where disturbed.
  std::vector<SimTime> times() const;

 private:
  hw::CoreId core_ = hw::kInvalidCore;
  SimTime base_;
  std::uint64_t samples_ = 0;
  std::vector<Sample> disturbed_;
};

// The FWQ loop as a thread body. Timestamps come from the simulated clock,
// so every preemption, interrupt and stall the kernel imposes shows up in
// the iteration deltas exactly as it would on real hardware.
class FwqThread final : public os::ThreadBody {
 public:
  explicit FwqThread(FwqConfig config);

  void step(os::ThreadContext& ctx) override;

  bool finished() const { return finished_; }
  const FwqTrace& trace() const { return trace_; }
  // Move the trace out (once, after finished()).
  FwqTrace take_trace() { return std::move(trace_); }

 private:
  FwqConfig config_;
  FwqTrace trace_;
  std::uint64_t iter_ = 0;
  SimTime iter_start_;
  bool started_ = false;
  bool finished_ = false;
};

// Convenience driver: spawn one FWQ thread pinned to each core in `cores`
// on `kernel`, run the simulation until all finish, and return the traces
// (indexed like `cores`). The caller owns the simulator clock; this runs
// it forward, stopping at the event that finishes the last thread.
std::vector<FwqTrace> run_fwq(os::NodeKernel& kernel,
                              const hw::CpuSet& cores, FwqConfig config);

}  // namespace hpcos::noise
