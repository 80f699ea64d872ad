// Zero-allocation witnesses for the DES event path (ctest -L alloc).
//
// Once warm, a node's per-event work must not touch the heap: every
// handler closure fits std::function's inline buffer, the thread table is
// a vector, and IKC payloads wait in a reusing FIFO (see sim/simulator.h).
// Each check warms up first (queue slots, lanes, FIFO storage and
// scheduler containers reach their steady-state capacity), then counts
// operator new calls over a measured window that contains no gtest
// assertions.
#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "ihk/ikc.h"
#include "kernel_test_util.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;

TEST(ZeroAlloc, ComputeLoopOnEveryApplicationCore) {
  test::LinuxNode node;
  node.trace = sim::TraceBuffer();  // capacity 0: tracing off
  const SimTime kQuantum = SimTime::us(100);
  const hw::CpuSet app = node.topo.application_cores();
  for (hw::CoreId core : app.to_vector()) {
    test::spawn_script(
        *node.kernel,
        [kQuantum](os::ThreadContext& ctx) {
          ctx.compute(kQuantum);
          return true;
        },
        os::SpawnAttrs{.affinity = test::one_core(node.topo, core)});
  }
  node.sim.run_until(10_ms);  // warm-up

  const std::uint64_t events0 = node.sim.events_executed();
  const std::uint64_t allocs0 = test::allocation_count();
  node.sim.run_until(300_ms);
  const std::uint64_t allocs = test::allocation_count() - allocs0;
  const std::uint64_t events = node.sim.events_executed() - events0;

  // One os.burst.done per quantum per core: 6 cores x 2900 quanta.
  EXPECT_GE(events, 10'000u);
  EXPECT_EQ(allocs, 0u);
}

// A sleeper waking on the core it is pinned to: the scheduler's sticky
// path tests the affinity in place, and its queues keep no side index.
std::uint64_t sleep_wake_allocations(sim::Simulator& sim,
                                     os::NodeKernel& kernel,
                                     hw::CpuSet affinity,
                                     std::uint64_t& wakeups) {
  test::spawn_script(
      kernel,
      [&wakeups](os::ThreadContext& ctx) {
        // Alternate a short burst with a sleep: one wakeup per cycle.
        if (++wakeups % 2 == 0) {
          ctx.sleep_for(SimTime::us(50));
        } else {
          ctx.compute(SimTime::us(10));
        }
        return true;
      },
      os::SpawnAttrs{.affinity = std::move(affinity)});
  // Warm-up past 1 s: until the first residual 1 Hz tick expires, the
  // ghosts of re-armed ones pile up in the queue and grow it.
  sim.run_until(sim.now() + 1'100_ms);

  const std::uint64_t allocs0 = test::allocation_count();
  sim.run_until(sim.now() + 100_ms);
  return test::allocation_count() - allocs0;
}

TEST(ZeroAlloc, SleepWakeOfPinnedLinuxThread) {
  test::LinuxNode node;
  node.trace = sim::TraceBuffer();
  std::uint64_t steps = 0;
  const std::uint64_t allocs = sleep_wake_allocations(
      node.sim, *node.kernel, test::one_core(node.topo, 3), steps);
  EXPECT_GE(steps, 30'000u);  // 60 us per cycle over 1.2 s
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAlloc, SleepWakeOfPinnedLwkThread) {
  test::MultiKernelNode node;
  node.trace = sim::TraceBuffer();
  std::uint64_t steps = 0;
  const std::uint64_t allocs = sleep_wake_allocations(
      node.sim, *node.lwk, test::one_core(node.topo, 4), steps);
  EXPECT_GE(steps, 30'000u);
  EXPECT_EQ(allocs, 0u);
}

// A pinned thread mapping and unmapping 2 MiB in a loop, like the
// multi-kernel offload benchmark's threads: the address space keeps its
// areas in a vector whose storage the loop reuses.
std::uint64_t map_unmap_allocations(sim::Simulator& sim,
                                    os::NodeKernel& kernel,
                                    hw::CpuSet affinity,
                                    std::uint64_t& unmaps) {
  test::spawn_script(
      kernel,
      [&unmaps, mapped = false](os::ThreadContext& ctx) mutable {
        constexpr std::uint64_t kBytes = 2ull << 20;
        if (mapped) {
          const auto addr =
              static_cast<std::uint64_t>(ctx.last_syscall().value);
          ctx.invoke(os::Syscall::kMunmap,
                     os::SyscallArgs{.arg0 = addr, .arg1 = kBytes});
          ++unmaps;
        } else {
          ctx.invoke(os::Syscall::kMmap, os::SyscallArgs{.arg0 = kBytes});
        }
        mapped = !mapped;
        return true;
      },
      os::SpawnAttrs{.affinity = std::move(affinity)});
  sim.run_until(sim.now() + 1'100_ms);  // warm-up, as for sleep/wake

  const std::uint64_t allocs0 = test::allocation_count();
  sim.run_until(sim.now() + 100_ms);
  return test::allocation_count() - allocs0;
}

TEST(ZeroAlloc, MapUnmapLoopOnLwk) {
  test::MultiKernelNode node;
  node.trace = sim::TraceBuffer();
  std::uint64_t unmaps = 0;
  const std::uint64_t allocs = map_unmap_allocations(
      node.sim, *node.lwk, test::one_core(node.topo, 4), unmaps);
  EXPECT_GE(unmaps, 1'000u);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAlloc, MapUnmapLoopOnLinux) {
  test::LinuxNode node;
  node.trace = sim::TraceBuffer();
  std::uint64_t unmaps = 0;
  const std::uint64_t allocs = map_unmap_allocations(
      node.sim, *node.kernel, test::one_core(node.topo, 3), unmaps);
  EXPECT_GE(unmaps, 1'000u);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAlloc, IkcPingPong) {
  sim::Simulator sim;
  ihk::IkcChannel ping(sim, "ping", SimTime::us(1));
  ihk::IkcChannel pong(sim, "pong", SimTime::us(2));
  std::uint64_t round_trips = 0;
  std::uint64_t limit = 0;
  // Each receiver answers on the other channel with the payload it got.
  ping.set_receiver([&](const ihk::IkcMessage& m) { pong.post(m); });
  pong.set_receiver([&](const ihk::IkcMessage& m) {
    if (++round_trips < limit) ping.post(m);
  });
  auto play = [&](std::uint64_t trips) {
    limit = round_trips + trips;
    // Several messages in flight at once, so both FIFOs hold a backlog.
    for (std::uint64_t i = 0; i < 4; ++i) {
      ihk::IkcMessage m;
      m.sender = i + 1;
      ping.post(m);
    }
    sim.run_all();
  };
  play(100);  // warm-up

  const std::uint64_t trips0 = round_trips;
  const std::uint64_t allocs0 = test::allocation_count();
  play(2'000);
  const std::uint64_t allocs = test::allocation_count() - allocs0;

  EXPECT_GE(round_trips - trips0, 1'000u);
  EXPECT_EQ(ping.messages_posted(), ping.messages_delivered());
  EXPECT_EQ(pong.messages_posted(), pong.messages_delivered());
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace hpcos
