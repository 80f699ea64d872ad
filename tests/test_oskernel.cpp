// Unit tests: address spaces and the core kernel execution machinery
// (exercised through the concrete McKernel/LinuxKernel, which is how the
// machinery is always used).
#include <gtest/gtest.h>

#include "kernel_test_util.h"
#include "oskernel/address_space.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;
using test::MultiKernelNode;
using test::ScriptBody;
using test::spawn_script;

// ---- AddressSpace ----

TEST(AddressSpace, DemandMappingPopulatesOnTouch) {
  os::AddressSpace as;
  const auto addr = as.map(10 * 64 * 1024, hw::PageSize::k64K,
                           os::PagingPolicy::kDemand);
  EXPECT_EQ(as.resident_bytes(), 0u);
  EXPECT_EQ(as.mapped_bytes(), 10u * 64 * 1024);
  EXPECT_EQ(as.touch(addr, 64 * 1024), 1u);        // one page
  EXPECT_EQ(as.touch(addr, 64 * 1024), 0u);        // already resident
  EXPECT_EQ(as.touch(addr, 5 * 64 * 1024), 4u);    // four more
  EXPECT_EQ(as.resident_bytes(), 5u * 64 * 1024);
}

TEST(AddressSpace, PrePopulateFaultsUpFront) {
  os::AddressSpace as;
  const auto addr = as.map(4 << 20, hw::PageSize::k2M,
                           os::PagingPolicy::kPrePopulate);
  EXPECT_EQ(as.resident_bytes(), 4u << 20);
  EXPECT_EQ(as.touch(addr, 4 << 20), 0u);
}

TEST(AddressSpace, UnmapReportsFlushesForResidentPagesOnly) {
  os::AddressSpace as;
  const auto addr =
      as.map(8 << 20, hw::PageSize::k2M, os::PagingPolicy::kDemand);
  as.touch(addr, 2 << 20);  // one 2M page resident
  const auto r = as.unmap(addr, 8 << 20);
  EXPECT_EQ(r.pages_released, 4u);
  EXPECT_EQ(r.tlb_flushes, 1u);
  EXPECT_EQ(as.area_count(), 0u);
}

TEST(AddressSpace, PartialUnmapShrinksArea) {
  os::AddressSpace as;
  const auto addr = as.map(4 * 64 * 1024, hw::PageSize::k64K,
                           os::PagingPolicy::kPrePopulate);
  const auto r = as.unmap(addr, 2 * 64 * 1024);
  EXPECT_EQ(r.pages_released, 2u);
  EXPECT_EQ(r.tlb_flushes, 2u);
  EXPECT_EQ(as.area_count(), 1u);
  EXPECT_EQ(as.mapped_bytes(), 2u * 64 * 1024);
  // The remainder is addressable.
  EXPECT_EQ(as.touch(addr + 2 * 64 * 1024, 64 * 1024), 0u);  // resident
}

TEST(AddressSpace, MisuseThrows) {
  os::AddressSpace as;
  const auto addr =
      as.map(64 * 1024, hw::PageSize::k64K, os::PagingPolicy::kDemand);
  EXPECT_THROW(as.unmap(addr + 1, 64), SimError);
  EXPECT_THROW(as.touch(addr - 4096, 64), SimError);
  EXPECT_THROW(as.unmap(addr, 1 << 30), SimError);
}

TEST(AddressSpace, MappingsAlignedToPageSize) {
  os::AddressSpace as;
  const auto a1 =
      as.map(1000, hw::PageSize::k64K, os::PagingPolicy::kDemand);
  const auto a2 =
      as.map(1000, hw::PageSize::k2M, os::PagingPolicy::kDemand);
  EXPECT_EQ(a1 % (64 * 1024), 0u);
  EXPECT_EQ(a2 % (2 << 20), 0u);
  EXPECT_NE(a1, a2);
}

// ---- execution machinery (on the quiet multi-kernel node's LWK) ----

TEST(KernelExec, ComputeTakesExactlyItsWork) {
  MultiKernelNode node;
  SimTime done;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (ctx.now().is_zero()) {
      ctx.compute(5_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 5_ms);
}

TEST(KernelExec, SleepWakesOnTime) {
  MultiKernelNode node;
  std::vector<SimTime> marks;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    marks.push_back(ctx.now());
    if (marks.size() == 1) {
      ctx.sleep_for(3_ms);
      return true;
    }
    return false;
  });
  node.sim.run_until(1_s);
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[1] - marks[0], 3_ms);
}

TEST(KernelExec, CooperativeRoundRobinOnOneCore) {
  MultiKernelNode node;
  const auto pin = test::one_core(node.topo, 2);
  std::vector<int> order;
  for (int id = 0; id < 2; ++id) {
    int remaining = 3;
    spawn_script(
        *node.lwk,
        [&, id, remaining](os::ThreadContext& ctx) mutable {
          if (remaining-- == 0) return false;
          order.push_back(id);
          ctx.compute(1_ms);
          return true;
        },
        os::SpawnAttrs{.name = "rr", .affinity = pin});
  }
  node.sim.run_until(1_s);
  // Co-operative: the first thread runs its 1 ms bursts back-to-back and
  // only a completed burst lets the other in; with compute->step->compute
  // each burst ends with a re-request, so the LWK interleaves at burst
  // granularity after the first thread's step returns... The essential
  // property: both make progress and each ran exactly 3 bursts.
  EXPECT_EQ(order.size(), 6u);
  EXPECT_EQ(std::count(order.begin(), order.end(), 0), 3);
  EXPECT_EQ(std::count(order.begin(), order.end(), 1), 3);
}

TEST(KernelExec, InterruptExtendsRunningBurst) {
  MultiKernelNode node;
  SimTime done;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (ctx.now().is_zero()) {
      ctx.compute(10_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(1_ms);
  node.lwk->interrupt_core(2, 500_us, sim::TraceCategory::kIrq, "test-irq");
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 10_ms + 500_us);
  EXPECT_EQ(node.lwk->accounting(2).interrupts, 1u);
  EXPECT_EQ(node.lwk->accounting(2).kernel, 500_us);
}

TEST(KernelExec, NestedInterruptsAccumulate) {
  MultiKernelNode node;
  SimTime done;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (ctx.now().is_zero()) {
      ctx.compute(10_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(1_ms);
  node.lwk->interrupt_core(2, 400_us, sim::TraceCategory::kIrq, "a");
  node.sim.run_until(SimTime::from_ms(1.2));  // still inside irq
  node.lwk->interrupt_core(2, 300_us, sim::TraceCategory::kIrq, "b");
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 10_ms + 700_us);
}

TEST(KernelExec, StallInflatesWallTimeWithoutKernelTime) {
  MultiKernelNode node;
  SimTime done;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (ctx.now().is_zero()) {
      ctx.compute(10_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(2_ms);
  node.lwk->stall_core(2, 200_us, sim::TraceCategory::kUser, "tlbi-victim");
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 10_ms + 200_us);
  EXPECT_EQ(node.lwk->accounting(2).stall, 200_us);
  EXPECT_EQ(node.lwk->accounting(2).kernel, SimTime::zero());
}

TEST(KernelExec, StallOnIdleCoreIsNoop) {
  MultiKernelNode node;
  node.lwk->stall_core(3, 1_ms, sim::TraceCategory::kUser, "x");
  EXPECT_EQ(node.lwk->accounting(3).stall, SimTime::zero());
}

TEST(KernelExec, StallAllExceptSkipsInitiator) {
  MultiKernelNode node;
  std::vector<SimTime> dones(2);
  for (int i = 0; i < 2; ++i) {
    spawn_script(
        *node.lwk,
        [&, i](os::ThreadContext& ctx) {
          if (ctx.now().is_zero()) {
            ctx.compute(10_ms);
            return true;
          }
          dones[static_cast<std::size_t>(i)] = ctx.now();
          return false;
        },
        os::SpawnAttrs{.affinity = test::one_core(node.topo, 2 + i)});
  }
  node.sim.run_until(1_ms);
  node.lwk->stall_all_cores_except(2, 100_us, sim::TraceCategory::kUser,
                                   "bcast");
  node.sim.run_until(1_s);
  EXPECT_EQ(dones[0], 10_ms);            // initiator unaffected
  EXPECT_EQ(dones[1], 10_ms + 100_us);   // victim stalled
}

TEST(KernelExec, AccountingSplitsUserAndKernel) {
  MultiKernelNode node;
  int phase = 0;
  spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase == 0) {
      ++phase;
      ctx.compute(4_ms);
      return true;
    }
    if (phase == 1) {
      ++phase;
      ctx.invoke(os::Syscall::kGetTimeOfDay);
      return true;
    }
    return false;
  });
  node.sim.run_until(1_s);
  const auto& acct = node.lwk->accounting(2);
  EXPECT_EQ(acct.user, 4_ms);
  // gettimeofday: local cost + trap.
  EXPECT_EQ(acct.kernel, node.lwk->config().local_syscall_cost +
                             node.lwk->config().costs.syscall_trap);
}

TEST(KernelExec, ThreadAndProcessLifecycle) {
  MultiKernelNode node;
  const auto tid = spawn_script(*node.lwk, [](os::ThreadContext&) {
    return false;  // exit immediately
  });
  EXPECT_TRUE(node.lwk->thread_alive(tid));
  node.sim.run_until(1_ms);
  EXPECT_FALSE(node.lwk->thread_alive(tid));
  EXPECT_EQ(node.lwk->live_thread_count(), 0u);
  EXPECT_EQ(node.lwk->thread(tid).state, os::ThreadState::kExited);
}

TEST(KernelExec, UnknownTidsAreRejectedOrIgnored) {
  MultiKernelNode node;
  const auto tid = spawn_script(*node.lwk, [](os::ThreadContext& ctx) {
    ctx.compute(1_ms);
    return true;
  });
  const os::ThreadId never_issued = tid + 100;
  for (os::ThreadId bad : {os::kInvalidThread, never_issued}) {
    try {
      (void)node.lwk->thread(bad);
      ADD_FAILURE() << "thread(" << bad << ") did not throw";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown tid"), std::string::npos);
    }
    EXPECT_FALSE(node.lwk->thread_alive(bad));
    node.lwk->wake(bad);  // no-op
  }
  node.sim.run_until(10_ms);
  EXPECT_TRUE(node.lwk->thread_alive(tid));
  EXPECT_EQ(node.lwk->live_thread_count(), 1u);
}

TEST(KernelExec, ExitedThreadStaysReadableAndIgnoresWake) {
  MultiKernelNode node;
  int steps = 0;
  const auto tid = spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (steps++ > 0) return false;
    ctx.compute(2_ms);
    return true;
  });
  node.sim.run_until(5_ms);
  EXPECT_FALSE(node.lwk->thread_alive(tid));
  node.lwk->wake(tid);  // no-op: the record stays exited
  node.sim.run_until(10_ms);
  const os::Thread& t = node.lwk->thread(tid);
  EXPECT_EQ(t.tid, tid);
  EXPECT_EQ(t.state, os::ThreadState::kExited);
  EXPECT_EQ(t.user_time, 2_ms);
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(node.lwk->live_thread_count(), 0u);
}

TEST(KernelExec, AffinityRestrictsPlacement) {
  MultiKernelNode node;
  const auto pin = test::one_core(node.topo, 5);
  hw::CoreId ran_on = hw::kInvalidCore;
  spawn_script(
      *node.lwk,
      [&](os::ThreadContext& ctx) {
        ran_on = ctx.core();
        return false;
      },
      os::SpawnAttrs{.affinity = pin});
  node.sim.run_until(1_ms);
  EXPECT_EQ(ran_on, 5);
}

TEST(KernelExec, SpawnWithBadAffinityThrows) {
  MultiKernelNode node;
  // Core 0 is a Linux/system core; the LWK does not own it.
  EXPECT_THROW(
      spawn_script(*node.lwk, [](os::ThreadContext&) { return false; },
                   os::SpawnAttrs{.affinity = test::one_core(node.topo, 0)}),
      SimError);
}

}  // namespace
}  // namespace hpcos
