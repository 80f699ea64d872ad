// Unit tests: IHK resource partitioning, OS instance lifecycle, IKC.
#include <gtest/gtest.h>

#include "common/fifo.h"
#include "ihk/ihk.h"
#include "kernel_test_util.h"

namespace hpcos {
namespace {

using namespace hpcos::literals;

class IhkTest : public ::testing::Test {
 protected:
  hw::NodeTopology topo = test::small_topology();
  sim::Simulator sim;
  ihk::IhkManager mgr{sim, topo, topo.all_cores(), topo.system_cores(),
                      8ull << 30};
};

TEST_F(IhkTest, ReservationRules) {
  auto& part = mgr.partition();
  // Protected (system) cores cannot be reserved.
  EXPECT_FALSE(part.reserve_cpus(topo.system_cores()));
  // Application cores can.
  EXPECT_TRUE(part.reserve_cpus(topo.application_cores()));
  // Double reservation fails.
  EXPECT_FALSE(part.reserve_cpus(test::one_core(topo, 3)));
  EXPECT_EQ(part.reserved_cpus().count(), 6u);
  EXPECT_EQ(part.remaining_host_cpus(), topo.system_cores());
}

TEST_F(IhkTest, MemoryReservationBounds) {
  auto& part = mgr.partition();
  EXPECT_FALSE(part.reserve_memory(9ull << 30));  // more than the host has
  EXPECT_TRUE(part.reserve_memory(6ull << 30));
  EXPECT_EQ(part.remaining_host_memory(), 2ull << 30);
  EXPECT_FALSE(part.reserve_memory(3ull << 30));
  part.release_memory(6ull << 30);
  EXPECT_EQ(part.reserved_memory(), 0u);
}

TEST_F(IhkTest, OsInstanceLifecycle) {
  auto& part = mgr.partition();
  ASSERT_TRUE(part.reserve_cpus(topo.application_cores()));
  ASSERT_TRUE(part.reserve_memory(4ull << 30));

  // Creating an instance over un-reserved resources fails.
  EXPECT_EQ(mgr.create_os_instance(topo.system_cores(), 1ull << 30), -1);

  const int id =
      mgr.create_os_instance(topo.application_cores(), 4ull << 30);
  ASSERT_GE(id, 0);
  EXPECT_EQ(mgr.instance(id).status, ihk::OsInstanceStatus::kCreated);
  mgr.boot(id);
  EXPECT_EQ(mgr.instance(id).status, ihk::OsInstanceStatus::kBooted);
  // A running instance cannot be destroyed.
  EXPECT_THROW(mgr.destroy(id), SimError);
  mgr.shutdown(id);
  mgr.destroy(id);
  EXPECT_FALSE(mgr.instance_exists(id));
  // Resources returned to the host: can reserve again.
  EXPECT_TRUE(part.reserve_cpus(topo.application_cores()));
}

TEST_F(IhkTest, IkcDeliversAfterLatencyInOrder) {
  ihk::IkcChannel ch(sim, "test", SimTime::us(1));
  std::vector<std::uint64_t> got;
  std::vector<SimTime> when;
  ch.set_receiver([&](const ihk::IkcMessage& m) {
    got.push_back(m.seq);
    when.push_back(sim.now());
  });
  ihk::IkcMessage a;
  ihk::IkcMessage b;
  ch.post(a);
  sim.run_until(SimTime::ns(500));
  ch.post(b);
  sim.run_all();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 1u);
  EXPECT_EQ(got[1], 2u);
  EXPECT_EQ(when[0], SimTime::us(1));
  EXPECT_EQ(when[1], SimTime::ns(1500));
  EXPECT_EQ(ch.messages_posted(), 2u);
  EXPECT_EQ(ch.messages_delivered(), 2u);
}

TEST_F(IhkTest, IkcEqualTimePostsDeliverInPostOrderWithOwnPayload) {
  ihk::IkcChannel ch(sim, "burst", SimTime::us(1));
  std::vector<os::ThreadId> senders;
  std::vector<std::uint64_t> args;
  ch.set_receiver([&](const ihk::IkcMessage& m) {
    EXPECT_EQ(sim.now(), SimTime::us(1));
    senders.push_back(m.sender);
    args.push_back(m.request.args.arg0);
  });
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ihk::IkcMessage m;
    m.sender = i;
    m.request.args.arg0 = 100 * i;
    ch.post(m);
  }
  sim.run_all();
  EXPECT_EQ(senders, (std::vector<os::ThreadId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(args, (std::vector<std::uint64_t>{100, 200, 300, 400, 500}));
}

TEST_F(IhkTest, IkcReceiverPostingOnItsOwnChannelWaitsOneLatency) {
  ihk::IkcChannel ch(sim, "echo", SimTime::us(3));
  std::vector<std::pair<SimTime, os::ThreadId>> got;
  ch.set_receiver([&](const ihk::IkcMessage& m) {
    got.emplace_back(sim.now(), m.sender);
    if (m.sender < 3) {
      ihk::IkcMessage next;
      next.sender = m.sender + 1;
      ch.post(next);
    }
  });
  ihk::IkcMessage first;
  first.sender = 1;
  ch.post(first);
  sim.run_all();
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, ch.latency() * static_cast<std::int64_t>(i + 1));
    EXPECT_EQ(got[i].second, i + 1);
  }
}

TEST_F(IhkTest, IkcInterleavedChannelsKeepTheirPayloads) {
  ihk::IkcChannel a(sim, "a", SimTime::us(2));
  ihk::IkcChannel b(sim, "b", SimTime::us(3));
  std::vector<std::uint64_t> got_a;
  std::vector<std::uint64_t> got_b;
  a.set_receiver(
      [&](const ihk::IkcMessage& m) { got_a.push_back(m.request.args.arg0); });
  b.set_receiver(
      [&](const ihk::IkcMessage& m) { got_b.push_back(m.request.args.arg0); });
  // Posts alternate between the channels at 1 us steps, so their
  // deliveries interleave in the one event queue.
  for (std::uint64_t i = 0; i < 6; ++i) {
    ihk::IkcMessage m;
    m.request.args.arg0 = i;
    (i % 2 == 0 ? a : b).post(m);
    sim.run_until(SimTime::us(static_cast<std::int64_t>(i + 1)));
  }
  sim.run_all();
  EXPECT_EQ(got_a, (std::vector<std::uint64_t>{0, 2, 4}));
  EXPECT_EQ(got_b, (std::vector<std::uint64_t>{1, 3, 5}));
}

TEST(IkcFifo, TakeFrontKeepsOrderAcrossCompaction) {
  // A backlog that never drains: the consumed prefix is compacted away
  // instead of growing without bound, and order survives it.
  std::vector<ihk::IkcMessage> fifo;
  std::size_t head = 0;
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  auto push = [&] {
    ihk::IkcMessage m;
    m.request.args.arg0 = next_in++;
    fifo.push_back(m);
  };
  for (int i = 0; i < 10; ++i) push();
  for (int round = 0; round < 1000; ++round) {
    push();
    push();
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(take_front(fifo, head).request.args.arg0, next_out++);
    }
    ASSERT_EQ(fifo.size() - head, 10u);
    ASSERT_LT(fifo.size(), 200u);
  }
  while (head < fifo.size()) {
    EXPECT_EQ(take_front(fifo, head).request.args.arg0, next_out++);
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(head, 0u);
  EXPECT_THROW(take_front(fifo, head), SimError);
}

TEST_F(IhkTest, IkcWithoutReceiverFails) {
  ihk::IkcChannel ch(sim, "bad", SimTime::us(1));
  EXPECT_THROW(ch.post(ihk::IkcMessage{}), SimError);
}

TEST(MultiKernelAssembly, BothKernelsShareTheChip) {
  test::MultiKernelNode node;
  EXPECT_EQ(node.bus.attached_kernels(), 2u);
  EXPECT_EQ(node.linux->owned_cores().count(), 2u);
  EXPECT_EQ(node.lwk->owned_cores().count(), 6u);
  EXPECT_FALSE(node.linux->owned_cores().intersects(node.lwk->owned_cores()));
  EXPECT_EQ(node.ihk_mgr->instance(node.os_id).status,
            ihk::OsInstanceStatus::kBooted);
}

TEST(MultiKernelAssembly, LinuxBroadcastTlbiStallsLwkCores) {
  using namespace hpcos::literals;
  test::MultiKernelNode node(
      {}, [](linuxk::LinuxConfig& c) {
        c.tlb_flush = linuxk::TlbFlushMode::kBroadcast;
      });
  // LWK compute victim.
  SimTime done;
  int phase = 0;
  test::spawn_script(*node.lwk, [&](os::ThreadContext& ctx) {
    if (phase++ == 0) {
      ctx.compute(10_ms);
      return true;
    }
    done = ctx.now();
    return false;
  });
  node.sim.run_until(1_ms);
  // A Linux-side process storm of 500 flushes reaches across the kernel
  // boundary: broadcast TLBI covers the whole inner-sharable domain.
  const os::Pid pid = node.linux->create_process(os::ProcessAttrs{});
  node.linux->tlb_shootdown(node.linux->process(pid), /*initiator=*/0, 500);
  node.sim.run_until(1_s);
  EXPECT_EQ(done, 10_ms + 100_us);  // 500 x 200 ns
}

}  // namespace
}  // namespace hpcos
