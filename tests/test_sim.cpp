// Unit tests: discrete-event simulator and trace buffer.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/trace.h"

namespace hpcos::sim {
namespace {

using namespace hpcos::literals;

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(3_us, [&] { order.push_back(3); });
  s.schedule_at(1_us, [&] { order.push_back(1); });
  s.schedule_at(2_us, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3_us);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulator, SameTimestampFifoBySchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(1_us, [&] { order.push_back(1); });
  s.schedule_at(1_us, [&] { order.push_back(2); });
  s.schedule_at(1_us, [&] { order.push_back(3); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(1_us, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // double cancel reports false
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, ScheduleFromWithinEvent) {
  Simulator s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) s.schedule_after(1_us, chain);
  };
  s.schedule_at(SimTime::zero(), chain);
  s.run_all();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 4_us);
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  Simulator s;
  int fired = 0;
  s.schedule_at(2_us, [&] { ++fired; });
  s.schedule_at(10_us, [&] { ++fired; });
  const std::size_t n = s.run_until(5_us);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 5_us);
  EXPECT_TRUE(s.has_pending());
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator s;
  s.schedule_at(5_us, [] {});
  s.run_all();
  EXPECT_THROW(s.schedule_at(1_us, [] {}), SimError);
}

TEST(Simulator, RunAllGuardStopsRunaway) {
  Simulator s;
  std::function<void()> forever = [&] { s.schedule_after(1_ns, forever); };
  s.schedule_at(SimTime::zero(), forever);
  const std::size_t n = s.run_all(100);
  EXPECT_EQ(n, 100u);
  EXPECT_TRUE(s.has_pending());
}

TEST(Simulator, StaleIdCannotCancelEventReusingItsSlot) {
  Simulator s;
  const EventId first = s.schedule_at(1_us, [] {});
  s.run_all();  // fires; its slot returns to the free list
  bool fired = false;
  const EventId second = s.schedule_at(2_us, [&] { fired = true; });
  EXPECT_EQ(second.slot, first.slot);  // the slot was recycled...
  EXPECT_NE(second.gen, first.gen);    // ...under a new generation
  EXPECT_FALSE(s.cancel(first));
  s.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.queue_telemetry().cancels, 0u);
}

TEST(Simulator, CancelAfterFireOrTwiceReturnsFalse) {
  Simulator s;
  const EventId fired = s.schedule_at(1_us, [] {});
  const EventId dropped = s.schedule_at(2_us, [] {});
  s.run_until(1_us);
  EXPECT_FALSE(s.cancel(fired));
  EXPECT_TRUE(s.cancel(dropped));
  EXPECT_FALSE(s.cancel(dropped));
  EXPECT_FALSE(s.cancel(EventId{}));
  // An event cancelling itself from inside its own handler is too late.
  EventId self;
  bool self_cancel = true;
  self = s.schedule_at(3_us, [&] { self_cancel = s.cancel(self); });
  s.run_all();
  EXPECT_FALSE(self_cancel);
  EXPECT_EQ(s.queue_telemetry().cancels, 1u);
}

TEST(Simulator, SameTimestampFifoSurvivesSlotReuse) {
  Simulator s;
  std::vector<int> order;
  // Free three slots (two ghosts, one fired event) so the next events
  // reuse them in reverse: the firing order must follow scheduling
  // order, not slot order.
  const EventId a = s.schedule_at(1_us, [&] { order.push_back(-1); });
  const EventId b = s.schedule_at(1_us, [&] { order.push_back(-2); });
  s.schedule_at(1_us, [] {});
  EXPECT_TRUE(s.cancel(b));
  EXPECT_TRUE(s.cancel(a));
  s.run_until(1_us);
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 6; ++i) {
    slots.push_back(
        s.schedule_at(5_us, [&order, i] { order.push_back(i); }).slot);
  }
  EXPECT_EQ(slots, (std::vector<std::uint32_t>{2, 1, 0, 3, 4, 5}));
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Simulator, CountersExactUnderInterleavedScheduleAndCancel) {
  Simulator s;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(s.schedule_at(SimTime::us(i + 1), [&] { ++fired; }));
  }
  EXPECT_EQ(s.pending_count(), 10u);
  for (int i = 0; i < 10; i += 2) EXPECT_TRUE(s.cancel(ids[i]));  // 5 ghosts
  EXPECT_EQ(s.pending_count(), 5u);
  s.run_until(4_us);  // fires 2 us and 4 us; drops ghosts at 1 and 3 us
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.pending_count(), 3u);
  for (int i = 0; i < 4; ++i) {
    ids.push_back(s.schedule_at(SimTime::us(20 + i), [&] { ++fired; }));
  }
  EXPECT_TRUE(s.cancel(ids[11]));
  EXPECT_TRUE(s.cancel(ids[5]));  // 6 us, still pending
  EXPECT_FALSE(s.cancel(ids[1]));  // fired at 2 us
  EXPECT_EQ(s.pending_count(), 5u);
  s.run_all();
  EXPECT_EQ(fired, 2 + 5);
  EXPECT_FALSE(s.has_pending());
  const QueueTelemetry& q = s.queue_telemetry();
  EXPECT_EQ(q.pushes, 14u);
  EXPECT_EQ(q.pops, 7u);
  EXPECT_EQ(q.cancels, 7u);
  EXPECT_EQ(q.skipped, 7u);  // every cancelled entry is discarded once
  EXPECT_EQ(q.max_depth, 10u);
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(TraceBuffer, DisabledBufferCountsButStoresNothing) {
  TraceBuffer t(0);
  t.record(TraceRecord{.time = 1_us, .core = 0,
                       .category = TraceCategory::kIrq,
                       .duration = 1_us, .label = "x"});
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_recorded(), 1u);
}

TEST(TraceBuffer, RingKeepsNewestAndOrders) {
  TraceBuffer t(3);
  for (int i = 0; i < 5; ++i) {
    t.record(TraceRecord{.time = SimTime::us(i), .core = 0,
                         .category = TraceCategory::kUser,
                         .duration = SimTime::zero(),
                         .label = std::to_string(i)});
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].label, "2");
  EXPECT_EQ(snap[2].label, "4");
  EXPECT_EQ(t.dropped(), 2u);
}

TEST(TraceBuffer, FilterAndDurationAccounting) {
  TraceBuffer t(16);
  t.record(TraceRecord{.time = 1_us, .core = 2,
                       .category = TraceCategory::kKworker,
                       .duration = 5_us, .label = "kw"});
  t.record(TraceRecord{.time = 2_us, .core = 3,
                       .category = TraceCategory::kKworker,
                       .duration = 7_us, .label = "kw"});
  t.record(TraceRecord{.time = 3_us, .core = 2,
                       .category = TraceCategory::kDaemon,
                       .duration = 1_us, .label = "d"});
  EXPECT_EQ(t.filter(TraceCategory::kKworker).size(), 2u);
  EXPECT_EQ(t.total_duration(TraceCategory::kKworker), 12_us);
  EXPECT_EQ(t.total_duration(TraceCategory::kKworker, 2), 5_us);
}

}  // namespace
}  // namespace hpcos::sim
