// Unit tests: discrete-event simulator and trace buffer.
#include <gtest/gtest.h>

#include <array>
#include <random>
#include <set>
#include <tuple>

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

// Sorted-set model of the event queue: one (time, seq)-ordered set plus
// the slot, generation and LIFO free-list discipline simulator.h
// documents. The differential test below drives it in lockstep with a
// Simulator, whose lanes must not change anything it can observe.
class RefQueue {
 public:
  struct Item {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    int label;
    bool operator<(const Item& o) const {
      return std::tie(time, seq) < std::tie(o.time, o.seq);
    }
  };

  EventId schedule(SimTime t, int label) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(gen_.size());
      gen_.push_back(0);
      live_.push_back(false);
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    if (++gen_[slot] == 0) gen_[slot] = 1;
    live_[slot] = true;
    pending_.insert(Item{t, next_seq_++, slot, label});
    ++live_count_;
    ++telemetry_.pushes;
    telemetry_.max_depth = std::max(telemetry_.max_depth, live_count_);
    return EventId{slot, gen_[slot]};
  }

  bool cancel(EventId id) {
    if (!id.valid() || id.slot >= gen_.size() || gen_[id.slot] != id.gen ||
        !live_[id.slot]) {
      return false;
    }
    live_[id.slot] = false;
    --live_count_;
    ++telemetry_.cancels;
    return true;
  }

  // Discards cancelled entries at the front, as every peek does.
  void drop_ghosts() {
    while (!pending_.empty() && !live_[pending_.begin()->slot]) {
      free_.push_back(pending_.begin()->slot);
      pending_.erase(pending_.begin());
      ++telemetry_.skipped;
    }
  }

  // Pops the earliest live entry (one must exist).
  Item pop() {
    drop_ghosts();
    const Item it = *pending_.begin();
    pending_.erase(pending_.begin());
    free_.push_back(it.slot);
    live_[it.slot] = false;
    --live_count_;
    ++telemetry_.pops;
    return it;
  }

  // Earliest live entry after drop_ghosts(), or nullptr.
  const Item* front() const {
    return pending_.empty() ? nullptr : &*pending_.begin();
  }
  std::size_t live_count() const { return live_count_; }
  const QueueTelemetry& telemetry() const { return telemetry_; }

 private:
  std::set<Item> pending_;  // live and cancelled entries
  std::vector<std::uint32_t> gen_;
  std::vector<bool> live_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  QueueTelemetry telemetry_;
};

TEST(Simulator, LanesMatchSortedReferenceUnderRandomOps) {
  Simulator s;
  RefQueue ref;
  std::mt19937_64 rng(20211114);
  // Six recurring delays compete for the four lanes.
  const std::array<SimTime, 6> kRecurring = {3_us, 5_us,  8_us,
                                             13_us, 21_us, 34_us};
  std::vector<EventId> ids;
  std::vector<int> fired;
  std::vector<int> expected;
  std::size_t id_mismatches = 0;
  std::size_t time_mismatches = 0;
  std::size_t cancel_mismatches = 0;
  std::size_t cancelled = 0;
  int next_label = 0;
  bool draining = false;

  std::function<void(SimTime, bool)> schedule;
  auto pick_delay = [&]() -> SimTime {
    switch (rng() % 8) {
      case 0:
        return SimTime::zero();
      case 1:
      case 2:
        return SimTime::ns(static_cast<std::int64_t>(rng() % 40'000));
      default:
        return kRecurring[rng() % kRecurring.size()];
    }
  };
  auto cancel_some = [&] {
    // A recent id: mostly pending (lane or heap), sometimes fired or
    // already cancelled.
    const std::size_t back = rng() % std::min<std::size_t>(ids.size(), 64);
    const EventId id = ids[ids.size() - 1 - back];
    const bool got = s.cancel(id);
    if (got != ref.cancel(id)) ++cancel_mismatches;
    if (got) ++cancelled;
  };
  auto on_fire = [&](int label) {
    const RefQueue::Item want = ref.pop();
    fired.push_back(label);
    expected.push_back(want.label);
    if (s.now() != want.time) ++time_mismatches;
    if (draining) return;
    // Re-arm: twice while the queue is short, else slightly less than
    // once per fire, so the depth hovers around 48.
    const std::uint64_t r = rng() % 16;
    if (s.pending_count() < 48) {
      schedule(pick_delay(), rng() % 4 == 0);
      schedule(kRecurring[rng() % kRecurring.size()], false);
    } else if (r < 13) {
      schedule(pick_delay(), rng() % 4 == 0);
    }
    if (r >= 14) cancel_some();
  };
  schedule = [&](SimTime delay, bool absolute) {
    const int label = next_label++;
    const SimTime t = s.now() + delay;
    EventFn fn = [&on_fire, label] { on_fire(label); };
    const EventId got = absolute ? s.schedule_at(t, std::move(fn))
                                 : s.schedule_after(delay, std::move(fn));
    const EventId want = ref.schedule(t, label);
    if (got.slot != want.slot || got.gen != want.gen) ++id_mismatches;
    ids.push_back(got);
  };

  for (int round = 0; round < 3'000; ++round) {
    // Bursts of one recurring delay push it twice in a row, so it claims
    // a lane whenever one is free.
    const SimTime burst = kRecurring[rng() % kRecurring.size()];
    for (std::uint64_t i = rng() % 3; i > 0; --i) schedule(burst, false);
    schedule(pick_delay(), rng() % 2 == 0);
    if (rng() % 3 == 0) cancel_some();
    if (rng() % 8 == 0) {
      s.step();
    } else {
      // Peek: stop before the first event past t_end, ghosts dropped.
      const SimTime t_end =
          s.now() + SimTime::ns(static_cast<std::int64_t>(rng() % 20'000));
      s.run_until(t_end);
      ref.drop_ghosts();
      if (ref.front() != nullptr && ref.front()->time <= t_end) {
        ++time_mismatches;
      }
    }
    ASSERT_EQ(s.pending_count(), ref.live_count());
  }
  draining = true;
  s.run_all();
  ref.drop_ghosts();

  EXPECT_EQ(fired, expected);
  EXPECT_EQ(id_mismatches, 0u);
  EXPECT_EQ(time_mismatches, 0u);
  EXPECT_EQ(cancel_mismatches, 0u);
  EXPECT_EQ(s.pending_count(), ref.live_count());
  const QueueTelemetry& got = s.queue_telemetry();
  const QueueTelemetry& want = ref.telemetry();
  EXPECT_EQ(got.pushes, want.pushes);
  EXPECT_EQ(got.pops, want.pops);
  EXPECT_EQ(got.cancels, want.cancels);
  EXPECT_EQ(got.skipped, want.skipped);
  EXPECT_EQ(got.max_depth, want.max_depth);
  // Both queues carried real traffic, and cancels hit pending entries.
  EXPECT_GT(got.lane_pushes, got.pushes / 4);
  EXPECT_LT(got.lane_pushes, got.pushes - got.pushes / 4);
  EXPECT_GT(cancelled, 100u);
  EXPECT_GT(fired.size(), 10'000u);
}

TEST(Simulator, PeriodicReArmRunsOnALane) {
  Simulator s;
  int left = 1'000;
  std::function<void()> tick = [&] {
    if (--left > 0) s.schedule_after(7_us, tick);
  };
  s.schedule_after(7_us, tick);
  s.run_all();
  // The second push of the 7 us delay claims a lane; every later one
  // appends to it.
  const QueueTelemetry& q = s.queue_telemetry();
  EXPECT_EQ(q.pushes, 1'000u);
  EXPECT_EQ(q.lane_pushes, 999u);
  EXPECT_EQ(s.now(), SimTime::us(7'000));
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
