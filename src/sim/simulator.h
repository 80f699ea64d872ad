// Discrete-event simulation core.
//
// The whole node model runs on this engine: kernel ticks, IRQs, daemon
// wakeups, compute-burst completions and IKC message deliveries are all
// events. Determinism is guaranteed by a strict (time, sequence) total
// order: two events at the same instant fire in scheduling order, so a run
// is a pure function of (configuration, seed) regardless of host threading.
// One simulator drives one node; a DesCluster gives every node its own
// and steps them concurrently (nodes never exchange events).
//
// Queue layout: every pending event is a (time, seq, slot, gen) entry
// pointing into a slot vector that holds the handlers, with a free list of
// slots. An entry waits either in a binary heap or in one of kLanes FIFO
// lanes. A lane serves one push delay `d = t - now()`: a delay claims a
// lane when it recurs (two consecutive heap pushes with the same d) and a
// lane is free; later pushes with that d append to the lane, everything
// else goes to the heap. Lanes are head-indexed vectors (common/fifo.h), so
// a warm queue allocates nothing. Because now() never decreases and seq strictly
// increases, the entries of one lane are already sorted by (time, seq), so
// the earliest of the heap top and the lane heads is the global minimum:
// pop order, EventIds, slot reuse, ghost skipping and every telemetry
// counter are exactly those of a single heap. Periodic work (a compute
// quantum re-armed with schedule_after) thus costs O(1) per event instead
// of a heap sift. An EventId is {slot, gen}: cancel() checks the
// generation and empties the slot, leaving a ghost entry that is discarded
// (and its slot recycled) when it becomes the earliest. A slot is
// therefore reused only after its one entry has popped, so a stale id can
// never cancel a later event.
// Steady-state scheduling allocates nothing in the queue itself. A handler
// allocates unless its closure fits std::function's 16-byte inline buffer
// and is trivially copyable: capture at most two pointer-sized values
// (`this` plus one pointer or id) and park larger payloads in a FIFO owned
// by the scheduling object (ihk::IkcChannel). The hpcos_alloc_tests binary
// (ctest -L alloc) pins a steady-state node run and IKC traffic at zero
// allocations.
//
// Self-observability (see EXPERIMENTS.md "Profiling the simulator"):
//   * queue_telemetry() — always-on push/pop/cancel/max-depth/lane counters
//     (plain single-writer increments; cost is in the noise).
//   * set_depth_probe() — optional queue-depth hook invoked after every
//     push and every executed event; tools feed it into an
//     obs::ts::TimeSeries to get the depth-over-virtual-time series. One
//     branch when unset.
//   * Event tags + handler attribution — schedule sites may pass a static
//     string tag ("linux.tick", "ikc.deliver"); while the host profiler
//     is enabled, step() times each handler under a "des.fire.<tag>"
//     profiler scope and accumulates per-tag host time, decomposing the
//     DES hot loop's cost by handler kind. Zero timing overhead while the
//     profiler is disabled (one branch per event).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "obs/prof/prof.h"

namespace hpcos::sim {

using EventFn = std::function<void()>;

// Handle for cancellation: a queue slot plus the generation the slot had
// when the event was scheduled. Default-constructed ids are invalid.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  bool valid() const { return gen != 0; }
};

// Always-on event-queue counters (single-writer, no synchronization).
struct QueueTelemetry {
  std::uint64_t pushes = 0;      // schedule_at/schedule_after calls
  std::uint64_t pops = 0;        // live events popped and fired
  std::uint64_t cancels = 0;     // successful cancel() calls
  std::uint64_t skipped = 0;     // cancelled entries discarded on pop
  std::size_t max_depth = 0;     // peak pending-event count
  std::uint64_t lane_pushes = 0; // pushes that went to a FIFO lane
};

// Per-tag host-time attribution, populated only while obs::prof is
// enabled. `fired` counts are a pure function of the simulated work;
// `host_ns` is host-dependent.
struct HandlerStat {
  std::string tag;
  std::uint64_t fired = 0;
  std::int64_t host_ns = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedule fn at absolute time t (must be >= now()). `tag` labels the
  // handler for host-time attribution; it must point at storage that
  // outlives the simulator (string literals at call sites).
  EventId schedule_at(SimTime t, EventFn fn, const char* tag = nullptr);
  // Schedule fn `dt` after now (dt >= 0).
  EventId schedule_after(SimTime dt, EventFn fn, const char* tag = nullptr);

  // Cancel a pending event. Returns true when the event had not yet fired
  // (and had not been cancelled before).
  bool cancel(EventId id);

  // Execute the next pending event, if any. Returns false when the queue
  // is empty.
  bool step();

  // Run events with timestamp <= t_end, then advance the clock to t_end.
  // Returns the number of events executed.
  std::size_t run_until(SimTime t_end);

  // Run until the queue drains or `max_events` have executed (a guard
  // against runaway self-scheduling models).
  std::size_t run_all(std::size_t max_events = SIZE_MAX);

  bool has_pending() const { return live_ != 0; }
  std::size_t pending_count() const { return live_; }
  std::uint64_t events_executed() const { return executed_; }

  const QueueTelemetry& queue_telemetry() const { return telemetry_; }

  // Queue-depth hook: probe(now, pending_count) after each push and each
  // executed event. Pass nullptr to detach.
  using DepthProbe = std::function<void(SimTime, std::size_t)>;
  void set_depth_probe(DepthProbe probe) { depth_probe_ = std::move(probe); }

  // Host-time attribution per event tag, tag-sorted (deterministic).
  // Empty unless events fired while obs::prof was enabled.
  std::vector<HandlerStat> handler_stats() const;

  // Replace this simulator's clock and counters with the aggregate of
  // independently run `parts`: events executed, queue telemetry and
  // handler stats are summed in `parts` order, except max_depth (the
  // maximum); now() becomes the latest part clock. Requires an idle
  // simulator (nothing pending).
  void aggregate(const std::vector<const Simulator*>& parts);

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  // A FIFO of entries pushed with one delay: fifo[head..] are pending,
  // earliest first. `delay` stays assigned while the lane is empty, so a
  // recurring delay keeps its lane; it is negative until first claimed.
  struct Lane {
    SimTime delay = SimTime::ns(-1);
    std::vector<Entry> fifo;
    std::size_t head = 0;
    bool empty() const { return head == fifo.size(); }
    const Entry& front() const { return fifo[head]; }
  };
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kHeap = kLanes;     // next_queue(): the heap
  static constexpr std::size_t kNoQueue = kLanes + 1;  // nothing pending

  // A handler waiting in the queue. `fn` is empty while the slot is free,
  // after its event fired, or after it was cancelled.
  struct Slot {
    EventFn fn;
    const char* tag = nullptr;
    std::uint32_t gen = 0;  // bumped on every reuse; 0 is never handed out
  };

  // Per-tag accumulator; tags are interned by pointer identity first
  // (string literals), falling back to a content match so equal literals
  // from different translation units share one slot.
  struct TagEntry {
    const char* tag = nullptr;
    obs::prof::ScopeId scope = 0;
    std::uint64_t fired = 0;
    std::int64_t host_ns = 0;
  };
  TagEntry& tag_entry(const char* tag);

  // The queue (a lane index or kHeap) whose front is the earliest live
  // entry, or kNoQueue. Cancelled entries met on the way are discarded.
  std::size_t next_queue();
  const Entry& front(std::size_t q) const {
    return q == kHeap ? heap_.top() : lanes_[q].front();
  }
  // Removes the front entry of queue `q`; its slot goes on the free list.
  void pop_front(std::size_t q);
  // Pops the live front of queue `q` and runs its handler at its time.
  void fire(std::size_t q);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::array<Lane, kLanes> lanes_;
  SimTime last_heap_delay_ = SimTime::ns(-1);  // delay of the last heap push
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;  // scheduled, not yet fired or cancelled
  QueueTelemetry telemetry_;
  DepthProbe depth_probe_;
  std::vector<TagEntry> tags_;
};

}  // namespace hpcos::sim
