#include "sim/simulator.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/fifo.h"
#include "obs/live/counters.h"

namespace hpcos::sim {

namespace {
constexpr const char* kDefaultTag = "event";
}  // namespace

EventId Simulator::schedule_at(SimTime t, EventFn fn, const char* tag) {
  HPCOS_CHECK_MSG(t >= now_, "event scheduled in the past");
  HPCOS_CHECK(fn != nullptr);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  if (++s.gen == 0) s.gen = 1;  // keep 0 as the invalid-id marker
  s.fn = std::move(fn);
  s.tag = tag;
  const Entry entry{t, next_seq_++, slot, s.gen};
  // A delay with a lane appends to it; a delay that recurs on consecutive
  // heap pushes claims a free lane; anything else goes to the heap.
  const SimTime d = t - now_;
  Lane* lane = nullptr;
  for (Lane& l : lanes_) {
    if (l.delay == d) {
      lane = &l;
      break;
    }
  }
  if (lane == nullptr && d == last_heap_delay_) {
    for (Lane& l : lanes_) {
      if (l.empty()) {
        l.delay = d;
        lane = &l;
        break;
      }
    }
  }
  if (lane != nullptr) {
    lane->fifo.push_back(entry);
    ++telemetry_.lane_pushes;
  } else {
    heap_.push(entry);
    last_heap_delay_ = d;
  }
  ++live_;
  ++telemetry_.pushes;
  if (live_ > telemetry_.max_depth) telemetry_.max_depth = live_;
  if (depth_probe_) depth_probe_(now_, live_);
  return EventId{slot, s.gen};
}

EventId Simulator::schedule_after(SimTime dt, EventFn fn, const char* tag) {
  HPCOS_CHECK_MSG(!dt.is_negative(), "negative delay");
  return schedule_at(now_ + dt, std::move(fn), tag);
}

bool Simulator::cancel(EventId id) {
  if (!id.valid() || id.slot >= slots_.size()) return false;
  Slot& s = slots_[id.slot];
  if (s.gen != id.gen || !s.fn) return false;  // fired, cancelled or reused
  s.fn = nullptr;  // its heap entry is now a ghost
  --live_;
  ++telemetry_.cancels;
  return true;
}

Simulator::TagEntry& Simulator::tag_entry(const char* tag) {
  for (TagEntry& e : tags_) {
    if (e.tag == tag) return e;
  }
  // Same literal from another translation unit: match by content so the
  // attribution table stays one row per tag.
  for (TagEntry& e : tags_) {
    if (std::strcmp(e.tag, tag) == 0) return e;
  }
  TagEntry entry;
  entry.tag = tag;
  entry.scope = obs::prof::intern(std::string("des.fire.") + tag);
  tags_.push_back(entry);
  return tags_.back();
}

std::size_t Simulator::next_queue() {
  for (;;) {
    std::size_t q = kNoQueue;
    const Entry* best = nullptr;
    if (!heap_.empty()) {
      q = kHeap;
      best = &heap_.top();
    }
    for (std::size_t i = 0; i < kLanes; ++i) {
      const Lane& l = lanes_[i];
      if (!l.empty() && (best == nullptr || *best > l.front())) {
        q = i;
        best = &l.front();
      }
    }
    if (best == nullptr || slots_[best->slot].fn) return q;
    pop_front(q);
    ++telemetry_.skipped;  // cancelled; its ghost entry dies here
  }
}

void Simulator::pop_front(std::size_t q) {
  const Entry& e = front(q);
  HPCOS_CHECK_MSG(slots_[e.slot].gen == e.gen,
                  "queue slot reused while pending");
  free_slots_.push_back(e.slot);
  if (q == kHeap) {
    heap_.pop();
  } else {
    take_front(lanes_[q].fifo, lanes_[q].head);
  }
}

void Simulator::fire(std::size_t q) {
  EventFn fn;
  const char* tag = nullptr;
  {
    const Entry& e = front(q);
    Slot& s = slots_[e.slot];
    fn.swap(s.fn);  // leaves the slot empty, ready for reuse
    tag = s.tag;
    now_ = e.time;
  }
  pop_front(q);
  --live_;
  ++executed_;
  ++telemetry_.pops;
  if (obs::live::enabled()) {
    // Live progress feed (heartbeats/stall watchdog): count every fire,
    // but sample the gauges coarsely — one publish per 512 events keeps
    // the hot loop at one relaxed add when the meter is running.
    obs::live::add_events(1);
    if ((executed_ & 0x1FF) == 0) {
      obs::live::note_sim_time_ns(now_.count_ns());
      obs::live::note_des_depth(live_);
    }
  }
  if (obs::prof::enabled()) {
    // Decompose the hot loop by handler kind: a profiler scope (so the
    // fire shows up in the hotspot table / flamegraph) plus the per-tag
    // host-time accumulator handler_stats() reports.
    TagEntry& entry = tag_entry(tag != nullptr ? tag : kDefaultTag);
    const obs::prof::ScopedTimer timer(entry.scope);
    fn();
    ++entry.fired;
    entry.host_ns += obs::prof::now_ns() - timer.start_ns();
  } else {
    fn();
  }
  if (depth_probe_) depth_probe_(now_, live_);
}

bool Simulator::step() {
  const std::size_t q = next_queue();
  if (q == kNoQueue) return false;
  fire(q);
  return true;
}

std::size_t Simulator::run_until(SimTime t_end) {
  HPCOS_CHECK(t_end >= now_);
  std::size_t n = 0;
  for (;;) {
    // The earliest live event, chosen once and fired only if it is due.
    const std::size_t q = next_queue();
    if (q == kNoQueue || front(q).time > t_end) break;
    fire(q);
    ++n;
  }
  now_ = t_end;
  if (obs::live::enabled()) obs::live::note_sim_time_ns(now_.count_ns());
  return n;
}

std::size_t Simulator::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::vector<HandlerStat> Simulator::handler_stats() const {
  std::vector<HandlerStat> out;
  out.reserve(tags_.size());
  for (const TagEntry& e : tags_) {
    out.push_back(HandlerStat{e.tag, e.fired, e.host_ns});
  }
  std::sort(out.begin(), out.end(),
            [](const HandlerStat& a, const HandlerStat& b) {
              return a.tag < b.tag;
            });
  return out;
}

void Simulator::aggregate(const std::vector<const Simulator*>& parts) {
  HPCOS_CHECK_MSG(!has_pending(), "aggregate() needs an idle simulator");
  now_ = SimTime::zero();
  executed_ = 0;
  telemetry_ = QueueTelemetry{};
  tags_.clear();
  for (const Simulator* part : parts) {
    now_ = std::max(now_, part->now_);
    executed_ += part->executed_;
    const QueueTelemetry& q = part->telemetry_;
    telemetry_.pushes += q.pushes;
    telemetry_.pops += q.pops;
    telemetry_.cancels += q.cancels;
    telemetry_.skipped += q.skipped;
    telemetry_.max_depth = std::max(telemetry_.max_depth, q.max_depth);
    telemetry_.lane_pushes += q.lane_pushes;
    for (const TagEntry& t : part->tags_) {
      TagEntry& mine = tag_entry(t.tag);
      mine.fired += t.fired;
      mine.host_ns += t.host_ns;
    }
  }
}

}  // namespace hpcos::sim
