#include "mckernel/lwk_scheduler.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace hpcos::mck {

LwkScheduler::LwkScheduler(std::size_t num_cores, hw::CpuSet owned_cores)
    : owned_(std::move(owned_cores)), queues_(num_cores) {}

hw::CoreId LwkScheduler::select_core(const os::Thread& thread,
                                     const std::vector<std::size_t>& load) {
  // Threads stay put once placed (the LWK never migrates); fresh threads
  // fill the least-loaded core, lowest id first — matching mcexec's
  // deterministic one-rank/thread-per-core layout. The sticky test needs
  // no mask temporary, so a wakeup allocates nothing.
  if (thread.affinity.test(thread.core) && owned_.test(thread.core)) {
    return thread.core;
  }
  const hw::CpuSet allowed = thread.affinity & owned_;
  HPCOS_CHECK_MSG(allowed.any(), "no allowed core for LWK thread");
  hw::CoreId best = hw::kInvalidCore;
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (hw::CoreId c = allowed.first(); c != hw::kInvalidCore;
       c = allowed.next(c)) {
    if (load[static_cast<std::size_t>(c)] < best_load) {
      best_load = load[static_cast<std::size_t>(c)];
      best = c;
    }
  }
  return best;
}

void LwkScheduler::enqueue(hw::CoreId core, os::Thread& thread) {
  queues_.at(static_cast<std::size_t>(core)).push_back(thread.tid);
}

os::ThreadId LwkScheduler::pick_next(hw::CoreId core) {
  auto& q = queues_.at(static_cast<std::size_t>(core));
  if (q.empty()) return os::kInvalidThread;
  const os::ThreadId tid = q.front();
  q.erase(q.begin());
  obs::bump(dispatch_counter_);
  return tid;
}

void LwkScheduler::remove(const os::Thread& thread) {
  // Only thread exit calls this, and an exiting thread is running, so it
  // is on no queue; a scan keeps enqueue and pick_next free of an index.
  for (auto& q : queues_) std::erase(q, thread.tid);
}

std::size_t LwkScheduler::runnable_count(hw::CoreId core) const {
  return queues_.at(static_cast<std::size_t>(core)).size();
}

bool LwkScheduler::preempt_on_wakeup(const os::Thread&,
                                     const os::Thread&) const {
  return false;  // strictly co-operative
}

bool LwkScheduler::needs_tick(hw::CoreId, bool) const {
  return false;  // tick-less
}

bool LwkScheduler::should_resched_on_tick(hw::CoreId, os::Thread&) {
  return false;
}

void LwkScheduler::charge(os::Thread&, SimTime) {}

}  // namespace hpcos::mck
