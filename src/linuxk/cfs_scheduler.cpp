#include "linuxk/cfs_scheduler.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace hpcos::linuxk {
namespace {

double to_vr(SimTime t) { return static_cast<double>(t.count_ns()); }

}  // namespace

CfsScheduler::CfsScheduler(std::size_t num_cores, hw::CpuSet owned_cores,
                           hw::CpuSet nohz_full_cores, CfsParams params,
                           RngStream rng)
    : owned_(std::move(owned_cores)),
      nohz_full_(std::move(nohz_full_cores)),
      params_(params),
      queues_(num_cores),
      rng_(rng) {}

CfsScheduler::Queue& CfsScheduler::queue(hw::CoreId core) {
  HPCOS_CHECK(core >= 0 &&
              static_cast<std::size_t>(core) < queues_.size());
  return queues_[static_cast<std::size_t>(core)];
}

const CfsScheduler::Queue& CfsScheduler::queue(hw::CoreId core) const {
  HPCOS_CHECK(core >= 0 &&
              static_cast<std::size_t>(core) < queues_.size());
  return queues_[static_cast<std::size_t>(core)];
}

hw::CoreId CfsScheduler::select_core(const os::Thread& thread,
                                     const std::vector<std::size_t>& load) {
  // wake_affine: stick to the previous CPU when allowed — this is why
  // unbound daemons keep landing on application cores once they have run
  // there. Fresh threads (no previous core) pick a random allowed core,
  // then load balancing below evens things out over time. The sticky path
  // builds no mask temporary, so a wakeup allocates nothing.
  if (thread.affinity.test(thread.core) && owned_.test(thread.core)) {
    const std::size_t here = load[static_cast<std::size_t>(thread.core)];
    // Stay unless clearly imbalanced (another allowed core is idle while
    // this one is contended).
    if (here <= 1) return thread.core;
    for (hw::CoreId c = thread.affinity.first(); c != hw::kInvalidCore;
         c = thread.affinity.next(c)) {
      if (owned_.test(c) && load[static_cast<std::size_t>(c)] == 0) return c;
    }
    return thread.core;
  }

  const hw::CpuSet allowed = thread.affinity & owned_;
  HPCOS_CHECK_MSG(allowed.any(), "no allowed core for thread");

  // Initial placement: uniformly random among the least-loaded allowed
  // cores (deterministic under the seed).
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (hw::CoreId c = allowed.first(); c != hw::kInvalidCore;
       c = allowed.next(c)) {
    best = std::min(best, load[static_cast<std::size_t>(c)]);
  }
  std::vector<hw::CoreId> candidates;
  for (hw::CoreId c = allowed.first(); c != hw::kInvalidCore;
       c = allowed.next(c)) {
    if (load[static_cast<std::size_t>(c)] == best) candidates.push_back(c);
  }
  return candidates[rng_.uniform_index(candidates.size())];
}

void CfsScheduler::enqueue(hw::CoreId core, os::Thread& thread) {
  Queue& q = queue(core);
  // Sleeper credit: a woken thread re-enters near the core's fair clock,
  // bounded below so long sleepers cannot monopolize the CPU.
  thread.vruntime = std::max(
      thread.vruntime, q.min_vruntime - to_vr(params_.sleeper_credit));
  q.threads.push_back(&thread);
}

os::ThreadId CfsScheduler::pick_next(hw::CoreId core) {
  Queue& q = queue(core);
  if (q.threads.empty()) return os::kInvalidThread;
  auto it = std::min_element(q.threads.begin(), q.threads.end(),
                             [](const os::Thread* a, const os::Thread* b) {
                               return a->vruntime < b->vruntime;
                             });
  os::Thread* t = *it;
  q.threads.erase(it);
  q.min_vruntime = std::max(q.min_vruntime, t->vruntime);
  return t->tid;
}

void CfsScheduler::remove(const os::Thread& thread) {
  // Only thread exit calls this, and an exiting thread is running, so it
  // is on no queue; a scan keeps enqueue and pick_next free of an index.
  for (Queue& q : queues_) {
    std::erase_if(q.threads, [&](const os::Thread* t) {
      return t->tid == thread.tid;
    });
  }
}

std::size_t CfsScheduler::runnable_count(hw::CoreId core) const {
  return queue(core).threads.size();
}

bool CfsScheduler::preempt_on_wakeup(const os::Thread& woken,
                                     const os::Thread& running) const {
  return woken.vruntime + to_vr(params_.granularity) < running.vruntime;
}

bool CfsScheduler::needs_tick(hw::CoreId core, bool core_busy) const {
  if (!core_busy) return false;  // nohz idle
  if (!nohz_full_.test(core)) return true;
  // nohz_full: the tick restarts as soon as a second task is runnable.
  return runnable_count(core) > 0;
}

bool CfsScheduler::should_resched_on_tick(hw::CoreId core,
                                          os::Thread& running) {
  const Queue& q = queue(core);
  if (q.threads.empty()) return false;
  const double waiting_min =
      (*std::min_element(q.threads.begin(), q.threads.end(),
                         [](const os::Thread* a, const os::Thread* b) {
                           return a->vruntime < b->vruntime;
                         }))
          ->vruntime;
  return waiting_min + to_vr(params_.granularity) < running.vruntime;
}

void CfsScheduler::charge(os::Thread& thread, SimTime elapsed) {
  thread.vruntime += to_vr(elapsed);
  if (thread.core != hw::kInvalidCore) {
    Queue& q = queue(thread.core);
    q.min_vruntime = std::max(q.min_vruntime, thread.vruntime);
  }
}

}  // namespace hpcos::linuxk
