// Host-side self-profiler: where does the *simulator's own* time go?
//
// Every observability layer so far (Registry, spans, attribution ledger,
// TimeSeries) measures simulated time. This module points the same
// discipline at the host: the ROADMAP's full-Fugaku scale rework ("profile
// and rework the DES hot loop") needs the simulator's host-side cost
// decomposed into a measurable signal before any calendar-queue or
// arena/SoA change can be evidence-driven.
//
// Design (mirrors the Registry's hot-path cost rules):
//   * PROF_SCOPE("des.event.fire") opens a steady_clock-timed scope. A
//     site compiles to one relaxed load and one branch when profiling is
//     disabled; enabled, it is two clock reads, a walk over the current
//     node's children, and two relaxed counter stores. No lock and no
//     atomic read-modify-write on the hot path.
//   * Each thread accumulates into its own calling-context tree: one node
//     per distinct scope path, holding (scope id, parent, children, count,
//     total ns). Entering a scope moves the thread's cursor to the child
//     node for that id, creating it on first use; leaving adds 1 to the
//     node's count and the duration to its total, then moves the cursor
//     back to the parent. Memory is O(distinct paths) whatever the run
//     length, so every scope is counted and nothing is ever dropped.
//   * Only the owning thread writes a tree. Its counters are relaxed
//     atomics; node creation takes the tree's mutex, which collect() also
//     holds while it reads the tree, and a node never moves once created.
//     So collect() may run while other threads record (the stall watchdog
//     does). Such a snapshot reads each counter atomically but not all of
//     them at one instant: a scope still open has not added its duration
//     yet, so its self time can read negative and is clamped to 0.
//   * collect() merges every thread's tree into one Profile: a ranked
//     self/total-time hotspot table keyed by scope *name* (scope fire
//     counts are a pure function of the simulated work, so the merged
//     counts are bit-identical across host thread counts — the
//     determinism contract the tests pin) and a folded-stack view keyed
//     by the host call path (input format of flamegraph.pl/speedscope,
//     validated by sim::validate_folded_stack). With every thread
//     quiesced, sum(self) equals the summed root durations exactly.
//
// Scope naming follows the repo-wide counter rule:
//   <subsystem>.<object>[.<detail>]  e.g. des.fire.linux.tick, fwq.shard.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hpcos::obs::prof {

// Stable id for a scope name. Interning allocates (mutex + map) and is
// meant to run once per call site (PROF_SCOPE caches it in a function-
// local static), never per fire.
using ScopeId = std::uint32_t;
ScopeId intern(const std::string& name);
std::string scope_name(ScopeId id);

// Global enable switch (relaxed atomic; one load per scope entry).
bool enabled();
void set_enabled(bool on);

// Zero every thread's counters. Tree nodes stay (so each thread's cursor
// stays valid); collect() skips paths that have not fired since. Callers
// must quiesce first: no PROF_SCOPE may be open on any thread (between
// parallel_for regions the scheduler's workers are parked, which is the
// intended reset point).
void reset();

// Nanoseconds on the process-local steady clock (epoch = first call).
// The profiler's own timestamps, exposed so other host-side telemetry
// (scheduler park timelines, DES handler attribution) shares one clock.
std::int64_t now_ns();

struct ContextNode;  // one calling-context-tree node (prof.cpp)

class ScopedTimer {
 public:
  explicit ScopedTimer(ScopeId id);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Entry timestamp (now_ns clock); 0 when the profiler was disabled at
  // entry.
  std::int64_t start_ns() const { return start_; }

 private:
  ContextNode* node_ = nullptr;  // null when not recording
  std::int64_t start_ = 0;
};

#define HPCOS_PROF_CONCAT2(a, b) a##b
#define HPCOS_PROF_CONCAT(a, b) HPCOS_PROF_CONCAT2(a, b)
// Scoped hotspot probe. The id interns once (function-local static); the
// timer is one branch when the profiler is disabled.
#define PROF_SCOPE(name)                                           \
  static const ::hpcos::obs::prof::ScopeId HPCOS_PROF_CONCAT(      \
      hpcos_prof_id_, __LINE__) = ::hpcos::obs::prof::intern(name); \
  ::hpcos::obs::prof::ScopedTimer HPCOS_PROF_CONCAT(               \
      hpcos_prof_scope_, __LINE__)(                                \
      HPCOS_PROF_CONCAT(hpcos_prof_id_, __LINE__))

// Merged per-name statistics. total_ns sums instance durations (a
// recursive scope contributes once per instance, so self-recursion
// inflates total but never self); self_ns subtracts time covered by
// nested scopes, so self times sum correctly at every depth.
struct ScopeStat {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

struct Profile {
  // Ranked by self_ns descending, name ascending on ties. Counts are
  // bit-identical across host thread counts; times are host-dependent.
  std::vector<ScopeStat> scopes;
  // Folded-stack aggregation: host call path ("a;b;c") -> summed self
  // ns, path-sorted (deterministic, diffable). Zero-self paths omitted.
  std::vector<std::pair<std::string, std::int64_t>> folded;
  std::uint64_t threads = 0;  // threads that recorded a scope
  std::uint64_t events = 0;   // scope instances recorded
  // Sum of root-scope durations. With every thread quiesced,
  // sum_self_ns() equals this exactly, so checking it against a
  // wall-clock measurement of the profiled region validates the whole
  // accounting chain.
  std::int64_t root_total_ns = 0;

  const ScopeStat* find(const std::string& name) const;
  std::int64_t sum_self_ns() const;
  // "<path> <self-ns>\n" lines, the flamegraph.pl/speedscope input
  // format (sim::validate_folded_stack accepts it).
  std::string folded_text() const;
};

// Merge every thread's tree (a snapshot; counters keep accumulating
// until reset()).
Profile collect();

}  // namespace hpcos::obs::prof
