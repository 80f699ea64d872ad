// Reporting glue between the host-side profiler (obs/prof) and the
// repo's observability surfaces: BenchReport JSON, Registry counters
// (and through them the OpenMetrics exporter), and the human-readable
// hotspot table.
//
// Naming discipline (enforced by the bench_gate tolerance file): scope
// *fire counts* are a pure function of the simulated work, so they are
// emitted as plain gated metrics (`prof.<scope>.count`); everything
// measured in host nanoseconds is machine-dependent and goes under the
// ignore-listed `host.*` prefix (`host.prof.*`, `host.mem.*`).
#pragma once

#include <iosfwd>
#include <string>

#include "obs/bench_report.h"
#include "obs/prof/prof.h"
#include "obs/registry.h"

namespace hpcos::obs {

// Fold a collected profile into a BenchReport:
//   prof.<scope>.count            count  (deterministic, gated)
//   host.prof.<scope>.self_us     us     (ignored by the gate)
//   host.prof.<scope>.total_us    us
//   host.prof.events / .threads / .root_total_us
void add_profile_metrics(BenchReport& report, const prof::Profile& profile);

// Fold scope fire counts (prof.<scope>.count) plus the merge summary
// (prof.events) into a Registry, giving the profiler's
// deterministic face the same OpenMetrics round trip every other counter
// has.
void fold_profile_registry(Registry& registry, const prof::Profile& profile);

// Per-subsystem allocation counters (host.mem.<name>.bytes/.events) and
// the process RSS sample (host.mem.rss_bytes, host.mem.peak_rss_bytes,
// host.mem.vm_bytes) — all host-dependent, all ignore-listed.
void add_memory_metrics(BenchReport& report);

// Ranked hotspot table (top `top` scopes by self time) plus the merge
// summary line, in the repo's fixed-width table layout.
void print_profile(std::ostream& out, const prof::Profile& profile,
                   std::size_t top = 20);

}  // namespace hpcos::obs
