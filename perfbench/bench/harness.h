// perfbench harness: closed-batch unit loop, host timing, correctness
// accounting and the per-layer aggregation shared by every workload.
//
// A workload is a fixed "pass" of units (six Table 2 rows, five Fig. 4
// campaigns, one multi-kernel node run). The loop runs units back to back,
// a unit starting when the previous one ends, until --seconds have passed
// and at least two whole passes have run (one pass of pairs when traced).
// End-to-end times are per pass: the sum over a pass's units of each
// unit's median, so the figure does not depend on how many units fit in
// the time budget. They are scaled to a nominal host speed measured by a
// fixed probe around each unit.
//
// The traced run (--trace 1) runs each unit twice in a row: untraced, then
// with obs::prof and the allocation counter switched on. The untraced twin
// gives the clean host times, the traced one the layer attribution, and
// their ratio is trace.overhead_ratio. Both must produce the same digest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace perfbench {

// Heap allocations made by any thread while armed (alloc_counter.cpp
// replaces the global operator new of this binary).
namespace alloc {
void arm(bool on);
std::uint64_t count();
}  // namespace alloc

std::string fmt_g(double v);  // "%.6g", for the human-readable report

double wall_seconds();  // steady clock
double cpu_seconds();   // user + system time of the whole process

// FNV-1a over the exact bit patterns of a unit's checked outputs.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Everything the traced twin of a DES unit measured.
struct DesSample {
  double span_s = 0.0;           // wall time of the call that ran the DES
  std::uint64_t events = 0;      // Simulator::events_executed()
  hpcos::sim::QueueTelemetry queue;
  std::vector<hpcos::sim::HandlerStat> handlers;  // filled while obs::prof is on
  std::uint64_t allocs = 0;      // heap allocations inside the DES span
  double node_sim_s = 0.0;       // simulated seconds x nodes advanced
};

struct CampaignSample {
  std::string slug;
  double node_h = 0.0;           // nodes x simulated hours per core
  std::uint64_t shards = 0;      // fwq.shard scope instances
  std::int64_t shard_ns = 0;     // summed fwq.shard scope time
  std::int64_t merge_ns = 0;     // fwq.merge scope time
};

struct UnitRun {
  double wall_s = 0.0;           // timed section
  double cpu_s = 0.0;
  double sim_core_h = 0.0;       // simulated application-core hours
  std::string digest;
  std::string outputs;           // the digested values, for the report
  std::uint64_t attempted = 1;   // checked units this run stands for
  std::uint64_t failed = 0;      // of which failed an invariant
  double stats_s = 0.0;          // noise::compute_noise_stats span (Table 2)
  std::optional<DesSample> des;
  std::optional<CampaignSample> campaign;
  std::uint64_t offload_requests = 0;
  std::uint64_t offload_replies = 0;
  // Host speed around the unit, set by the harness (see probe_seconds()).
  double host_speed = 1.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Unit names of one pass, in run order; the digests in reference.json
  // are keyed by them.
  virtual std::vector<std::string> units() const = 0;
  // Build what unit `u` needs and tear it down; returns the build time.
  virtual double setup_only(std::size_t u) = 0;
  // Run unit `u`; `traced` switches obs::prof and the allocation counter
  // on for the timed section.
  virtual UnitRun run(std::size_t u, bool traced) = 0;
};

std::unique_ptr<Workload> make_table2_des(std::uint64_t seed);
std::unique_ptr<Workload> make_fig4_campaign(std::uint64_t seed);
// fig4_campaign's unit names, one per campaign.
std::vector<std::string> fig4_campaign_units();
std::unique_ptr<Workload> make_mk_offload(std::uint64_t seed);

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string reference;  // reference.json path; empty skips digests
};

// Runs the workload and prints the result object as the last stdout line.
// Returns the process exit code (non-zero when any check failed).
int run_benchmark(const Options& options);

}  // namespace perfbench
