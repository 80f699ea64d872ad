// Multi-node DES cluster: several SimNodes, each on its own simulator.
//
// §6.3: "we extended FWQ to run on an arbitrary number of nodes (using
// MPI) and measure OS noise on all CPU cores simultaneously". This class
// is that harness for the DES side: N fully-modeled nodes (Linux-only or
// multi-kernel) run FWQ on every application core at once, and per-node
// traces come back for the aggregate statistics. Nodes never exchange
// events, so each owns its event queue and clock and the nodes run
// concurrently on the host pool; a node's event order, and so its traces,
// are those of the same node simulated alone. Node seeds derive from a
// base seed, so each node's noise is independent but the whole cluster
// run is reproducible and independent of host thread count.
#pragma once

#include <memory>
#include <vector>

#include "cluster/node.h"
#include "noise/fwq.h"

namespace hpcos::cluster {

class DesCluster {
 public:
  struct Options {
    Seed seed{0xC1D5};
    bool multikernel = false;
    std::size_t trace_capacity = 0;
  };

  // All nodes share `platform` hardware and the given kernel configs.
  DesCluster(int num_nodes, const hw::PlatformConfig& platform,
             const linuxk::LinuxConfig& linux_config, Options options);
  DesCluster(int num_nodes, const hw::PlatformConfig& platform,
             const linuxk::LinuxConfig& linux_config,
             const mck::McKernelConfig& lwk_config, Options options);

  // Seed of node `index` in a cluster built with base seed `base`.
  static Seed node_seed(Seed base, int index);

  int size() const { return static_cast<int>(nodes_.size()); }
  // Read-only aggregate of the per-node simulators, refreshed on every
  // call and after run_fwq_all(): events executed, queue telemetry and
  // handler stats are node-ordered sums (max_depth is the per-node
  // maximum) and now() is the latest node clock. Scheduling on it runs
  // nothing; drive node(n).simulator() instead.
  sim::Simulator& simulator();
  SimNode& node(int index) { return *nodes_.at(static_cast<std::size_t>(index)); }

  // Run FWQ on every application core of every node, one node per host
  // task; each node stops at the event that finishes its last FWQ thread.
  // result[n] holds node n's per-core traces.
  std::vector<std::vector<noise::FwqTrace>> run_fwq_all(
      noise::FwqConfig config);

 private:
  void build(int num_nodes, const hw::PlatformConfig& platform,
             const linuxk::LinuxConfig& linux_config,
             const mck::McKernelConfig* lwk_config, Options options);

  std::vector<std::unique_ptr<SimNode>> nodes_;
  sim::Simulator aggregate_;
};

}  // namespace hpcos::cluster
