#include "cluster/des_cluster.h"

#include "common/check.h"
#include "common/parallel.h"

namespace hpcos::cluster {

DesCluster::DesCluster(int num_nodes, const hw::PlatformConfig& platform,
                       const linuxk::LinuxConfig& linux_config,
                       Options options) {
  build(num_nodes, platform, linux_config, nullptr, options);
}

DesCluster::DesCluster(int num_nodes, const hw::PlatformConfig& platform,
                       const linuxk::LinuxConfig& linux_config,
                       const mck::McKernelConfig& lwk_config,
                       Options options) {
  build(num_nodes, platform, linux_config, &lwk_config, options);
}

Seed DesCluster::node_seed(Seed base, int index) {
  return Seed{base.value +
              0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(index + 1)};
}

void DesCluster::build(int num_nodes, const hw::PlatformConfig& platform,
                       const linuxk::LinuxConfig& linux_config,
                       const mck::McKernelConfig* lwk_config,
                       Options options) {
  HPCOS_CHECK(num_nodes >= 1);
  nodes_.reserve(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    SimNodeOptions node_opts;
    node_opts.seed = node_seed(options.seed, n);
    node_opts.trace_capacity = options.trace_capacity;
    if (options.multikernel || lwk_config != nullptr) {
      nodes_.push_back(SimNode::make_multikernel_node(
          platform, linux_config,
          lwk_config != nullptr ? *lwk_config
                                : mck::McKernelConfig::defaults(),
          node_opts));
    } else {
      nodes_.push_back(
          SimNode::make_linux_node(platform, linux_config, node_opts));
    }
  }
}

sim::Simulator& DesCluster::simulator() {
  std::vector<const sim::Simulator*> parts;
  parts.reserve(nodes_.size());
  for (const auto& node : nodes_) parts.push_back(&node->simulator());
  aggregate_.aggregate(parts);
  return aggregate_;
}

std::vector<std::vector<noise::FwqTrace>> DesCluster::run_fwq_all(
    noise::FwqConfig config) {
  // FWQ starts at the same simulated instant on every node of a fresh
  // cluster, like the MPI-launched FWQ; nodes share nothing, so each runs
  // to completion as one host task.
  std::vector<std::vector<noise::FwqTrace>> out(nodes_.size());
  parallel_for(nodes_.size(), [&](std::size_t n) {
    SimNode& node = *nodes_[n];
    out[n] = noise::run_fwq(node.app_kernel(),
                            node.topology().application_cores(), config);
  });
  simulator();  // refresh the aggregate for callers holding a reference
  return out;
}

}  // namespace hpcos::cluster
