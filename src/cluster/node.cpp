#include "cluster/node.h"

namespace hpcos::cluster {

SimNode::SimNode(hw::PlatformConfig platform, Options options)
    : platform_(std::move(platform)),
      trace_(options.trace_capacity),
      observability_(options.observability),
      seed_(options.seed) {}

std::unique_ptr<SimNode> SimNode::make_linux_node(hw::PlatformConfig platform,
                                                  linuxk::LinuxConfig config,
                                                  Options options) {
  auto node =
      std::unique_ptr<SimNode>(new SimNode(std::move(platform), options));
  node->linux_ = std::make_unique<linuxk::LinuxKernel>(
      node->sim_, node->platform_.topology,
      node->platform_.topology.all_cores(), std::move(config), node->seed_,
      node->trace_.enabled() ? &node->trace_ : nullptr, &node->bus_);
  if (node->observability_) node->linux_->set_registry(&node->registry_);
  node->linux_->boot();
  return node;
}

std::unique_ptr<SimNode> SimNode::make_multikernel_node(
    hw::PlatformConfig platform, linuxk::LinuxConfig linux_config,
    mck::McKernelConfig lwk_config, Options options) {
  auto node =
      std::unique_ptr<SimNode>(new SimNode(std::move(platform), options));
  const auto& topo = node->platform_.topology;
  sim::TraceBuffer* trace =
      node->trace_.enabled() ? &node->trace_ : nullptr;

  // Host Linux keeps the system cores.
  node->linux_ = std::make_unique<linuxk::LinuxKernel>(
      node->sim_, topo, topo.system_cores(), std::move(linux_config),
      node->seed_, trace, &node->bus_);
  node->linux_->boot();

  // IHK reserves the application partition and most of the memory, then
  // creates an LWK instance over it.
  const std::uint64_t host_mem = topo.total_memory_bytes();
  const std::uint64_t lwk_mem = host_mem - host_mem / 8;  // 7/8 to the LWK
  node->ihk_ = std::make_unique<ihk::IhkManager>(
      node->sim_, topo, topo.all_cores(), topo.system_cores(), host_mem);
  HPCOS_CHECK(node->ihk_->partition().reserve_cpus(topo.application_cores()));
  HPCOS_CHECK(node->ihk_->partition().reserve_memory(lwk_mem));
  node->os_instance_ =
      node->ihk_->create_os_instance(topo.application_cores(), lwk_mem);
  HPCOS_CHECK(node->os_instance_ >= 0);

  node->lwk_ = std::make_unique<mck::McKernel>(
      node->sim_, topo, topo.application_cores(), std::move(lwk_config),
      Seed{node->seed_.value ^ 0x5A5Aull}, trace, &node->bus_);
  node->lwk_->boot();
  node->ihk_->boot(node->os_instance_);

  auto& inst = node->ihk_->instance(node->os_instance_);
  node->offloader_ = std::make_unique<mck::SyscallOffloader>(
      *node->lwk_, *node->linux_, *inst.to_host, *inst.to_lwk,
      topo.system_cores());
  if (node->observability_) {
    node->linux_->set_registry(&node->registry_);
    node->lwk_->set_registry(&node->registry_);
    node->offloader_->set_registry(&node->registry_);  // + both IKC channels
  }
  return node;
}

os::NodeKernel& SimNode::app_kernel() {
  if (lwk_ != nullptr) return *lwk_;
  return *linux_;
}

}  // namespace hpcos::cluster
