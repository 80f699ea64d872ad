// Full DES node assembly: one simulated compute node with its OS stack.
//
// Two shapes, matching the study:
//  * Linux node   — one LinuxKernel owning every core (the production
//                   Linux environments of Table 1);
//  * multi-kernel — Linux confined to the system cores, IHK reserving the
//                   application partition, McKernel booted on it, and the
//                   syscall-delegation path wired through IKC + proxies.
//
// This is the object the node-level experiments (Table 2, Figure 3, the
// DES side of Figure 4) and the examples drive.
#pragma once

#include <memory>

#include "hw/platform.h"
#include "ihk/ihk.h"
#include "linuxk/linux_kernel.h"
#include "mckernel/mckernel.h"
#include "mckernel/offload.h"
#include "obs/registry.h"
#include "oskernel/stall_bus.h"
#include "sim/simulator.h"

namespace hpcos::cluster {

struct SimNodeOptions {
  Seed seed{0xF00D};
  std::size_t trace_capacity = 0;  // 0 disables tracing
  // Wire every subsystem's counters into the node registry. Off by
  // default: instrumented hot paths then cost exactly one branch.
  bool observability = false;
};

class SimNode {
 public:
  using Options = SimNodeOptions;

  // Linux-only node: the kernel owns all cores and runs the given config.
  static std::unique_ptr<SimNode> make_linux_node(hw::PlatformConfig platform,
                                                  linuxk::LinuxConfig config,
                                                  Options options = {});

  // Multi-kernel node: Linux on the system cores, McKernel on the
  // application cores via IHK, offload path wired.
  static std::unique_ptr<SimNode> make_multikernel_node(
      hw::PlatformConfig platform, linuxk::LinuxConfig linux_config,
      mck::McKernelConfig lwk_config, Options options = {});

  // Kernel that runs application threads (McKernel when present).
  os::NodeKernel& app_kernel();
  bool is_multikernel() const { return lwk_ != nullptr; }

  sim::Simulator& simulator() { return sim_; }
  const hw::NodeTopology& topology() const { return platform_.topology; }
  const hw::PlatformConfig& platform() const { return platform_; }
  linuxk::LinuxKernel& linux() { return *linux_; }
  mck::McKernel* lwk() { return lwk_.get(); }
  mck::SyscallOffloader* offloader() { return offloader_.get(); }
  ihk::IhkManager* ihk_manager() { return ihk_.get(); }
  sim::TraceBuffer& trace() { return trace_; }
  // The node's counter/histogram registry; every kernel, IKC channel, and
  // the offload path register into it when `options.observability` is on
  // (nothing registers otherwise — hot paths keep their disabled branch).
  obs::Registry& registry() { return registry_; }

 private:
  explicit SimNode(hw::PlatformConfig platform, Options options);

  hw::PlatformConfig platform_;
  sim::Simulator sim_;  // declared before the kernels, so it outlives them
  sim::TraceBuffer trace_;
  obs::Registry registry_;
  bool observability_ = false;
  os::ChipStallBus bus_;
  Seed seed_;
  std::unique_ptr<linuxk::LinuxKernel> linux_;
  std::unique_ptr<ihk::IhkManager> ihk_;
  int os_instance_ = -1;
  std::unique_ptr<mck::McKernel> lwk_;
  std::unique_ptr<mck::SyscallOffloader> offloader_;
};

}  // namespace hpcos::cluster
