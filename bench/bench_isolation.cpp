// Isolation ablation — configured vs structural performance isolation.
//
// §1/§7: a recurring argument for multi-kernels is performance isolation.
// On Linux, isolation is *configuration*: cgroups bind system work to the
// assistant cores, and a service that escapes its cgroup (or was never
// placed in one) lands on application cores. On the multi-kernel,
// isolation is *structural*: Linux's scheduler does not own the LWK
// cores, so no Linux-side process can ever run there.
//
// Scenario: an aggressor service wakes every 20 ms and burns 300 us of
// CPU while FWQ measures the application cores. Three configurations:
//   (a) Linux, aggressor correctly bound to the assistant cores (cgroup)
//   (b) Linux, aggressor unbound (the cgroup misconfiguration case)
//   (c) multi-kernel: aggressor unbound *on Linux* — which only owns the
//       assistant cores, so the LWK cores never see it
#include <iostream>

#include "cluster/node.h"
#include "common/table.h"
#include "noise/fwq.h"
#include "noise/metrics.h"
#include "obs/bench_report.h"

namespace {

using namespace hpcos;

// The aggressor: sleep 20 ms, burn 300 us, repeat.
class Aggressor final : public os::ThreadBody {
 public:
  explicit Aggressor(RngStream rng) : rng_(rng) {}
  void step(os::ThreadContext& ctx) override {
    if (computing_) {
      computing_ = false;
      ctx.sleep_for(rng_.exponential_time(SimTime::ms(20)));
    } else {
      computing_ = true;
      ctx.compute(SimTime::us(300));
    }
  }

 private:
  RngStream rng_;
  bool computing_ = false;
};

noise::NoiseStats measure(os::NodeKernel& app_kernel,
                          linuxk::LinuxKernel& linux,
                          const hw::NodeTopology& topo, bool bind_aggressor,
                          std::uint64_t iterations) {
  for (int i = 0; i < 4; ++i) {
    os::SpawnAttrs attrs;
    attrs.name = "aggressor-" + std::to_string(i);
    if (bind_aggressor) attrs.affinity = topo.system_cores();
    linux.spawn(std::make_unique<Aggressor>(
                    RngStream(Seed{1000 + std::uint64_t(i)}, 0)),
                std::move(attrs));
  }
  noise::FwqConfig fwq;
  fwq.work_quantum = SimTime::from_ms(6.5);
  fwq.iterations = iterations;
  const auto traces =
      noise::run_fwq(app_kernel, topo.application_cores(), fwq);
  return noise::compute_noise_stats(traces);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::parse_bench_target_options(argc, argv);
  obs::BenchReport report("bench_isolation", opts.quick, 1);
  const std::uint64_t iterations = opts.quick ? 500 : 5000;
  const auto platform = hw::make_fugaku_testbed_platform();
  auto quiet = [&] {
    auto cfg = linuxk::make_fugaku_linux_config(platform);
    cfg.profile = noise::AnalyticNoiseProfile{};  // isolate the aggressor
    return cfg;
  };

  auto linux_bound = cluster::SimNode::make_linux_node(
      platform, quiet(), cluster::SimNodeOptions{.seed = Seed{1}});
  const auto bound = measure(linux_bound->app_kernel(), linux_bound->linux(),
                             linux_bound->topology(), true, iterations);

  auto linux_unbound = cluster::SimNode::make_linux_node(
      platform, quiet(), cluster::SimNodeOptions{.seed = Seed{1}});
  const auto unbound =
      measure(linux_unbound->app_kernel(), linux_unbound->linux(),
              linux_unbound->topology(), false, iterations);

  auto mcfg = mck::McKernelConfig::defaults();
  mcfg.hw_noise = noise::AnalyticNoiseProfile{};
  auto mk = cluster::SimNode::make_multikernel_node(
      platform, quiet(), std::move(mcfg),
      cluster::SimNodeOptions{.seed = Seed{1}});
  const auto structural =
      measure(mk->app_kernel(), mk->linux(), mk->topology(), false,
              iterations);

  print_banner(std::cout,
               "Isolation: configured (cgroup) vs structural (multi-kernel)");
  TextTable t({"configuration", "max noise length", "noise rate (Eq. 2)"});
  t.add_row({"Linux, aggressor cgroup-bound",
             bound.max_noise_length.to_string(),
             TextTable::fmt_sci(bound.noise_rate, 2)});
  t.add_row({"Linux, aggressor escapes the cgroup",
             unbound.max_noise_length.to_string(),
             TextTable::fmt_sci(unbound.noise_rate, 2)});
  t.add_row({"Multi-kernel, aggressor unbound on Linux",
             structural.max_noise_length.to_string(),
             TextTable::fmt_sci(structural.noise_rate, 2)});
  t.print(std::cout);
  report.add_metric("cgroup_bound.max_noise_us", "us",
                    bound.max_noise_length.to_us());
  report.add_metric("cgroup_escaped.max_noise_us", "us",
                    unbound.max_noise_length.to_us());
  report.add_metric("multikernel.max_noise_us", "us",
                    structural.max_noise_length.to_us());
  report.add_metric("cgroup_bound.noise_rate", "ratio", bound.noise_rate);
  report.add_metric("cgroup_escaped.noise_rate", "ratio",
                    unbound.noise_rate);
  report.add_metric("multikernel.noise_rate", "ratio",
                    structural.noise_rate);
  std::cout << "\ncgroup isolation works only while the configuration is "
               "right; the\nmulti-kernel's partition is enforced by "
               "ownership — Linux cannot\nschedule anything on cores it "
               "does not manage (§1, §7).\n";
  obs::maybe_write_report(report, opts);
  return 0;
}
