// Ablation — remote-TLB invalidation strategies (§4.2.2).
//
// Drives the node DES through a munmap-style flush storm under the three
// strategies and 100, 1,000 and 10,000 flushes, and prints the *simulated*
// costs:
//   victim delay (us) — extra wall time suffered by a busy bystander core
//   initiator (us)    — cost paid by the flushing core
// The BenchReport carries the largest storm of the run (10,000 flushes;
// 100 in quick mode, which runs only that storm size).
//
// Expected shape: broadcast costs victims 200 ns x flushes (the A64FX
// problem); the RHEL 8.2 patch eliminates that for single-core processes;
// the IPI path spares bystanders but charges ~2 us per victim core that
// actually shares the mm.
#include <iostream>
#include <vector>

#include "cluster/node.h"
#include "common/table.h"
#include "noise/fwq.h"
#include "obs/bench_report.h"

namespace {

using namespace hpcos;

struct StormOutcome {
  double victim_delay_us;
  double initiator_us;
};

StormOutcome run_storm(linuxk::TlbFlushMode mode, std::uint64_t flushes) {
  auto platform = hw::make_fugaku_testbed_platform();
  auto cfg = linuxk::make_fugaku_linux_config(platform);
  cfg.profile = noise::AnalyticNoiseProfile{};  // quiet: isolate the storm
  cfg.tlb_flush = mode;
  auto node = cluster::SimNode::make_linux_node(
      platform, std::move(cfg), cluster::SimNodeOptions{.seed = Seed{3}});

  // Busy bystander pinned to an application core.
  struct Victim final : os::ThreadBody {
    SimTime done;
    bool started = false;
    void step(os::ThreadContext& ctx) override {
      if (!started) {
        started = true;
        ctx.compute(SimTime::ms(50));
        return;
      }
      done = ctx.now();
      ctx.exit();
    }
  };
  auto victim = std::make_unique<Victim>();
  Victim* v = victim.get();
  os::SpawnAttrs attrs;
  attrs.affinity = hw::CpuSet::of(
      static_cast<std::size_t>(node->topology().logical_cores()), {10});
  node->linux().spawn(std::move(victim), std::move(attrs));
  node->simulator().run_until(SimTime::ms(1));

  const os::Pid pid = node->linux().create_process(os::ProcessAttrs{});
  const SimTime initiator =
      node->linux().tlb_shootdown(node->linux().process(pid),
                                  /*initiator=*/2, flushes);
  node->simulator().run_until(SimTime::sec(1));
  return StormOutcome{
      .victim_delay_us = (v->done - SimTime::ms(50)).to_us(),
      .initiator_us = initiator.to_us(),
  };
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::parse_bench_target_options(argc, argv);
  obs::BenchReport report("bench_ablation_tlbi", opts.quick, 3);
  const std::vector<std::uint64_t> flush_counts =
      opts.quick ? std::vector<std::uint64_t>{100}
                 : std::vector<std::uint64_t>{100, 1000, 10000};
  const struct {
    const char* name;
    const char* slug;
    linuxk::TlbFlushMode mode;
  } strategies[] = {
      {"IPI", "ipi", linuxk::TlbFlushMode::kIpi},
      {"broadcast", "broadcast", linuxk::TlbFlushMode::kBroadcast},
      {"broadcast-patched", "broadcast_patched",
       linuxk::TlbFlushMode::kBroadcastPatched},
  };
  TextTable table(
      {"strategy", "flushes", "victim delay (us)", "initiator (us)"});
  for (const auto& s : strategies) {
    for (const std::uint64_t flushes : flush_counts) {
      const StormOutcome out = run_storm(s.mode, flushes);
      table.add_row({s.name,
                     TextTable::fmt_int(static_cast<long long>(flushes)),
                     TextTable::fmt(out.victim_delay_us, 2),
                     TextTable::fmt(out.initiator_us, 2)});
      if (flushes != flush_counts.back()) continue;
      report.add_metric(std::string(s.slug) + ".victim_delay_us", "us",
                        out.victim_delay_us);
      report.add_metric(std::string(s.slug) + ".initiator_us", "us",
                        out.initiator_us);
    }
  }
  print_banner(std::cout, "Ablation: remote TLB invalidation strategies");
  table.print(std::cout);
  obs::maybe_write_report(report, opts);
  return 0;
}
