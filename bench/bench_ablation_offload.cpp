// Ablation — system-call locality on the multi-kernel (§5, §5.1).
//
// On a full multi-kernel node DES (Linux + IHK + McKernel + proxy), times
// three classes of call and prints the mean simulated round trip:
//   local       — a call McKernel implements itself (gettimeofday)
//   offloaded   — a delegated call (stat) through IKC + proxy
//   STAG        — Tofu STAG registration, offloaded vs the PicoDriver
// This quantifies the design choice the PicoDriver exists for: the offload
// path costs microseconds per call, intolerable inside registration loops.
// Full mode issues 100 calls per class (50 per STAG path); quick mode 20
// and 10.
#include <iostream>

#include "cluster/node.h"
#include "common/table.h"
#include "mckernel/offload.h"
#include "obs/bench_report.h"

namespace {

using namespace hpcos;

// Runs `count` back-to-back invocations of one syscall on the LWK and
// returns the mean simulated round-trip in us.
double measure_syscall(os::Syscall no, os::SyscallArgs args, bool picodriver,
                       int count) {
  auto platform = hw::make_fugaku_testbed_platform();
  auto lcfg = linuxk::make_fugaku_linux_config(platform);
  lcfg.profile = noise::AnalyticNoiseProfile{};
  auto mcfg = mck::McKernelConfig::defaults();
  mcfg.hw_noise = noise::AnalyticNoiseProfile{};
  mcfg.picodriver.enabled = picodriver;
  auto node = cluster::SimNode::make_multikernel_node(
      platform, std::move(lcfg), std::move(mcfg),
      cluster::SimNodeOptions{.seed = Seed{11}});

  struct Caller final : os::ThreadBody {
    os::Syscall no;
    os::SyscallArgs args;
    int remaining;
    SimTime start;
    SimTime elapsed;
    bool started = false;
    void step(os::ThreadContext& ctx) override {
      if (!started) {
        started = true;
        start = ctx.now();
      }
      if (remaining-- > 0) {
        ctx.invoke(no, args);
        return;
      }
      elapsed = ctx.now() - start;
      ctx.exit();
    }
  };
  auto body = std::make_unique<Caller>();
  body->no = no;
  body->args = args;
  body->remaining = count;
  Caller* c = body.get();
  node->lwk()->spawn(std::move(body), os::SpawnAttrs{.name = "caller"});
  node->simulator().run_until(SimTime::sec(30));
  return c->elapsed.to_us() / count;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = obs::parse_bench_target_options(argc, argv);
  obs::BenchReport report("bench_ablation_offload", opts.quick, 11);
  const int count = opts.quick ? 20 : 100;
  const os::SyscallArgs reg{.arg0 = 0, .arg1 = 64ull << 20,
                            .arg2 = mck::kTofuRegisterStag};
  const struct {
    const char* name;
    const char* slug;
    os::Syscall no;
    os::SyscallArgs args;
    bool picodriver;
    int calls;
  } paths[] = {
      {"local (gettimeofday)", "local", os::Syscall::kGetTimeOfDay, {}, false,
       count},
      {"offloaded (stat)", "offloaded", os::Syscall::kStat, {}, false, count},
      {"STAG registration, offloaded", "stag_offloaded", os::Syscall::kIoctl,
       reg, false, count / 2},
      {"STAG registration, PicoDriver", "stag_picodriver",
       os::Syscall::kIoctl, reg, true, count / 2},
  };
  TextTable table({"call", "calls", "sim round trip (us)"});
  for (const auto& p : paths) {
    const double us = measure_syscall(p.no, p.args, p.picodriver, p.calls);
    table.add_row({p.name, TextTable::fmt_int(p.calls), TextTable::fmt(us, 2)});
    report.add_metric(std::string(p.slug) + ".sim_roundtrip_us", "us", us);
  }
  print_banner(std::cout, "Ablation: system-call locality on McKernel");
  table.print(std::cout);
  obs::maybe_write_report(report, opts);
  return 0;
}
