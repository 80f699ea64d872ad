// mk_offload: one multi-kernel node (Linux + IHK + McKernel + proxies,
// default noise) driving every syscall path of §5 and §5.1.
//
// A thread on each LWK application core loops over: an exponential compute
// burst; gettimeofday (served by McKernel); stat (offloaded to the Linux
// proxy over IKC); PicoDriver STAG register and deregister (LWK fast
// path); mmap and munmap of 2 MiB (LWK memory manager). The DES is
// message-driven here (ikc.deliver, lwk.offload.marshal), unlike the
// burst-done chains of table2_des. Each unit is one node run.
#include "cluster/node.h"
#include "hw/platform.h"
#include "linuxk/config.h"
#include "obs/prof/prof.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace hpcos;
using Path = os::SyscallResult::Path;

constexpr std::uint64_t kLoops = 5'000;  // per thread
constexpr std::uint64_t kCallsPerLoop = 6;
constexpr std::uint64_t kMapBytes = 2ull << 20;
const SimTime kMeanBurst = SimTime::us(20);
const SimTime kPoll = SimTime::ms(1);

struct ThreadTally {
  std::uint64_t calls = 0;
  std::uint64_t bad = 0;  // not ok, or served on the wrong path
  SimTime started;
  SimTime finished;
  bool done = false;
};

class OffloadLoop final : public os::ThreadBody {
 public:
  OffloadLoop(RngStream rng, ThreadTally& tally) : rng_(rng), tally_(tally) {}

  void step(os::ThreadContext& ctx) override {
    if (awaiting_) {
      const os::SyscallResult& r = ctx.last_syscall();
      if (!r.ok || r.path != expected_) ++tally_.bad;
      awaiting_ = false;
    }
    switch (phase_) {
      case 0:
        if (loop_ == 0) tally_.started = ctx.now();
        if (loop_ == kLoops) {
          tally_.finished = ctx.now();
          tally_.done = true;
          ctx.exit();
          return;
        }
        ++loop_;
        ctx.compute(rng_.exponential_time(kMeanBurst));
        break;
      case 1:
        issue(ctx, os::Syscall::kGetTimeOfDay, {}, Path::kLocal);
        break;
      case 2:
        issue(ctx, os::Syscall::kStat, {}, Path::kOffloaded);
        break;
      case 3:
        issue(ctx, os::Syscall::kIoctl,
              {.arg1 = kMapBytes, .arg2 = os::kTofuRegisterStag},
              Path::kFastDriver);
        break;
      case 4:
        issue(ctx, os::Syscall::kIoctl,
              {.arg1 = kMapBytes, .arg2 = os::kTofuDeregisterStag},
              Path::kFastDriver);
        break;
      case 5:
        issue(ctx, os::Syscall::kMmap, {.arg0 = kMapBytes}, Path::kLocal);
        break;
      case 6:
        addr_ = static_cast<std::uint64_t>(ctx.last_syscall().value);
        issue(ctx, os::Syscall::kMunmap, {.arg0 = addr_, .arg1 = kMapBytes},
              Path::kLocal);
        break;
    }
    phase_ = phase_ == 6 ? 0 : phase_ + 1;
  }

 private:
  void issue(os::ThreadContext& ctx, os::Syscall no, os::SyscallArgs args,
             Path expected) {
    ++tally_.calls;
    expected_ = expected;
    awaiting_ = true;
    ctx.invoke(no, args);
  }

  RngStream rng_;
  ThreadTally& tally_;
  int phase_ = 0;
  std::uint64_t loop_ = 0;
  std::uint64_t addr_ = 0;
  Path expected_ = Path::kLocal;
  bool awaiting_ = false;  // a call was issued; check its result next step
};

class MkOffload final : public Workload {
 public:
  explicit MkOffload(std::uint64_t seed) : seed_(seed) {}

  std::vector<std::string> units() const override { return {"node"}; }

  double setup_only(std::size_t) override {
    const double t0 = wall_seconds();
    auto node = build();
    return wall_seconds() - t0;
  }

  UnitRun run(std::size_t, bool traced) override {
    UnitRun r;
    auto node = build();

    os::NodeKernel& lwk = node->app_kernel();
    const hw::CpuSet& app = node->topology().application_cores();
    const auto cores = app.to_vector();
    const os::Pid pid = lwk.create_process(os::ProcessAttrs{
        .name = "mk_offload", .preferred_page_size = hw::PageSize::k2M});
    std::vector<ThreadTally> tallies(cores.size());
    const RngStream root(Seed{seed_}, 0x0FF1);
    for (std::size_t i = 0; i < cores.size(); ++i) {
      lwk.spawn(std::make_unique<OffloadLoop>(root.split(i), tallies[i]),
                os::SpawnAttrs{.name = "offload-" + std::to_string(i),
                               .pid = pid,
                               .affinity = hw::CpuSet::of(app.capacity(),
                                                          {cores[i]})});
    }

    sim::Simulator& sim = node->simulator();
    const double cpu0 = cpu_seconds();
    const double t0 = wall_seconds();
    if (traced) obs::prof::reset();
    obs::prof::set_enabled(traced);
    alloc::arm(traced);
    const std::uint64_t allocs0 = alloc::count();
    auto all_done = [&] {
      for (const auto& t : tallies) {
        if (!t.done) return false;
      }
      return true;
    };
    while (!all_done()) sim.run_until(sim.now() + kPoll);
    const std::uint64_t allocs = alloc::count() - allocs0;
    alloc::arm(false);
    obs::prof::set_enabled(false);
    r.wall_s = wall_seconds() - t0;
    r.cpu_s = cpu_seconds() - cpu0;

    DesSample des;
    des.span_s = r.wall_s;
    des.events = sim.events_executed();
    des.queue = sim.queue_telemetry();
    des.handlers = sim.handler_stats();
    des.allocs = allocs;
    des.node_sim_s = sim.now().to_sec();
    r.des = std::move(des);

    const mck::SyscallOffloader& off = *node->offloader();
    r.offload_requests = off.requests();
    r.offload_replies = off.replies();

    double core_s = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t bad = 0;
    for (const auto& t : tallies) {
      core_s += (t.finished - t.started).to_sec();
      calls += t.calls;
      bad += t.bad;
    }
    r.sim_core_h = core_s / 3600.0;
    r.attempted = calls;
    r.failed = bad;
    // Every offload answered, and exactly one stat per loop offloaded.
    const std::uint64_t expected_offloads = cores.size() * kLoops;
    if (off.requests() != off.replies() || off.requests() != expected_offloads ||
        calls != expected_offloads * kCallsPerLoop) {
      r.failed = calls;
    }

    Digest d;
    d.add(off.requests());
    d.add(off.roundtrip_us().mean());
    d.add(off.roundtrip_us().max());
    d.add(static_cast<std::uint64_t>(sim.now().count_ns()));
    r.digest = d.hex();
    r.outputs = "offloads=" + std::to_string(off.requests()) +
                " rtt_mean_us=" + fmt_g(off.roundtrip_us().mean()) +
                " rtt_max_us=" + fmt_g(off.roundtrip_us().max());
    return r;
  }

 private:
  std::unique_ptr<cluster::SimNode> build() const {
    const auto platform = hw::make_fugaku_testbed_platform();
    auto lwk = mck::McKernelConfig::defaults();
    lwk.picodriver.enabled = true;
    return cluster::SimNode::make_multikernel_node(
        platform, linuxk::make_fugaku_linux_config(platform), std::move(lwk),
        cluster::SimNodeOptions{.seed = Seed{seed_}});
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_mk_offload(std::uint64_t seed) {
  return std::make_unique<MkOffload>(seed);
}

}  // namespace perfbench
