// fig4_campaign: the five Figure 4 FWQ campaigns at paper scale.
//
// Each unit is one run_fwq_campaign call (1 h of 6.5 ms quanta per core)
// on the host work-stealing pool. No DES runs here: the analytic sampler,
// the pool and the histogram/sketch merges do the work, so a DES change
// must read as no change on this workload.
#include "cluster/fwq_campaign.h"
#include "noise/profiles.h"
#include "obs/prof/prof.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace hpcos;

const SimTime kDuration = SimTime::sec(3600);
const SimTime kQuantum = SimTime::from_ms(6.5);

struct Campaign {
  const char* slug;
  noise::AnalyticNoiseProfile (*profile)();
  std::int64_t nodes;
  int app_cores;
};

// fugaku_linux_profile() takes the countermeasures; Fig. 4 uses the
// defaults, the production Fugaku setting.
noise::AnalyticNoiseProfile fugaku_linux() {
  return noise::fugaku_linux_profile();
}

const Campaign kCampaigns[] = {
    {"ofp_linux", noise::ofp_linux_profile, 1024, 256},
    {"ofp_mckernel", noise::ofp_mckernel_profile, 1024, 256},
    {"fugaku_linux_full", fugaku_linux, 158976, 48},
    {"fugaku_linux_24racks", fugaku_linux, 9216, 48},
    {"fugaku_mckernel_24racks", noise::fugaku_mckernel_profile, 9216, 48},
};

struct Built {
  noise::AnalyticNoiseProfile profile;
  cluster::FwqCampaignConfig config;
};

// Same campaign settings as bench_fig4_fwq_cdf in full mode.
Built build(const Campaign& c, std::uint64_t seed) {
  Built b{c.profile(), {}};
  b.config.nodes = c.nodes;
  b.config.app_cores = c.app_cores;
  b.config.duration_per_core = kDuration;
  b.config.max_materialized_hits = c.nodes > 20000 ? 256 : 2048;
  b.config.seed = Seed{seed};
  return b;
}

class Fig4Campaign final : public Workload {
 public:
  explicit Fig4Campaign(std::uint64_t seed) : seed_(seed) {}

  std::vector<std::string> units() const override {
    return fig4_campaign_units();
  }

  double setup_only(std::size_t u) override {
    const double t0 = wall_seconds();
    const Built b = build(kCampaigns[u], seed_);
    return wall_seconds() - t0;
  }

  UnitRun run(std::size_t u, bool traced) override {
    const Campaign& c = kCampaigns[u];
    UnitRun r;
    const Built b = build(c, seed_);

    const double cpu0 = cpu_seconds();
    const double t0 = wall_seconds();
    if (traced) obs::prof::reset();
    obs::prof::set_enabled(traced);
    const auto result = cluster::run_fwq_campaign(b.profile, b.config);
    obs::prof::set_enabled(false);
    r.wall_s = wall_seconds() - t0;
    r.cpu_s = cpu_seconds() - cpu0;

    CampaignSample cs;
    cs.slug = c.slug;
    cs.node_h = static_cast<double>(c.nodes) * kDuration.to_sec() / 3600.0;
    if (traced) {
      const auto profile = obs::prof::collect();
      if (const auto* s = profile.find("fwq.shard")) {
        cs.shards = s->count;
        cs.shard_ns = s->total_ns;
      }
      if (const auto* s = profile.find("fwq.merge")) cs.merge_ns = s->total_ns;
    }
    r.campaign = cs;
    r.sim_core_h = cs.node_h * c.app_cores;

    const double p50 = result.cdf.quantile(0.50);
    const double p99 = result.cdf.quantile(0.99);
    Digest d;
    d.add(result.total_iterations);
    d.add(p50);
    d.add(p99);
    d.add(static_cast<std::uint64_t>(result.stats.t_max.count_ns()));
    // p50 and p99 are histogram bin edges and max is often a source's
    // cap; the noise rate sums every overhead, so any change shows.
    d.add(result.stats.noise_rate);
    r.digest = d.hex();
    r.outputs = "iterations=" + std::to_string(result.total_iterations) +
                " p50_us=" + fmt_g(p50) + " p99_us=" + fmt_g(p99) +
                " max_us=" + fmt_g(result.stats.t_max.to_us()) +
                " rate=" + fmt_g(result.stats.noise_rate);

    const auto per_core = static_cast<std::uint64_t>(kDuration.count_ns() /
                                                     kQuantum.count_ns());
    const std::uint64_t expected = static_cast<std::uint64_t>(c.nodes) *
                                   static_cast<std::uint64_t>(c.app_cores) *
                                   per_core;
    if (result.total_iterations != expected || !(p50 <= p99) ||
        !(p99 <= result.stats.t_max.to_us() * 1.01)) {
      r.failed = 1;
    }
    return r;
  }

 private:
  std::uint64_t seed_;
};

}  // namespace

std::vector<std::string> fig4_campaign_units() {
  std::vector<std::string> out;
  for (const Campaign& c : kCampaigns) out.emplace_back(c.slug);
  return out;
}

std::unique_ptr<Workload> make_fig4_campaign(std::uint64_t seed) {
  return std::make_unique<Fig4Campaign>(seed);
}

}  // namespace perfbench
