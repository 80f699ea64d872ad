// Table 2 — effectiveness of individual noise elimination techniques.
//
// Reproduces the paper's methodology on the simulated 16-node A64FX
// testbed: run FWQ (~6.5 ms quanta) on every application core of a node
// DES with all countermeasures enabled, then with each one disabled in
// turn, and report the maximum noise length and the noise rate (Eq. 2).
//
// Paper values:
//   None                          50.44 us    3.79E-6
//   Daemon process             20346.98 us    9.94E-4
//   Unbound kworker tasks        266.34 us    4.58E-6
//   blk-mq worker tasks          387.91 us    4.58E-6
//   PMU counter reads            103.09 us    8.27E-6
//   CPU-global flush instr.       90.20 us    3.87E-6
#include <iostream>
#include <iterator>

#include "cluster/des_cluster.h"
#include "common/parallel.h"
#include "common/table.h"
#include "noise/fwq.h"
#include "noise/metrics.h"
#include "obs/bench_report.h"

namespace {

using namespace hpcos;

struct Row {
  std::string label;
  std::string slug;
  noise::Countermeasures cm;
  double paper_max_us;
  double paper_rate;
};

noise::NoiseStats measure(const noise::Countermeasures& cm, Seed seed,
                          int nodes, std::uint64_t iterations) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto cfg = linuxk::make_fugaku_linux_config(platform, cm);
  cfg.profile = noise::strip_population_tails(cfg.profile);

  // A real cluster, like the in-house 16-node system: FWQ starts
  // simultaneously on every application core of every node, and the
  // nodes' independent simulators run concurrently on the host pool.
  cluster::DesCluster cluster(nodes, platform, cfg,
                              cluster::DesCluster::Options{.seed = seed});
  noise::FwqConfig fwq;
  fwq.work_quantum = SimTime::from_ms(6.5);
  fwq.iterations = iterations;
  auto per_node = cluster.run_fwq_all(fwq);
  std::vector<noise::FwqTrace> flat;
  for (auto& traces : per_node) {
    flat.insert(flat.end(), std::make_move_iterator(traces.begin()),
                std::make_move_iterator(traces.end()));
  }
  return noise::compute_noise_stats(flat);
}

}  // namespace

int main(int argc, char** argv) {
  using CM = noise::Countermeasures;
  const auto opts = obs::parse_bench_target_options(argc, argv);
  obs::BenchReport report("bench_table2_countermeasures", opts.quick, 42);
  const std::vector<Row> rows = {
      {"None", "none", CM{}, 50.44, 3.79e-6},
      {"Daemon process", "daemon", CM{.bind_daemons = false}, 20346.98,
       9.94e-4},
      {"Unbound kworker tasks", "kworker", CM{.bind_kworkers = false},
       266.34, 4.58e-6},
      {"blk-mq worker tasks", "blkmq", CM{.bind_blkmq = false}, 387.91,
       4.58e-6},
      {"PMU counter reads", "pmu", CM{.stop_pmu_reads = false}, 103.09,
       8.27e-6},
      {"CPU-global flush instruction", "global_tlbi",
       CM{.suppress_global_tlbi = false}, 90.2, 3.87e-6},
  };

  // 8 simulated nodes x ~200 s of FWQ per core keeps the DES tractable
  // while sampling each source's clamp region (the paper used 16 nodes).
  // Smoke mode shrinks to one node and a short series.
  const int kNodes = opts.quick ? 1 : 8;
  const std::uint64_t kIterations = opts.quick ? 1'000 : 30'000;

  print_banner(std::cout,
               "Table 2: Effectiveness of individual noise elimination "
               "techniques (A64FX testbed DES)");
  TextTable t({"Disabled technique", "Max noise length (us)", "Noise rate",
               "paper max (us)", "paper rate"});
  // The rows are independent clusters, so they run as one host task each;
  // every row's nodes nest a second parallel loop inside its task. Rows
  // are printed and reported in table order afterwards.
  std::vector<noise::NoiseStats> row_stats(rows.size());
  parallel_for(rows.size(), [&](std::size_t i) {
    row_stats[i] = measure(rows[i].cm, Seed{42}, kNodes, kIterations);
  });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const noise::NoiseStats& stats = row_stats[i];
    t.add_row({row.label,
               TextTable::fmt(stats.max_noise_length.to_us(), 2),
               TextTable::fmt_sci(stats.noise_rate, 2),
               TextTable::fmt(row.paper_max_us, 2),
               TextTable::fmt_sci(row.paper_rate, 2)});
    report.add_metric(row.slug + ".max_noise_us", "us",
                      stats.max_noise_length.to_us());
    report.add_metric(row.slug + ".noise_rate", "ratio", stats.noise_rate);
    std::cout << "." << std::flush;
  }
  std::cout << "\n";
  t.print(std::cout);
  obs::maybe_write_report(report, opts);
  return 0;
}
