// Figure 3 — FWQ noise-length time series on the A64FX testbed DES.
//
// The paper plots L_i = T_i - T_min against sample id for (a) all
// countermeasures enabled, (b) daemons unbound, (c) the CPU-global TLB
// flush not suppressed. A terminal can't render 100k-point scatters, so
// this bench prints, per configuration: the sample count, the noise
// floor/ceiling, a coarse log-bucket census of L_i, and the largest
// events with their sample ids — enough to check the plot's structure
// (sporadic small spikes vs a dense band vs periodic stalls).
#include <algorithm>
#include <iostream>

#include "cluster/node.h"
#include "common/table.h"
#include "noise/fwq.h"
#include "noise/metrics.h"
#include "obs/bench_report.h"

namespace {

using namespace hpcos;

noise::NoiseStats run_config(const std::string& label,
                             const noise::Countermeasures& cm,
                             std::uint64_t iterations) {
  const auto platform = hw::make_fugaku_testbed_platform();
  auto cfg = linuxk::make_fugaku_linux_config(platform, cm);
  cfg.profile = noise::strip_population_tails(cfg.profile);
  auto node = cluster::SimNode::make_linux_node(
      platform, std::move(cfg), cluster::SimNodeOptions{.seed = Seed{7}});

  noise::FwqConfig fwq;
  fwq.work_quantum = SimTime::from_ms(6.5);
  fwq.iterations = iterations;
  const auto traces = noise::run_fwq(
      node->app_kernel(), node->topology().application_cores(), fwq);

  // Concatenate per-core series in core order (one "sample id" axis, as
  // the paper's aggregated plot does).
  std::vector<SimTime> all;
  for (const auto& t : traces) {
    const std::vector<SimTime> times = t.times();
    all.insert(all.end(), times.begin(), times.end());
  }
  const auto lengths = noise::noise_lengths(all);

  print_banner(std::cout, "Figure 3 series: " + label);
  const auto stats = noise::compute_noise_stats(traces);
  std::cout << "samples=" << lengths.size()
            << "  T_min=" << stats.t_min.to_string()
            << "  max_noise=" << stats.max_noise_length.to_string()
            << "  rate=" << TextTable::fmt_sci(stats.noise_rate, 2) << "\n";

  // Log-bucket census of noise lengths.
  const double edges_us[] = {1, 10, 100, 1000, 10000, 1e9};
  std::size_t counts[6] = {0, 0, 0, 0, 0, 0};
  for (const SimTime l : lengths) {
    const double us = l.to_us();
    for (int b = 0; b < 6; ++b) {
      if (us < edges_us[b]) {
        ++counts[b];
        break;
      }
    }
  }
  TextTable census({"L_i bucket", "count"});
  const char* names[] = {"< 1us",       "1us - 10us",  "10us - 100us",
                         "100us - 1ms", "1ms - 10ms",  ">= 10ms"};
  for (int b = 0; b < 6; ++b) {
    census.add_row({names[b],
                    TextTable::fmt_int(static_cast<long long>(counts[b]))});
  }
  census.print(std::cout);

  // Largest events with their sample ids (the visible spikes).
  std::vector<std::pair<double, std::size_t>> events;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    events.emplace_back(lengths[i].to_us(), i);
  }
  std::partial_sort(events.begin(), events.begin() + 8, events.end(),
                    std::greater<>());
  TextTable top({"rank", "sample id", "L_i (us)"});
  for (int i = 0; i < 8; ++i) {
    top.add_row({TextTable::fmt_int(i + 1),
                 TextTable::fmt_int(static_cast<long long>(events[i].second)),
                 TextTable::fmt(events[i].first, 2)});
  }
  top.print(std::cout);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using CM = noise::Countermeasures;
  const auto opts = obs::parse_bench_target_options(argc, argv);
  obs::BenchReport report("bench_fig3_fwq_timeseries", opts.quick, 7);
  // ~195 s per core in the full run; the smoke run keeps the same three
  // configurations over a short series.
  const std::uint64_t iterations = opts.quick ? 1'000 : 30'000;

  struct Cfg {
    const char* slug;
    const char* label;
    CM cm;
  };
  const Cfg configs[] = {
      {"all_enabled", "(a) all countermeasures enabled", CM{}},
      {"daemons_unbound", "(b) daemon processes unbound",
       CM{.bind_daemons = false}},
      {"global_tlbi", "(c) CPU-global TLB flush enabled",
       CM{.suppress_global_tlbi = false}},
  };
  for (const auto& c : configs) {
    const auto stats = run_config(c.label, c.cm, iterations);
    report.add_metric(std::string(c.slug) + ".max_noise_us", "us",
                      stats.max_noise_length.to_us());
    report.add_metric(std::string(c.slug) + ".noise_rate", "ratio",
                      stats.noise_rate);
  }
  obs::maybe_write_report(report, opts);
  return 0;
}
