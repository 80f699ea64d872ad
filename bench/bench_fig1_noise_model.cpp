// Figure 1 / Equation 1 — the analytic noise-amplification model.
//
// Reproduces §2's worked example (100,000 threads, 250 us sync interval,
// one 1 ms / 500 s noise group => ~20% slowdown) and §6.3's full-scale
// observation (at N = 7,630,848 threads, even a once-per-600 s event hits
// some thread nearly every interval), then sweeps thread counts to show
// the amplification curve the figure illustrates.
#include <iostream>

#include "common/table.h"
#include "noise/metrics.h"
#include "obs/bench_report.h"

int main(int argc, char** argv) {
  using namespace hpcos;
  using noise::NoiseGroup;

  const auto opts = obs::parse_bench_target_options(argc, argv);
  obs::BenchReport report("bench_fig1_noise_model", opts.quick);

  print_banner(std::cout, "Equation 1: BSP noise delay model (Section 2)");

  const NoiseGroup example{.length = SimTime::ms(1),
                           .interval = SimTime::sec(500)};
  const double delay = noise::bsp_noise_delay(
      std::span(&example, 1), SimTime::us(250), 100'000);
  std::cout << "Paper example: N=100,000, S=250us, L=1ms, I=500s -> "
            << TextTable::fmt_percent(delay) << " slowdown (paper: ~20%)\n";
  report.add_metric("paper_example.slowdown", "ratio", delay);

  const double p_full = noise::hit_probability(
      SimTime::us(250), SimTime::sec(600), 7'630'848);
  std::cout << "Full-scale Fugaku (N=7,630,848): once-per-600s noise hits a "
               "sync interval with probability "
            << TextTable::fmt(p_full, 3) << " (paper: close to 1)\n";
  report.add_metric("fugaku_full_scale.hit_probability", "ratio", p_full);

  print_banner(std::cout,
               "Noise amplification vs thread count (L=1ms, I=500s, "
               "S=250us)");
  TextTable t({"threads", "hit probability", "expected slowdown"});
  for (const std::uint64_t n :
       {1ull, 100ull, 10'000ull, 100'000ull, 1'000'000ull, 7'630'848ull}) {
    const double p =
        noise::hit_probability(SimTime::us(250), SimTime::sec(500), n);
    const double d =
        noise::bsp_noise_delay(std::span(&example, 1), SimTime::us(250), n);
    t.add_row({TextTable::fmt_int(static_cast<long long>(n)),
               TextTable::fmt(p, 4), TextTable::fmt_percent(d)});
    report.add_metric("amplification.n" + std::to_string(n) + ".slowdown",
                      "ratio", d);
  }
  t.print(std::cout);

  print_banner(std::cout,
               "Delay vs sync interval (bulk-synchronous sensitivity)");
  TextTable s({"sync interval", "slowdown at N=100k", "slowdown at N=7.6M"});
  for (const std::int64_t us : {50, 250, 1000, 10000, 100000}) {
    const SimTime sync = SimTime::us(us);
    s.add_row({sync.to_string(),
               TextTable::fmt_percent(noise::bsp_noise_delay(
                   std::span(&example, 1), sync, 100'000)),
               TextTable::fmt_percent(noise::bsp_noise_delay(
                   std::span(&example, 1), sync, 7'630'848))});
  }
  s.print(std::cout);

  obs::maybe_write_report(report, opts);
  return 0;
}
